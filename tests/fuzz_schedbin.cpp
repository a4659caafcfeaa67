// Structure-aware fuzz harness for SchedBin decode (modeled on c-blosc2's
// decompress fuzzer, but deterministic and in-tree): mutate valid frames —
// truncate, bit-flip headers/trailers/chunk directories, splice chunks
// between files, lie in length fields, and re-seal CRCs over the lies so
// corruption reaches the structural validators instead of stopping at the
// checksum wall — then assert that decode either round-trips or throws a
// clean a2a::Error. Any other escape (std::length_error or bad_alloc from
// a wild allocation, segfault, UB) fails the run.
//
// Runs as ctest `fuzz_smoke`: fixed seed, ~10k iterations, a few seconds.
// A2A_FUZZ_ITERS overrides the iteration count for longer soak runs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "common/crc32.hpp"
#include "common/random.hpp"
#include "container/schedbin.hpp"
#include "graph/topologies.hpp"
#include "schedbin_corpus.hpp"

#ifndef A2A_SOURCE_DIR
#define A2A_SOURCE_DIR "."
#endif

namespace a2a {
namespace {

namespace fs = std::filesystem;

/// Decode budget used for half the probes: small enough that "lie about
/// word_count" mutants exercise the budget rejection path.
constexpr std::uint64_t kSmallBudget = 1u << 20;

std::vector<std::string> load_seeds() {
  std::vector<std::string> seeds;
  // In-process deterministic seeds (also the generator of the checked-in
  // corpus, so both stay in lockstep)...
  for (auto& frame : corpus::corpus_frames()) {
    seeds.push_back(std::move(frame.bytes));
  }
  // ...plus whatever extra frames are checked in under the corpus dir
  // (regression cases from past fuzz findings land there).
  const fs::path dir = fs::path(A2A_SOURCE_DIR) / "tests" / "corpus" / "schedbin";
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir, ec)) {
    if (!de.is_regular_file(ec)) continue;
    std::ifstream in(de.path(), std::ios::binary);
    if (!in.good()) continue;
    seeds.emplace_back(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }
  return seeds;
}

/// Best-effort CRC re-seal after a mutation, so structural lies survive the
/// checksum layer. Geometry is taken at face value from the (possibly
/// mutated) bytes; when it is nonsense the re-seal silently gives up and
/// the mutant just dies at a CRC check instead.
void reseal_crcs(std::string& blob, Rng& rng) {
  if (blob.size() < 56) return;
  const auto version =
      static_cast<std::uint16_t>(binio::get_uint(blob, 4, 2));
  const auto num_chunks =
      static_cast<std::uint32_t>(binio::get_uint(blob, 52, 4));
  const auto patch_u32 = [&](std::size_t pos, std::uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      blob[pos + static_cast<std::size_t>(b)] =
          static_cast<char>((v >> (8 * b)) & 0xFF);
    }
  };
  if (version == kSchedBinVersion1) {
    // Re-seal each directory entry's CRC over the chunk bytes it points at.
    std::size_t offset = 56 + static_cast<std::size_t>(num_chunks) * 8;
    for (std::uint32_t c = 0; c < num_chunks; ++c) {
      const std::size_t entry = 56 + static_cast<std::size_t>(c) * 8;
      if (entry + 8 > blob.size()) return;
      const auto size =
          static_cast<std::uint32_t>(binio::get_uint(blob, entry, 4));
      if (offset + size > blob.size()) return;
      patch_u32(entry + 4, crc32(blob.data() + offset, size));
      offset += size;
    }
    return;
  }
  if (blob.size() < 56 + 24) return;
  const std::size_t footer = blob.size() - 24;
  const std::uint64_t trailer_offset = binio::get_uint(blob, footer, 8);
  const auto trailer_bytes =
      static_cast<std::size_t>(binio::get_uint(blob, footer + 8, 4));
  if (trailer_offset > blob.size() ||
      trailer_offset + trailer_bytes + 24 != blob.size()) {
    return;
  }
  // Occasionally re-seal the per-chunk CRCs in the directory too.
  if (rng.next_int(0, 2) == 0 &&
      trailer_bytes >= static_cast<std::size_t>(num_chunks) * 17) {
    std::size_t entry = static_cast<std::size_t>(trailer_offset) +
                        trailer_bytes -
                        static_cast<std::size_t>(num_chunks) * 17;
    for (std::uint32_t c = 0; c < num_chunks; ++c, entry += 17) {
      const std::uint64_t off = binio::get_uint(blob, entry, 8);
      const auto size =
          static_cast<std::uint32_t>(binio::get_uint(blob, entry + 8, 4));
      // Bound before summing: a mutated 64-bit offset can wrap off + size.
      if (off > blob.size() || size > blob.size() - off) break;
      patch_u32(entry + 12, crc32(blob.data() + off, size));
    }
  }
  patch_u32(footer + 12,
            crc32(blob.data() + trailer_offset, trailer_bytes));
  patch_u32(footer + 16, crc32(blob.data(), 56));
}

std::string mutate(const std::vector<std::string>& seeds, Rng& rng) {
  std::string blob = seeds[static_cast<std::size_t>(
      rng.next_int(0, static_cast<int>(seeds.size())))];
  const int rounds = rng.next_int(1, 4);
  for (int round = 0; round < rounds; ++round) {
    if (blob.empty()) break;
    const auto pick_pos = [&]() {
      // Bias mutations toward the structure: header, directory region
      // (front for v1), and trailer/footer (back for v2).
      switch (rng.next_int(0, 4)) {
        case 0: return static_cast<std::size_t>(
                    rng.next_int(0, static_cast<int>(std::min<std::size_t>(blob.size(), 80))));
        case 1: return blob.size() - 1 -
                    static_cast<std::size_t>(rng.next_int(
                        0, static_cast<int>(std::min<std::size_t>(blob.size(), 120))));
        default:
          return static_cast<std::size_t>(rng.next_below(blob.size()));
      }
    };
    switch (rng.next_int(0, 7)) {
      case 0:  // truncate
        blob.resize(rng.next_below(blob.size() + 1));
        break;
      case 1:  // bit flip
        blob[pick_pos()] ^= static_cast<char>(1 << rng.next_int(0, 8));
        break;
      case 2: {  // lie in a length-ish field: overwrite 4 bytes
        const std::size_t pos = pick_pos();
        if (pos + 4 > blob.size()) break;
        const std::uint32_t lies[] = {0u, 1u, 0x7FFFFFFFu, 0xFFFFFFFFu,
                                      static_cast<std::uint32_t>(blob.size()),
                                      static_cast<std::uint32_t>(rng.next_u64())};
        const std::uint32_t lie =
            lies[rng.next_int(0, static_cast<int>(std::size(lies)))];
        for (int b = 0; b < 4; ++b) {
          blob[pos + static_cast<std::size_t>(b)] =
              static_cast<char>((lie >> (8 * b)) & 0xFF);
        }
        break;
      }
      case 3: {  // splice: prefix of this frame + suffix of another
        const std::string& other = seeds[static_cast<std::size_t>(
            rng.next_int(0, static_cast<int>(seeds.size())))];
        if (other.empty()) break;
        blob = blob.substr(0, rng.next_below(blob.size() + 1)) +
               other.substr(other.size() - 1 - rng.next_below(other.size()));
        break;
      }
      case 4: {  // duplicate an interior slice (chunk-splice within a file)
        const std::size_t a = rng.next_below(blob.size());
        const std::size_t len =
            std::min<std::size_t>(blob.size() - a,
                                  1 + rng.next_below(64));
        blob.insert(rng.next_below(blob.size()), blob.substr(a, len));
        break;
      }
      case 5: {  // erase an interior slice
        const std::size_t a = rng.next_below(blob.size());
        blob.erase(a, 1 + rng.next_below(32));
        break;
      }
      case 6:  // re-seal CRCs so the lie reaches the structural checks
        reseal_crcs(blob, rng);
        break;
    }
  }
  // Half the time seal the checksums at the end: those mutants probe the
  // validators, the unsealed half probes the CRC wall itself.
  if (rng.next_int(0, 2) == 0) reseal_crcs(blob, rng);
  return blob;
}

TEST(FuzzSchedBin, SmokeSeededMutations) {
  const std::vector<std::string> seeds = load_seeds();
  ASSERT_FALSE(seeds.empty());
  // Sanity: every pristine seed decodes.
  for (const std::string& seed : seeds) {
    EXPECT_NO_THROW((void)schedbin_inspect(seed));
  }

  long iterations = 10000;
  if (const char* env = std::getenv("A2A_FUZZ_ITERS")) {
    iterations = std::atol(env);
  }
  // Triage hook: A2A_FUZZ_DUMP=path writes every mutant there before it is
  // probed, so after a crash the file holds the killer input (c-blosc2's
  // README_FUZZER workflow, minus the base64 detour).
  const char* dump_path = std::getenv("A2A_FUZZ_DUMP");
  const DiGraph cube = make_hypercube(4);
  Rng rng(0xF0225EEDULL);
  long clean_decodes = 0;
  long rejected = 0;
  for (long iter = 0; iter < iterations; ++iter) {
    const std::string mutant = mutate(seeds, rng);
    if (dump_path != nullptr) {
      std::ofstream dump(dump_path, std::ios::binary | std::ios::trunc);
      dump.write(mutant.data(), static_cast<std::streamsize>(mutant.size()));
    }
    const std::uint64_t budget =
        iter % 2 == 0 ? kSchedBinDefaultDecodeBudget : kSmallBudget;
    try {
      const SchedBinInfo info = schedbin_inspect(mutant, budget);
      // Accepted: the decode budget must have been honored...
      ASSERT_LE(info.word_count * 8, budget);
      // ...and a full decode must produce exactly the declared words and
      // survive a re-encode round trip.
      if (info.kind == SchedBinKind::kLink) {
        const LinkSchedule sched =
            link_schedule_from_schedbin(mutant, budget);
        SchedBinOptions re;
        re.codec = info.codec;
        const std::string bytes = link_schedule_to_schedbin(sched, re);
        const LinkSchedule again = link_schedule_from_schedbin(bytes);
        ASSERT_EQ(again.transfers.size(), sched.transfers.size());
      } else {
        // Mutant route words rarely resolve against any real topology;
        // a clean InvalidArgument is fine, a crash is not.
        try {
          (void)path_schedule_from_schedbin(cube, mutant, budget);
        } catch (const Error&) {
        }
      }
      ++clean_decodes;
    } catch (const Error&) {
      ++rejected;  // clean structured rejection — the expected outcome
    } catch (const std::exception& e) {
      FAIL() << "iteration " << iter << ": decoder leaked a non-a2a error: "
             << e.what();
    }
    // Reader path: on-demand chunk decode must uphold the same contract.
    try {
      const SchedBinReader reader = SchedBinReader::from_bytes(mutant, budget);
      std::vector<std::int64_t> chunk;
      for (std::uint32_t c = 0; c < reader.num_chunks(); ++c) {
        (void)reader.decode_chunk(c, chunk);
      }
    } catch (const Error&) {
    } catch (const std::exception& e) {
      FAIL() << "iteration " << iter << ": reader leaked a non-a2a error: "
             << e.what();
    }
  }
  // The mutator must not be so destructive that the interesting accepting
  // paths never run, nor so tame that nothing is rejected.
  EXPECT_GT(clean_decodes, iterations / 200);
  EXPECT_GT(rejected, iterations / 2);
  std::cout << "fuzz_smoke: " << iterations << " mutants, " << clean_decodes
            << " decoded cleanly, " << rejected << " rejected cleanly\n";
}

}  // namespace
}  // namespace a2a
