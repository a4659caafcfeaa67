#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>
#include <sstream>

#include "common/binio.hpp"
#include "common/error.hpp"
#include "common/fnv1a.hpp"
#include "common/parse.hpp"
#include "common/random.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "reference/fingerprint_reference.hpp"

namespace a2a {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, NextBelowInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(7), 7u);
  }
  EXPECT_THROW((void)rng.next_below(0), InvalidArgument);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(ThreadPool, RunsAllIterations) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) {
    hits[i].fetch_add(1);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 100);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(50,
                                 [](std::size_t i) {
                                   if (i == 13) throw InvalidArgument("boom");
                                 }),
               InvalidArgument);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round) {
    pool.parallel_for(10, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 50);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ManyConcurrentThrowersStress) {
  // Regression for the exception-publication race: many tasks throw at
  // once from every worker, so several workers race to publish while the
  // caller races to rethrow. Exactly one exception must surface per call,
  // it must be a fully-formed one (safe to inspect), and the pool must
  // stay usable afterwards. Repeated rounds shake out interleavings.
  ThreadPool pool(8);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> started{0};
    bool caught = false;
    try {
      pool.parallel_for(64, [&](std::size_t i) {
        started.fetch_add(1);
        throw InvalidArgument("boom " + std::to_string(i));
      });
    } catch (const InvalidArgument& e) {
      caught = true;
      EXPECT_EQ(std::string(e.what()).rfind("boom ", 0), 0u);
    }
    EXPECT_TRUE(caught);
    EXPECT_GE(started.load(), 1);
    // The pool is intact: a clean run completes fully.
    std::atomic<int> ok{0};
    pool.parallel_for(32, [&](std::size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 32);
  }
}

TEST(ThreadPool, LateIterationsSkippedAfterFailure) {
  // Once a task throws, workers may skip iterations that have not started;
  // whatever DID run must have run exactly once (no lost or doubled work).
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(200);
  EXPECT_THROW(pool.parallel_for(200,
                                 [&](std::size_t i) {
                                   hits[i].fetch_add(1);
                                   if (i == 0) throw SolverError("first");
                                 }),
               SolverError);
  for (auto& h : hits) EXPECT_LE(h.load(), 1);
  EXPECT_EQ(hits[0].load(), 1);
}

TEST(ThreadPool, NestedLoopRunsInlineOnTheWorker) {
  // A parallel_for issued from one of the pool's own workers runs on that
  // worker: with two of four workers busy in the outer loop, the inner
  // iterations must not spread to the idle two.
  ThreadPool pool(4);
  std::thread::id outer_ids[2];
  std::thread::id inner_ids[2][8];
  pool.parallel_for(2, [&](std::size_t o) {
    outer_ids[o] = std::this_thread::get_id();
    pool.parallel_for(8, [&](std::size_t i) {
      inner_ids[o][i] = std::this_thread::get_id();
    });
  });
  for (std::size_t o = 0; o < 2; ++o) {
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(inner_ids[o][i], outer_ids[o]) << "outer " << o << ", inner " << i;
    }
  }
}

// ---- FNV-1a ------------------------------------------------------------------

/// The two-lane hasher over `data`, fed in pieces cut at `rng`'s choice.
std::string two_lane_in_pieces(std::string_view data, std::uint64_t seed_a,
                               std::uint64_t seed_b, Rng& rng) {
  Fnv1a128 h(seed_a, seed_b);
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t len = std::min<std::size_t>(
        data.size() - pos, 1 + rng.next_below(17));
    h.update(data.substr(pos, len));
    pos += len;
  }
  return h.hex();
}

TEST(Fnv1a128, MatchesTwoSingleLanePasses) {
  // The seed pairs of the three keys (schedule fingerprint and failover
  // fingerprint, content key), then arbitrary ones.
  const std::uint64_t seeds[][2] = {{0, 0x9e3779b97f4a7c15ULL},
                                    {0x5bd1e995ULL, 0xc2b2ae3d27d4eb4fULL},
                                    {7, 7},
                                    {~0ULL, 1}};
  Rng rng(20261021);
  std::vector<std::size_t> sizes = {0, 1, 2, 7, 8, 9, 255, 4096};
  for (int i = 0; i < 24; ++i) sizes.push_back(rng.next_below(20000));
  for (const std::size_t size : sizes) {
    std::string data(size, '\0');
    for (char& c : data) c = static_cast<char>(rng.next_below(256));
    for (const auto& [a, b] : seeds) {
      const std::string expected = hex128(fnv1a(data, a), fnv1a(data, b));
      Fnv1a128 whole(a, b);
      whole.update(data);
      EXPECT_EQ(whole.hex(), expected) << size << " bytes";
      EXPECT_EQ(two_lane_in_pieces(data, a, b, rng), expected)
          << size << " bytes";
    }
  }
  // Every byte value on its own, high bit included.
  for (int byte = 0; byte < 256; ++byte) {
    const std::string one(1, static_cast<char>(byte));
    Fnv1a128 h(0, 0x9e3779b97f4a7c15ULL);
    h.update(one);
    EXPECT_EQ(h.hex(), hex128(fnv1a(one, 0), fnv1a(one, 0x9e3779b97f4a7c15ULL)))
        << byte;
  }
}

TEST(Fnv1a128, U64FeedsItsLittleEndianBytes) {
  Rng rng(31);
  Fnv1a128 streamed(0, 0x9e3779b97f4a7c15ULL);
  std::string buf;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t v = i < 4 ? std::uint64_t{0} - static_cast<std::uint64_t>(i)
                                  : rng.next_u64();
    streamed.update_u64(v);
    binio::put_u64(buf, v);
  }
  EXPECT_EQ(streamed.hex(),
            hex128(fnv1a(buf, 0), fnv1a(buf, 0x9e3779b97f4a7c15ULL)));
}

TEST(ParseNumber, HonoursEachTypesRange) {
  EXPECT_EQ(parse_number<std::uint16_t>("65535", "port"), 65535);
  EXPECT_THROW((void)parse_number<std::uint16_t>("70000", "port"),
               InvalidArgument);
  EXPECT_EQ(parse_number<unsigned>("4294967295", "threads"), 4294967295u);
  EXPECT_THROW((void)parse_number<unsigned>("-1", "threads"), InvalidArgument);
  EXPECT_THROW((void)parse_number<unsigned>("4294967296", "threads"),
               InvalidArgument);
  EXPECT_EQ(parse_number<int>("-2147483648", "n"), INT32_MIN);
  EXPECT_THROW((void)parse_number<int>("2147483648", "n"), InvalidArgument);
  EXPECT_EQ(parse_number<long long>("3000000000", "n"), 3'000'000'000LL);
  EXPECT_THROW((void)parse_number<long long>("9223372036854775808", "n"),
               InvalidArgument);
  // 2^53 + 1 has no double; a uint64 reads it exactly, 2^64 - 1 too.
  EXPECT_EQ(parse_number<std::uint64_t>("9007199254740993", "seed"),
            9007199254740993ULL);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615", "seed"),
            UINT64_MAX);
  EXPECT_THROW((void)parse_number<std::uint64_t>("18446744073709551616", "seed"),
               InvalidArgument);
  EXPECT_EQ(parse_number<double>("1e300", "ms"), 1e300);
  EXPECT_THROW((void)parse_number<double>("1e400", "ms"), InvalidArgument);
}

TEST(ParseNumber, AcceptsPlainDecimalOnly) {
  EXPECT_EQ(parse_number<int>("007", "n"), 7);
  EXPECT_EQ(parse_number<int>("-0", "n"), 0);
  EXPECT_EQ(parse_number<double>("0.6", "s"), 0.6);
  EXPECT_EQ(parse_number<double>("-2.5e-3", "s"), -2.5e-3);
  for (const char* text : {"", "+1", " 1", "1 ", "1x", "0x10", "1.5", "1e3",
                           "--1", "1,000"}) {
    EXPECT_THROW((void)parse_number<int>(text, "n"), InvalidArgument) << text;
  }
  for (const char* text : {"", "+1", " 1", "1 ", "1.5.", "inf", "-inf", "nan",
                           "infinity", "0x1p3", "1e"}) {
    EXPECT_THROW((void)parse_number<double>(text, "s"), InvalidArgument)
        << text;
  }
}

TEST(ParseNumber, DiagnosisNamesTheFieldAndQuotesTheText) {
  try {
    (void)parse_number<int>("12abc", "nodes");
    FAIL() << "12abc parsed";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nodes"), std::string::npos) << what;
    EXPECT_NE(what.find("\"12abc\""), std::string::npos) << what;
  }
}

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(1.5, 2);
  t.row().cell("b").cell(42LL);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.50"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  // Header rule present.
  EXPECT_NE(out.find("----"), std::string::npos);
}

}  // namespace
}  // namespace a2a
