// SchedBin container study — size and (de)serialization throughput vs the
// §4 XML dialect across the Fig. 10 topology families, the v2 dict codec vs
// rle/delta on Fig. 3/4-style schedules, mmap chunk reads vs whole-file
// slurps, the schedule cache's effect on repeat generate_schedule() calls,
// and (full runs only) the envelope encode/decode of a 1.3M-transfer link
// schedule.
//
//   bench_container                 full sweep
//   bench_container --smoke         one small case + hard assertions (CI
//                                   gate): dict beats rle/delta on the path
//                                   schedule, and an mmap single-chunk read
//                                   touches a fraction of the file. Nonzero
//                                   exit on violation.
//   bench_container --json PATH     append a BENCH_container.json trajectory
//                                   record (headline ratios, the link
//                                   envelope leg + the metrics registry
//                                   snapshot for the run).
#include "bench_util.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>

#include "collectives/demand.hpp"
#include "container/schedbin.hpp"
#include "core/api.hpp"
#include "core/schedule_cache.hpp"
#include "schedule/xml_io.hpp"

using namespace a2a;
using namespace a2a::bench;

namespace {

struct Case {
  std::string name;
  DiGraph graph;
};

std::vector<Case> fig10_cases(bool smoke) {
  Rng rng(1);
  std::vector<Case> cases;
  cases.push_back({"GenKautz(16,4)", make_generalized_kautz(16, 4)});
  if (smoke) return cases;
  cases.push_back({"GenKautz(32,4)", make_generalized_kautz(32, 4)});
  cases.push_back({"GenKautz(64,4)", make_generalized_kautz(64, 4)});
  cases.push_back({"Torus2D(36)", make_torus_2d(36)});
  cases.push_back({"Xpander(4,8)", make_xpander(4, 8, rng)});
  cases.push_back({"RandReg(32,4)", make_random_regular(32, 4, rng)});
  return cases;
}

/// Median-of-reps seconds for a callable, adaptively repeated so fast
/// serializers get stable numbers.
template <typename Fn>
double best_time(Fn&& fn) {
  double best = 1e30;
  double total = 0.0;
  for (int rep = 0; rep < 20 && (rep < 3 || total < 0.2); ++rep) {
    const double t = timed(fn);
    best = std::min(best, t);
    total += t;
  }
  return best;
}

double mbps(std::size_t bytes, double seconds) {
  return static_cast<double>(bytes) / 1e6 / seconds;
}

struct TempFile {
  std::filesystem::path path;
  explicit TempFile(const std::string& stem) {
    path = std::filesystem::temp_directory_path() /
           (stem + "_" + std::to_string(::getpid()) + ".schedbin");
  }
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  void write(std::string_view bytes) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
};

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }
  ToolchainOptions toolchain;
  toolchain.chunking = coarse_chunking();
  const Fabric fabric = hpc_cerio_fabric();
  int failures = 0;

  std::cout << "=== SchedBin vs XML: size across the Fig. 10 topology sweep "
               "===\n\n";
  Table sizes({"topology", "routes", "xml KB", "raw KB", "rle KB", "delta KB",
               "dict KB", "xml/delta", "delta/dict"});
  Table speeds({"topology", "xml enc MB/s", "xml dec MB/s", "bin enc MB/s",
                "bin dec MB/s"});

  double worst_ratio = 1e30;
  double worst_dict_gain = 1e30;
  std::string mmap_blob;  // largest delta container, reused below
  for (Case& c : fig10_cases(smoke)) {
    const GeneratedSchedule generated =
        generate_schedule(c.graph, fabric, toolchain);
    const PathSchedule& sched = *generated.path;
    const DiGraph& g = generated.schedule_graph;

    const std::string xml = path_schedule_to_xml(g, sched);
    std::string by_codec[4];
    for (const SchedBinCodec codec :
         {SchedBinCodec::kRaw, SchedBinCodec::kRle, SchedBinCodec::kDelta,
          SchedBinCodec::kDict}) {
      SchedBinOptions options;
      options.codec = codec;
      // Small chunks so the frame dictionary proves itself ACROSS chunks
      // and the mmap section below has chunks to pick from.
      options.chunk_words = 4096;
      by_codec[static_cast<int>(codec)] = path_schedule_to_schedbin(g, sched, options);
    }
    const std::string& delta = by_codec[static_cast<int>(SchedBinCodec::kDelta)];
    const std::string& dict = by_codec[static_cast<int>(SchedBinCodec::kDict)];
    {
      // The mmap section wants plenty of chunks even for the small smoke
      // case, so a single-chunk read is a small fraction of the file.
      SchedBinOptions mm;
      mm.codec = SchedBinCodec::kDelta;
      mm.chunk_words = 256;
      mmap_blob = path_schedule_to_schedbin(g, sched, mm);
    }
    const double ratio =
        static_cast<double>(xml.size()) / static_cast<double>(delta.size());
    const double dict_gain =
        static_cast<double>(delta.size()) / static_cast<double>(dict.size());
    worst_ratio = std::min(worst_ratio, ratio);
    worst_dict_gain = std::min(worst_dict_gain, dict_gain);
    if (dict.size() >= by_codec[1].size() || dict.size() >= delta.size()) {
      std::cout << "FAIL: dict (" << dict.size() << " B) does not beat rle ("
                << by_codec[1].size() << " B) / delta (" << delta.size()
                << " B) on " << c.name << "\n";
      ++failures;
    }
    sizes.row()
        .cell(c.name)
        .cell(static_cast<long long>(sched.entries.size()))
        .cell(static_cast<double>(xml.size()) / 1024.0, 1)
        .cell(static_cast<double>(by_codec[0].size()) / 1024.0, 1)
        .cell(static_cast<double>(by_codec[1].size()) / 1024.0, 1)
        .cell(static_cast<double>(delta.size()) / 1024.0, 1)
        .cell(static_cast<double>(dict.size()) / 1024.0, 1)
        .cell(ratio, 1)
        .cell(dict_gain, 2);

    SchedBinOptions serial;
    serial.codec = SchedBinCodec::kDelta;
    const double xml_enc = best_time([&] { (void)path_schedule_to_xml(g, sched); });
    const double xml_dec = best_time([&] { (void)path_schedule_from_xml(g, xml); });
    const double bin_enc =
        best_time([&] { (void)path_schedule_to_schedbin(g, sched, serial); });
    const double bin_dec =
        best_time([&] { (void)path_schedule_from_schedbin(g, delta); });
    // Throughput normalized by the logical payload (the XML byte count), so
    // the columns compare end-to-end schedule (de)serialization rates.
    speeds.row()
        .cell(c.name)
        .cell(mbps(xml.size(), xml_enc), 1)
        .cell(mbps(xml.size(), xml_dec), 1)
        .cell(mbps(xml.size(), bin_enc), 1)
        .cell(mbps(xml.size(), bin_dec), 1);
  }
  sizes.print(std::cout);
  std::cout << "\nworst xml/delta compression ratio: " << worst_ratio
            << (worst_ratio >= 5.0 ? "  (meets the >=5x target)" : "  (BELOW 5x!)")
            << "\nworst delta/dict gain: " << worst_dict_gain
            << (worst_dict_gain > 1.0 ? "  (dict wins everywhere)"
                                      : "  (DICT LOSES!)")
            << "\n\n=== schedule (de)serialization throughput (logical MB/s) "
               "===\n\n";
  speeds.print(std::cout);

  std::cout << "\n=== mmap chunk reads vs whole-file slurp ===\n\n";
  {
    const TempFile file("a2a_bench_mmap");
    file.write(mmap_blob);
    const double slurp_s = best_time([&] {
      const std::string bytes = slurp(file.path);
      (void)schedbin_inspect(bytes);
    });
    const double open_s = best_time(
        [&] { (void)SchedBinReader::open_file(file.path.string()); });
    const SchedBinReader reader = SchedBinReader::open_file(file.path.string());
    std::vector<std::int64_t> chunk;
    const std::uint32_t mid = reader.num_chunks() / 2;
    const double one_chunk_s = best_time([&] {
      const SchedBinReader r = SchedBinReader::open_file(file.path.string());
      std::vector<std::int64_t> local;
      r.decode_chunk(mid, local);
    });
    SchedBinReader counted = SchedBinReader::open_file(file.path.string());
    counted.decode_chunk(mid, chunk);
    Table mmap_table({"operation", "time us", "bytes touched", "of file"});
    const auto pct = [&](std::size_t n) {
      return 100.0 * static_cast<double>(n) /
             static_cast<double>(mmap_blob.size());
    };
    mmap_table.row()
        .cell("slurp + validate all")
        .cell(slurp_s * 1e6, 1)
        .cell(static_cast<long long>(mmap_blob.size()))
        .cell(100.0, 1);
    mmap_table.row()
        .cell("mmap open (hdr+trailer)")
        .cell(open_s * 1e6, 1)
        .cell(static_cast<long long>(
            SchedBinReader::open_file(file.path.string()).bytes_read()))
        .cell(pct(SchedBinReader::open_file(file.path.string()).bytes_read()), 1);
    mmap_table.row()
        .cell("mmap open + 1 chunk")
        .cell(one_chunk_s * 1e6, 1)
        .cell(static_cast<long long>(counted.bytes_read()))
        .cell(pct(counted.bytes_read()), 1);
    mmap_table.print(std::cout);
    if (counted.bytes_read() * 2 >= mmap_blob.size()) {
      std::cout << "FAIL: single-chunk mmap read touched "
                << counted.bytes_read() << " of " << mmap_blob.size()
                << " bytes\n";
      ++failures;
    }
  }

  std::cout << "\n=== ScheduleCache: repeat generate_schedule() cost ===\n\n";
  Table cache_table({"topology", "pipeline s", "cached s", "speedup"});
  ScheduleCache cache;
  for (Case& c : fig10_cases(smoke)) {
    if (c.graph.num_nodes() > 32) continue;  // keep the demo quick
    const double cold = timed(
        [&] { (void)generate_schedule(c.graph, fabric, toolchain, &cache); });
    const double warm = best_time(
        [&] { (void)generate_schedule(c.graph, fabric, toolchain, &cache); });
    cache_table.row().cell(c.name).cell(cold, 3).cell(warm, 6).cell(cold / warm, 0);
  }
  cache_table.print(std::cout);
  std::cout << "\ncache stats: " << cache.stats().hits() << " hits, "
            << cache.stats().misses << " misses ("
            << cache.memory_bytes() / 1024 << " KiB resident)\n";

  // The largest link artifact the benchmark workloads serve: torus 3x3x2 on
  // oneCCL under zipf:0.6 demand, pipelined into ~1.3M timed transfers.
  std::string link_leg;
  if (!smoke) {
    std::cout << "\n=== link envelope: torus 3x3x2, oneCCL, zipf:0.6 ===\n\n";
    ToolchainOptions link_options;
    link_options.workload.demand = DemandSpec::parse("zipf:0.6");
    const GeneratedSchedule link = synthesize_schedule(
        make_torus({3, 3, 2}), cpu_oneccl_fabric(), link_options);
    const std::string envelope = generated_schedule_to_bytes(link);
    const SchedBinInfo info =
        schedbin_inspect(parse_schedule_envelope(envelope).schedbin());
    const auto best_of_5 = [](auto&& fn) {
      double best = 1e30;
      for (int rep = 0; rep < 5; ++rep) best = std::min(best, timed(fn));
      return best;
    };
    const double encode_s =
        best_of_5([&] { (void)generated_schedule_to_bytes(link); });
    const double decode_s =
        best_of_5([&] { (void)generated_schedule_from_bytes(envelope); });
    Table link_table({"transfers", "chunks", "frame bytes", "encode s",
                      "decode s"});
    link_table.row()
        .cell(static_cast<long long>(link.link->transfers.size()))
        .cell(static_cast<long long>(info.num_chunks))
        .cell(static_cast<long long>(info.total_bytes))
        .cell(encode_s, 4)
        .cell(decode_s, 4);
    link_table.print(std::cout);
    std::ostringstream js;
    js << ",\n  \"link_torus18_zipf06\": {\"transfers\": "
       << link.link->transfers.size() << ", \"chunks\": " << info.num_chunks
       << ", \"frame_bytes\": " << info.total_bytes
       << ", \"envelope_bytes\": " << envelope.size()
       << ", \"encode_best_of_5_s\": " << encode_s
       << ", \"decode_best_of_5_s\": " << decode_s << "}";
    link_leg = js.str();
  }

  if (!json_path.empty()) {
    std::ostringstream js;
    js << "{\n  \"benchmark\": \"bench_container\",\n  \"mode\": \""
       << (smoke ? "smoke" : "full")
       << "\",\n  \"worst_xml_delta_ratio\": " << worst_ratio
       << ",\n  \"worst_delta_dict_gain\": " << worst_dict_gain
       << link_leg
       << ",\n  \"cache_hits\": " << cache.stats().hits()
       << ",\n  \"cache_misses\": " << cache.stats().misses
       << ",\n  \"failures\": " << failures
       << ",\n  \"metrics\": " << metrics_snapshot_json() << "\n}\n";
    append_bench_record(json_path, js.str());
  }

  if (smoke) {
    std::cout << (failures == 0 ? "\nSMOKE OK\n" : "\nSMOKE FAILED\n");
  }
  return failures == 0 ? 0 : 1;
}
