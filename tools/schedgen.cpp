// a2a-schedgen — the command-line front end an operator would actually run:
// build a topology, pick a fabric, synthesize the all-to-all schedule, and
// emit the §4 XML or a SchedBin binary artifact (plus a human-readable
// report) to stdout or a file.
//
//   schedgen --topology torus3d --dims 3x3x3 --fabric cerio -o sched.xml
//   schedgen --topology genkautz --nodes 64 --degree 4 --fabric gpu
//   schedgen --topology hypercube --dim 3 --fabric oneccl --report-only
//   schedgen --topology ring --nodes 8 --format schedbin -o sched.schedbin
//   schedgen --topology ring --nodes 8 --cache-dir /var/cache/a2a -o s.xml
//   schedgen --topology ring --nodes 8 --convert sched.xml sched.schedbin
//   schedgen --format schedbin --codec dict --convert in.schedbin out.schedbin
//   schedgen --inspect sched.schedbin [--mmap]
//   schedgen --topology genkautz --nodes 27 --failure-domain /var/lib/a2a/fo
//   schedgen --topology genkautz --nodes 27 --inject e12,e40 --deadline-ms 250
//
// Repeat invocations with --cache-dir are served from the on-disk schedule
// cache and skip the LP/MCF pipeline entirely.
//
// Exit code 0 on success; diagnostics on stderr.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "common/mmap_file.hpp"
#include "common/table.hpp"
#include "container/schedbin.hpp"
#include "core/api.hpp"
#include "core/schedule_cache.hpp"
#include "failover/manager.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/request.hpp"
#include "schedule/stats.hpp"
#include "schedule/validate.hpp"
#include "schedule/xml_io.hpp"

namespace {

using namespace a2a;

struct Args {
  std::string topology = "torus3d";
  std::string dims = "3x3x3";
  int nodes = 64;
  int degree = 4;
  int dim = 3;
  std::uint64_t seed = 1;
  std::string fabric = "cerio";
  std::string output;
  std::string format = "xml";  // xml | schedbin
  std::string codec = "delta";
  std::string cache_dir;
  std::string convert_in;
  std::string convert_out;
  std::string inspect;
  std::string trace_file;
  std::string metrics_file;
  std::string failure_domain_dir;
  std::string inject;
  std::string collective = "a2a";
  std::string demand = "uniform";
  double deadline_ms = 250.0;
  bool stats = false;
  bool report_only = false;
  bool mmap = false;
  bool schedbin_v1 = false;
};

void usage() {
  std::cerr <<
      "usage: schedgen [options]\n"
      "  --topology NAME   torus3d|torus2d|hypercube|twisted|bipartite|ring|\n"
      "                    genkautz|debruijn|xpander|randomregular|dragonfly\n"
      "  --dims AxBxC      torus dimensions (torus3d)\n"
      "  --nodes N         node count (genkautz/torus2d/randomregular/ring)\n"
      "  --degree D        degree (genkautz/randomregular/xpander)\n"
      "  --dim K           dimension (hypercube/twisted/debruijn)\n"
      "  --seed S          RNG seed for randomized families\n"
      "  --fabric NAME     cerio|gpu|oneccl\n"
      "  --collective NAME a2a|rs|ag|allreduce (default: a2a)\n"
      "  --demand SPEC     uniform|zipf:<s>|perm[:<seed>]|block:<k>\n"
      "                    (default: uniform)\n"
      "  --output FILE     write the schedule here (default: stdout)\n"
      "  --format FMT      xml|schedbin (default: xml)\n"
      "  --codec NAME      schedbin codec: raw|rle|delta|dict (default: delta)\n"
      "  --schedbin-v1     write SchedBin format v1 (no trailer/dict/metadata)\n"
      "  --cache-dir DIR   serve repeat requests from a schedule cache here\n"
      "  --convert IN OUT  convert between formats. xml<->schedbin is inferred\n"
      "                    from content (path schedules need the topology\n"
      "                    flags); a schedbin input with --format schedbin is\n"
      "                    transcoded losslessly to the requested codec/\n"
      "                    version, carrying the frame metadata through\n"
      "  --inspect FILE    print a SchedBin container's header, metadata and\n"
      "                    chunk directory, then exit\n"
      "  --mmap            read --inspect/--convert input via mmap instead\n"
      "                    of slurping (--inspect reports the bytes read)\n"
      "  --failure-domain DIR  enumerate the topology's failure domain\n"
      "                    (every single link/node + spectral top-k link\n"
      "                    pairs), batch-synthesize fallback schedules, and\n"
      "                    store them in the library at DIR, then exit\n"
      "  --inject SPEC     online re-scheduling drill: fail the links/nodes\n"
      "                    of SPEC (e.g. e12,e40,n3), run the failover\n"
      "                    ladder under --deadline-ms, report the rung and\n"
      "                    timing, and emit the degraded schedule. With\n"
      "                    --cache-dir (or a prior --failure-domain DIR as\n"
      "                    --cache-dir) precomputed fallbacks are served\n"
      "  --deadline-ms M   wall-clock budget for --inject (default 250)\n"
      "  --trace FILE      record a Chrome trace_event JSON of this run\n"
      "                    (open in chrome://tracing or Perfetto)\n"
      "  --metrics FILE    write the metrics registry as flat JSON on exit\n"
      "  --stats           print a human-readable metrics table on exit\n"
      "  --report-only     print the report, skip the schedule output\n";
}

/// Topology/fabric construction is shared with the schedule service
/// (schedserved's query strings and these flags resolve through the same
/// builders, so both produce the same fingerprints).
DiGraph build_topology(const Args& args) {
  service::TopologySpec spec;
  spec.topology = args.topology;
  spec.dims = args.dims;
  spec.nodes = args.nodes;
  spec.degree = args.degree;
  spec.dim = args.dim;
  spec.seed = args.seed;
  return service::build_topology(spec);
}

Fabric build_fabric(const std::string& name) {
  return service::build_fabric(name);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  A2A_REQUIRE(in.good(), "cannot open input file: ", path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_output(const std::string& payload, const std::string& path) {
  if (path.empty()) {
    std::cout << payload;
    return;
  }
  std::ofstream out(path, std::ios::binary);
  A2A_REQUIRE(out.good(), "cannot open output file: ", path);
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  A2A_REQUIRE(out.good(), "short write to output file: ", path);
  std::cerr << "wrote " << payload.size() << " bytes to " << path << "\n";
}

bool is_schedbin(std::string_view bytes) {
  return bytes.size() >= sizeof(kSchedBinMagic) &&
         std::memcmp(bytes.data(), kSchedBinMagic, sizeof(kSchedBinMagic)) == 0;
}

SchedBinOptions bin_options_from(const Args& args) {
  SchedBinOptions options;
  options.codec = codec_from_name(args.codec);
  options.version = args.schedbin_v1 ? kSchedBinVersion1 : kSchedBinVersion2;
  return options;
}

/// Escapes control bytes for terminal output: trailer metadata is untrusted
/// container content, and printing it raw would let a hostile frame inject
/// escape sequences into the operator's terminal.
std::string printable(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const unsigned char c : s) {
    if (c >= 0x20 && c != 0x7F) {
      out.push_back(static_cast<char>(c));
    } else {
      char buf[5];
      std::snprintf(buf, sizeof buf, "\\x%02X", c);
      out += buf;
    }
  }
  return out;
}

void print_info(const SchedBinInfo& info) {
  std::cout << "schedbin v" << info.version << " "
            << (info.kind == SchedBinKind::kLink ? "link" : "path")
            << " schedule, codec=" << codec_name(info.codec)
            << "\n  nodes:   " << info.num_nodes;
  if (info.kind == SchedBinKind::kLink) {
    std::cout << "\n  steps:   " << info.num_steps;
  } else {
    std::cout << "\n  chunk_unit: " << info.chunk_unit;
  }
  std::cout << "\n  records: " << info.record_count
            << "\n  words:   " << info.word_count << " (" << info.num_chunks
            << " chunks of " << info.chunk_words << ")"
            << "\n  bytes:   " << info.total_bytes << " total, "
            << info.payload_bytes << " payload ("
            << (info.word_count == 0
                    ? 0.0
                    : static_cast<double>(info.payload_bytes) /
                          (static_cast<double>(info.word_count) * 8) * 100.0)
            << "% of raw words)";
  if (info.version >= kSchedBinVersion2) {
    std::cout << "\n  trailer: " << info.trailer_bytes << " bytes, dict "
              << info.dict_words << " words, " << info.metadata.size()
              << " metadata pairs";
    for (const auto& [key, value] : info.metadata) {
      std::cout << "\n    " << printable(key) << " = " << printable(value);
    }
  }
  std::cout << "\n";
}

void print_directory(const SchedBinReader& reader) {
  std::cout << "  directory:\n";
  for (std::uint32_t c = 0; c < reader.num_chunks(); ++c) {
    const auto entry = reader.chunk_entry(c);
    std::cout << "    chunk " << c << ": offset " << entry.offset << ", "
              << entry.size << " bytes, " << reader.chunk_word_count(c)
              << " words, codec " << codec_name(entry.codec) << ", crc32 "
              << std::hex << entry.crc32 << std::dec << "\n";
  }
}

/// Per-codec rollup of the chunk directory: how each chunk was actually
/// encoded (dict containers fall back per chunk when the dictionary loses)
/// and how many bytes each codec is responsible for once decoded.
void print_codec_summary(const SchedBinReader& reader) {
  const SchedBinInfo info = reader.info();
  std::uint64_t chunks_by_codec[4] = {};
  std::uint64_t stored_by_codec[4] = {};
  std::uint64_t decoded_by_codec[4] = {};
  std::uint64_t fallbacks = 0;
  for (std::uint32_t c = 0; c < reader.num_chunks(); ++c) {
    const auto entry = reader.chunk_entry(c);
    const auto i = static_cast<std::size_t>(entry.codec);
    chunks_by_codec[i] += 1;
    stored_by_codec[i] += entry.size;
    decoded_by_codec[i] += static_cast<std::uint64_t>(reader.chunk_word_count(c)) * 8;
    if (entry.codec != info.codec) ++fallbacks;
  }
  std::cout << "  codec summary:\n";
  for (std::size_t i = 0; i < 4; ++i) {
    if (chunks_by_codec[i] == 0) continue;
    std::cout << "    " << codec_name(static_cast<SchedBinCodec>(i)) << ": "
              << chunks_by_codec[i] << " chunks, " << stored_by_codec[i]
              << " bytes stored, " << decoded_by_codec[i]
              << " bytes decoded\n";
  }
  std::cout << "    fallbacks from " << codec_name(info.codec) << ": "
            << fallbacks << " of " << reader.num_chunks() << " chunks\n";
}

int run_inspect(const Args& args) {
  if (args.mmap) {
    // Zero-copy path: header + trailer only, no chunk CRC sweep. The
    // bytes-read line demonstrates how little of the file a directory
    // lookup touches.
    const SchedBinReader reader = SchedBinReader::open_file(args.inspect);
    print_info(reader.info());
    print_directory(reader);
    print_codec_summary(reader);
    std::cerr << "mmap: read " << reader.bytes_read() << " of "
              << reader.total_bytes() << " bytes\n";
    return 0;
  }
  const std::string bytes = read_file(args.inspect);
  print_info(schedbin_inspect(bytes));  // validates every chunk CRC
  const SchedBinReader reader = SchedBinReader::from_bytes(bytes);
  print_directory(reader);
  print_codec_summary(reader);
  return 0;
}

/// Format conversion. xml<->schedbin direction is inferred from the input
/// content (path schedules resolve their routes against the topology built
/// from the usual flags); a schedbin input with --format schedbin is
/// transcoded to the requested codec/version without touching the word
/// stream, carrying the source frame's metadata through losslessly instead
/// of re-deriving provenance from this invocation.
int run_convert(const Args& args) {
  std::optional<MmapFile> map;
  std::string buf;
  std::string_view input;
  if (args.mmap) {
    map.emplace(args.convert_in);
    input = map->view();
  } else {
    buf = read_file(args.convert_in);
    input = buf;
  }
  std::string output;
  if (is_schedbin(input)) {
    if (args.format == "schedbin") {
      output = schedbin_convert(input, bin_options_from(args));
      std::cerr << "schedbin -> schedbin (" << args.codec << ", v"
                << (args.schedbin_v1 ? 1 : 2)
                << (args.schedbin_v1 ? ", metadata dropped — v1 cannot carry it"
                                     : ", metadata preserved")
                << ")\n";
    } else {
      const SchedBinInfo info = schedbin_inspect(input);
      if (info.kind == SchedBinKind::kLink) {
        output = link_schedule_to_xml(link_schedule_from_schedbin(input));
      } else {
        const DiGraph g = build_topology(args);
        output = path_schedule_to_xml(g, path_schedule_from_schedbin(g, input));
      }
      std::cerr << "schedbin -> xml\n";
    }
  } else {
    const SchedBinOptions options = bin_options_from(args);
    // Peek at the XML root to pick the dialect.
    if (input.find("<linkschedule") != std::string::npos) {
      output = link_schedule_to_schedbin(link_schedule_from_xml(std::string(input)),
                                         options);
    } else if (input.find("<pathschedule") != std::string::npos) {
      const DiGraph g = build_topology(args);
      output = path_schedule_to_schedbin(
          g, path_schedule_from_xml(g, std::string(input)), options);
    } else {
      throw InvalidArgument("input is neither SchedBin nor a schedule XML: " +
                            args.convert_in);
    }
    std::cerr << "xml -> schedbin (" << args.codec << ")\n";
  }
  write_output(output, args.convert_out);
  return 0;
}

/// --failure-domain DIR: the offline half of failover. Builds the healthy
/// baseline, enumerates the failure domain, batch-synthesizes fallback
/// schedules on the shared thread pool, and leaves them in the
/// content-addressed library at DIR for --inject (or a production manager)
/// to serve in microseconds.
int run_failure_domain(const Args& args) {
  const DiGraph topo = build_topology(args);
  const Fabric fabric = build_fabric(args.fabric);
  std::cerr << "topology: " << topo.summary() << ", fabric: " << fabric.name
            << "\n";
  FailoverOptions options;
  options.library_dir = args.failure_domain_dir;
  FailoverManager mgr(topo, fabric, options);
  std::cerr << "healthy baseline: F = "
            << mgr.healthy_schedule().concurrent_flow << "\n";
  const std::vector<FailureSignature> domain = mgr.enumerate_domain();
  const PrecomputeReport report = mgr.precompute(domain);
  const ScheduleCacheStats stats = mgr.library().stats();
  Table table({"domain", "stored", "disconnected", "failed", "seconds"});
  table.row()
      .cell(static_cast<long long>(report.attempted))
      .cell(static_cast<long long>(report.stored))
      .cell(static_cast<long long>(report.skipped_disconnected))
      .cell(static_cast<long long>(report.failed))
      .cell(report.seconds, 3);
  table.print(std::cerr);
  std::cerr << "library: " << mgr.library().disk_object_count()
            << " artifacts on disk, " << stats.disk_dedups
            << " deduplicated inserts\n";
  return report.failed == 0 ? 0 : 1;
}

/// --inject SPEC: the online half. Parses the failure signature, runs the
/// reschedule ladder under the deadline, reports which rung served and how
/// long it took, and emits the degraded schedule through the normal output
/// machinery.
int run_inject(const Args& args) {
  const DiGraph topo = build_topology(args);
  const Fabric fabric = build_fabric(args.fabric);
  const FailureSignature sig = FailureSignature::parse(args.inject, topo);
  std::cerr << "topology: " << topo.summary() << ", fabric: " << fabric.name
            << "\ninjecting: " << sig.to_string() << ", deadline "
            << args.deadline_ms << " ms\n";
  FailoverOptions options;
  options.library_dir = !args.cache_dir.empty() ? args.cache_dir
                                                : args.failure_domain_dir;
  FailoverManager mgr(topo, fabric, options);
  const FailoverResult result =
      mgr.reschedule(sig, args.deadline_ms / 1000.0);
  std::cerr << "served by: " << to_string(result.rung) << " in "
            << result.elapsed_s * 1e3 << " ms (validation "
            << result.validate_s * 1e3 << " ms), F = "
            << result.schedule.concurrent_flow
            << (result.validated ? "" : " [NOT VALIDATED]") << "\n";
  if (!result.notes.empty()) std::cerr << "notes: " << result.notes << "\n";
  if (!result.validated) return 1;
  if (args.report_only || !result.schedule.path.has_value()) return 0;
  const std::string payload =
      args.format == "xml"
          ? path_schedule_to_xml(result.schedule.schedule_graph,
                                 *result.schedule.path)
          : path_schedule_to_schedbin(result.schedule.schedule_graph,
                                      *result.schedule.path,
                                      bin_options_from(args));
  write_output(payload, args.output);
  return 0;
}

void write_text_file(const std::string& payload, const std::string& path,
                     const char* what) {
  std::ofstream out(path, std::ios::binary);
  A2A_REQUIRE(out.good(), "cannot open ", what, " file: ", path);
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  A2A_REQUIRE(out.good(), "short write to ", what, " file: ", path);
  std::cerr << what << ": wrote " << payload.size() << " bytes to " << path
            << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--topology") args.topology = value();
    else if (flag == "--dims") args.dims = value();
    else if (flag == "--nodes") args.nodes = std::stoi(value());
    else if (flag == "--degree") args.degree = std::stoi(value());
    else if (flag == "--dim") args.dim = std::stoi(value());
    else if (flag == "--seed") args.seed = std::stoull(value());
    else if (flag == "--fabric") args.fabric = value();
    else if (flag == "--collective") args.collective = value();
    else if (flag == "--demand") args.demand = value();
    else if (flag == "--output" || flag == "-o") args.output = value();
    else if (flag == "--format") args.format = value();
    else if (flag == "--codec") args.codec = value();
    else if (flag == "--cache-dir") args.cache_dir = value();
    else if (flag == "--convert") {
      args.convert_in = value();
      args.convert_out = value();
    }
    else if (flag == "--inspect") args.inspect = value();
    else if (flag == "--failure-domain") args.failure_domain_dir = value();
    else if (flag == "--inject") args.inject = value();
    else if (flag == "--deadline-ms") args.deadline_ms = std::stod(value());
    else if (flag == "--trace") args.trace_file = value();
    else if (flag == "--metrics") args.metrics_file = value();
    else if (flag == "--stats") args.stats = true;
    else if (flag == "--mmap") args.mmap = true;
    else if (flag == "--schedbin-v1") args.schedbin_v1 = true;
    else if (flag == "--report-only") args.report_only = true;
    else if (flag == "--help" || flag == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      usage();
      return 2;
    }
  }

  try {
    (void)codec_from_name(args.codec);  // reject bad --codec before any work
    // The trace session spans the whole invocation (generate, validate,
    // encode, cache, convert — whatever this run does); the flush below runs
    // on every successful exit path.
    std::optional<obs::TraceSession> session;
    if (!args.trace_file.empty()) session.emplace();
    const auto finish_observability = [&] {
      if (session) {
        session->stop();
        write_text_file(session->chrome_json(), args.trace_file, "trace");
        if (session->dropped() > 0) {
          std::cerr << "trace: " << session->dropped()
                    << " events dropped (ring buffers full)\n";
        }
      }
      if (!args.metrics_file.empty()) {
        // Same export the schedserved /metrics endpoint serves.
        obs::write_metrics_json(args.metrics_file);
        std::cerr << "metrics: wrote " << args.metrics_file << "\n";
      }
      // --stats on stderr: stdout may be carrying the schedule payload.
      if (args.stats) obs::print_metrics_table(std::cerr);
    };
    if (!args.inspect.empty()) {
      const int rc = run_inspect(args);
      finish_observability();
      return rc;
    }
    if (!args.convert_in.empty()) {
      const int rc = run_convert(args);
      finish_observability();
      return rc;
    }
    if (!args.inject.empty()) {
      const int rc = run_inject(args);
      finish_observability();
      return rc;
    }
    if (!args.failure_domain_dir.empty()) {
      const int rc = run_failure_domain(args);
      finish_observability();
      return rc;
    }
    A2A_REQUIRE(args.format == "xml" || args.format == "schedbin",
                "unknown --format: ", args.format);

    const DiGraph topo = build_topology(args);
    const Fabric fabric = build_fabric(args.fabric);
    ToolchainOptions options;
    options.workload.collective = collective_from_name(args.collective);
    options.workload.demand = DemandSpec::parse(args.demand);
    std::cerr << "topology: " << topo.summary() << ", fabric: " << fabric.name
              << ", workload: " << options.workload.to_string() << "\n";

    std::optional<ScheduleCache> cache;
    if (!args.cache_dir.empty()) {
      ScheduleCacheOptions cache_options;
      cache_options.disk_dir = args.cache_dir;
      cache_options.schedbin.codec = codec_from_name(args.codec);
      cache.emplace(std::move(cache_options));
    }
    const GeneratedSchedule result =
        generate_schedule(topo, fabric, options, cache ? &*cache : nullptr);
    std::cerr << "pipeline: " << result.notes
              << (result.from_cache ? " [served from cache]" : "") << "\n";
    if (cache && cache->stats().disk_errors > 0) {
      std::cerr << "warning: could not write to cache dir " << args.cache_dir
                << "; the schedule was not cached\n";
    }
    std::cerr << "concurrent rate F = " << result.concurrent_flow
              << " (throughput bound "
              << (result.terminals.size() - 1) * result.concurrent_flow *
                     fabric.link_GBps
              << " GB/s)\n";

    SchedBinOptions bin_options = bin_options_from(args);
    if (!args.schedbin_v1) {
      // Provenance stamps carried in the v2 trailer; --convert transcodes
      // preserve them instead of re-deriving from the converting process.
      bin_options.metadata = {
          {"generator", "a2a-schedgen"},
          {"topology", args.topology},
          {"fabric", args.fabric},
          {"pipeline_invocation", std::to_string(pipeline_invocations())},
      };
    }

    // Validate against the workload's demand matrix (sized to the pipeline's
    // terminal set — hosts when augmentation ran); nullptr keeps the exact
    // unit-demand contract for the default workload.
    std::optional<DemandMatrix> demand_check;
    if (!options.workload.is_default()) {
      demand_check = effective_demand(
          options.workload, static_cast<int>(result.terminals.size()));
    }
    const DemandMatrix* demand_ptr =
        demand_check.has_value() ? &*demand_check : nullptr;

    std::string payload;
    if (result.path.has_value()) {
      const auto validation = [&] {
        A2A_TRACE_SPAN("stage.validate", "path schedule");
        return validate_path_schedule(result.schedule_graph, *result.path,
                                      result.terminals, demand_ptr);
      }();
      A2A_REQUIRE(validation.ok, "generated schedule failed validation");
      const auto stats = analyze_path_schedule(result.schedule_graph, *result.path);
      std::cerr << "routes: " << stats.num_routes << ", chunks/QPs: "
                << stats.num_chunks << ", avg hops: " << stats.avg_hops
                << ", VC layers: " << stats.vc_layers << "\n";
      payload = args.format == "xml"
                    ? path_schedule_to_xml(result.schedule_graph, *result.path)
                    : path_schedule_to_schedbin(result.schedule_graph,
                                                *result.path, bin_options);
    } else {
      const auto validation = [&] {
        A2A_TRACE_SPAN("stage.validate", "link schedule");
        return validate_link_schedule(result.schedule_graph, *result.link,
                                      result.terminals, demand_ptr);
      }();
      A2A_REQUIRE(validation.ok, "generated schedule failed validation");
      const auto stats = analyze_link_schedule(result.schedule_graph, *result.link);
      std::cerr << "steps: " << stats.num_steps << ", transfers: "
                << stats.num_transfers << ", peak scratch/rank: "
                << stats.peak_scratch_per_rank << " shards\n";
      payload = args.format == "xml"
                    ? link_schedule_to_xml(*result.link)
                    : link_schedule_to_schedbin(*result.link, bin_options);
    }
    if (!args.report_only) write_output(payload, args.output);
    finish_observability();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
