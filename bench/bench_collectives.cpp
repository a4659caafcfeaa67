// Weighted-demand & collective-lowering bench: synthesis cost and simulated
// completion as the workload departs from uniform all-to-all.
//
// Sweeps GenKautz(27,4) (exact master) and GenKautz(64,4) (FPTAS master —
// N=64 is past the exact-master limit) over Zipf demand skews
// s in {0, 0.6, 1.2} plus the lowered collectives (reduce-scatter,
// all-gather, allreduce). Every schedule is validated against its effective
// demand matrix before timing counts.
//
//   bench_collectives [--smoke] [--json PATH]
//
// --smoke is the CI gate: GenKautz(27,4) only, and it additionally asserts
// the weight-1 contract — a zipf:0 workload (non-default spec, unit weights)
// must reproduce the default uniform pipeline byte-for-byte. --json PATH
// appends a BENCH_collectives.json record; without it nothing is written.
#include <cstring>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "collectives/collective.hpp"
#include "core/api.hpp"
#include "graph/topologies.hpp"
#include "runtime/ct_simulator.hpp"
#include "schedule/validate.hpp"
#include "schedule/xml_io.hpp"

namespace a2a {
namespace {

using bench::timed;

// Half a coarse-chunking grid cell (1/12 of a shard) plus slack: the bench
// compiles on the N=27-scale grid, so snapped route weights can sit up to
// 1/24 from the real-valued demand.
constexpr double kCoarseDemandTol = 4.5e-2;

struct WorkloadCase {
  std::string label;
  WorkloadSpec workload;
};

std::vector<WorkloadCase> workload_cases(bool include_collectives) {
  std::vector<WorkloadCase> cases;
  for (const double s : {0.0, 0.6, 1.2}) {
    WorkloadCase c;
    std::ostringstream label;
    label << "a2a/zipf:" << s;
    c.label = label.str();
    c.workload.demand.kind = DemandSpec::Kind::kZipf;
    c.workload.demand.zipf_s = s;
    cases.push_back(std::move(c));
  }
  if (include_collectives) {
    for (const CollectiveKind kind :
         {CollectiveKind::kReduceScatter, CollectiveKind::kAllGather,
          CollectiveKind::kAllReduce}) {
      WorkloadCase c;
      c.label = std::string(collective_name(kind)) + "/uniform";
      c.workload.collective = kind;
      cases.push_back(std::move(c));
    }
    WorkloadCase skewed_rs;
    skewed_rs.label = "rs/zipf:1.2";
    skewed_rs.workload.collective = CollectiveKind::kReduceScatter;
    skewed_rs.workload.demand.kind = DemandSpec::Kind::kZipf;
    skewed_rs.workload.demand.zipf_s = 1.2;
    cases.push_back(std::move(skewed_rs));
  }
  return cases;
}

struct CaseResult {
  std::string label;
  double synth_s = 0.0;
  double concurrent_flow = 0.0;
  double total_demand = 0.0;
  bool valid = false;
  double sim_s = 0.0;
  double algo_GBps = 0.0;
  long long num_flows = 0;
};

CaseResult run_case(const DiGraph& g, const Fabric& fabric,
                    const WorkloadCase& wc) {
  ToolchainOptions options;
  options.chunking = bench::coarse_chunking();
  options.workload = wc.workload;
  CaseResult out;
  out.label = wc.label;
  GeneratedSchedule result;
  out.synth_s = timed([&] { result = generate_schedule(g, fabric, options); });
  out.concurrent_flow = result.concurrent_flow;
  const int n = static_cast<int>(result.terminals.size());
  const DemandMatrix demand = effective_demand(options.workload, n);
  out.total_demand = demand.total();
  if (result.path.has_value()) {
    out.valid = validate_path_schedule(result.schedule_graph, *result.path,
                                       result.terminals, &demand,
                                       kCoarseDemandTol)
                    .ok;
    const CtSimResult sim =
        simulate_path_schedule(g, *result.path, 1 << 20, n, fabric);
    out.sim_s = sim.seconds;
    out.algo_GBps = sim.algo_throughput_GBps;
    out.num_flows = sim.num_flows;
  } else if (result.link.has_value()) {
    out.valid = validate_link_schedule(result.schedule_graph, *result.link,
                                       result.terminals, &demand,
                                       kCoarseDemandTol)
                    .ok;
  }
  return out;
}

void print_leg(const std::string& title, const std::vector<CaseResult>& rows) {
  std::cout << "\n--- " << title << " ---\n";
  Table table({"workload", "synth_s", "F", "demand", "valid", "sim_ms",
               "algo_GBps", "flows"});
  for (const CaseResult& r : rows) {
    table.row()
        .cell(r.label)
        .cell(r.synth_s, 3)
        .cell(r.concurrent_flow, 4)
        .cell(r.total_demand, 1)
        .cell(r.valid ? "yes" : "NO")
        .cell(r.sim_s * 1e3, 3)
        .cell(r.algo_GBps, 2)
        .cell(r.num_flows);
  }
  table.print(std::cout);
}

void leg_json(std::ostringstream& js, const std::vector<CaseResult>& rows) {
  js << "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CaseResult& r = rows[i];
    js << "{\"workload\": \"" << r.label << "\", \"synth_seconds\": "
       << r.synth_s << ", \"concurrent_flow\": " << r.concurrent_flow
       << ", \"total_demand\": " << r.total_demand << ", \"valid\": "
       << (r.valid ? "true" : "false") << ", \"sim_seconds\": " << r.sim_s
       << ", \"algo_GBps\": " << r.algo_GBps << ", \"num_flows\": "
       << r.num_flows << "}" << (i + 1 < rows.size() ? ", " : "");
  }
  js << "]";
}

/// The smoke gate's weight-1 contract: zipf:0 (a non-default workload that
/// lowers to unit weights) must reproduce the default pipeline bit-for-bit.
bool weight_one_matches_uniform(const DiGraph& g, const Fabric& fabric) {
  ToolchainOptions base;
  base.chunking = bench::coarse_chunking();
  ToolchainOptions unit = base;
  unit.workload.demand.kind = DemandSpec::Kind::kZipf;
  unit.workload.demand.zipf_s = 0.0;
  const GeneratedSchedule a = generate_schedule(g, fabric, base);
  const GeneratedSchedule b = generate_schedule(g, fabric, unit);
  if (a.concurrent_flow != b.concurrent_flow) return false;
  if (a.path.has_value() != b.path.has_value()) return false;
  if (a.path.has_value()) {
    return path_schedule_to_xml(a.schedule_graph, *a.path) ==
           path_schedule_to_xml(b.schedule_graph, *b.path);
  }
  if (a.link.has_value() != b.link.has_value()) return false;
  return !a.link.has_value() ||
         link_schedule_to_xml(*a.link) == link_schedule_to_xml(*b.link);
}

}  // namespace
}  // namespace a2a

int main(int argc, char** argv) {
  using namespace a2a;
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }

  std::cout << "=== Collectives: synthesis + completion vs demand skew ===\n";
  const Fabric fabric = hpc_cerio_fabric();
  bool failed = false;

  // ---- leg 1: GenKautz(27,4), exact master ------------------------------
  const DiGraph g27 = make_generalized_kautz(27, 4);
  std::cout << "\n" << g27.summary() << "\n";
  std::vector<CaseResult> rows27;
  {
    std::vector<WorkloadCase> cases = workload_cases(/*include_collectives=*/true);
    if (smoke) {
      // CI subset: one skewed all-to-all, one lowered collective.
      std::vector<WorkloadCase> subset;
      for (WorkloadCase& c : cases) {
        if (c.label == "a2a/zipf:1.2" || c.label == "rs/uniform") {
          subset.push_back(std::move(c));
        }
      }
      cases = std::move(subset);
    }
    for (const WorkloadCase& wc : cases) {
      rows27.push_back(run_case(g27, fabric, wc));
      if (!rows27.back().valid) {
        std::cerr << "FAIL: " << rows27.back().label
                  << " did not validate against its demand matrix\n";
        failed = true;
      }
      if (rows27.back().concurrent_flow <= 0.0) {
        std::cerr << "FAIL: " << rows27.back().label << " has F <= 0\n";
        failed = true;
      }
    }
  }
  print_leg("GenKautz(27,4)", rows27);

  // Weight-1 golden gate (always run: it is the cheap half of the contract).
  const bool unit_ok = weight_one_matches_uniform(g27, fabric);
  std::cout << "\nweight-1 byte-identity vs uniform: "
            << (unit_ok ? "ok" : "MISMATCH") << "\n";
  if (!unit_ok) {
    std::cerr << "FAIL: zipf:0 workload diverged from the uniform pipeline\n";
    failed = true;
  }

  // ---- leg 2: GenKautz(64,4), FPTAS master (full runs only) -------------
  std::vector<CaseResult> rows64;
  if (!smoke) {
    const DiGraph g64 = make_generalized_kautz(64, 4);
    std::cout << "\n" << g64.summary() << "\n";
    for (const WorkloadCase& wc : workload_cases(/*include_collectives=*/false)) {
      rows64.push_back(run_case(g64, fabric, wc));
      if (!rows64.back().valid) {
        std::cerr << "FAIL: N=64 " << rows64.back().label
                  << " did not validate against its demand matrix\n";
        failed = true;
      }
    }
    print_leg("GenKautz(64,4)", rows64);
  }

  // ---- JSON record ------------------------------------------------------
  if (!json_path.empty()) {
    std::ostringstream js;
    js << "{\n  \"benchmark\": \"bench_collectives\",\n  \"mode\": \""
       << (smoke ? "smoke" : "full")
       << "\",\n  \"weight_one_byte_identical\": "
       << (unit_ok ? "true" : "false") << ",\n  \"genkautz27\": ";
    leg_json(js, rows27);
    if (!rows64.empty()) {
      js << ",\n  \"genkautz64\": ";
      leg_json(js, rows64);
    }
    js << ",\n  \"metrics\": " << bench::metrics_snapshot_json() << "\n}\n";
    bench::append_bench_record(json_path, js.str());
  }

  if (failed) return 1;
  std::cout << "\nAll collective gates passed.\n";
  return 0;
}
