// Synthesis workloads (topology -> validated schedule) and the stage-by-
// stage replay of the Fig. 1 flow that splits their time by layer.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "collectives/collective.hpp"
#include "common.hpp"
#include "container/schedbin.hpp"
#include "core/api.hpp"
#include "core/schedule_cache.hpp"
#include "graph/augment.hpp"
#include "graph/topologies.hpp"
#include "mcf/bounds.hpp"
#include "mcf/decomposed.hpp"
#include "mcf/path_mcf.hpp"
#include "runtime/ct_simulator.hpp"
#include "runtime/sf_simulator.hpp"
#include "runtime/vc.hpp"
#include "schedule/compile_link.hpp"
#include "schedule/compile_path.hpp"
#include "schedule/validate.hpp"
#include "service/broker.hpp"

namespace a2a::e2e {

/// One synthesis request: what a user hands the toolchain.
struct SynthInput {
  DiGraph topology;
  Fabric fabric;
  ToolchainOptions options;
};

/// Fig. 1 path branch with the exact pMCF LP: the LP does ~99% of the work.
inline SynthInput pmcf_gk27_input() {
  return SynthInput{make_generalized_kautz(27, 4), hpc_cerio_fabric(), {}};
}

/// Fig. 1 link branch: host-bottleneck augmentation, decomposed MCF, and a
/// pipelined unroll into a 12 MB artifact, so schedule and container
/// dominate while the LP is small.
inline SynthInput link_torus18_input() {
  SynthInput in{make_torus({3, 3, 2}), cpu_oneccl_fabric(), {}};
  in.options.workload.demand = DemandSpec::parse("zipf:0.6");
  return in;
}

// ------------------------------------------------------------- quality ---

/// Shard size of the simulated throughput (the paper's headline number).
inline constexpr double kShardBytes = 1 << 20;

/// The workload's demand over `terminals` terminals; nullopt for uniform
/// all-to-all, whose validators and bounds take the unit form.
inline std::optional<DemandMatrix> workload_demand(const WorkloadSpec& workload,
                                                   std::size_t terminals) {
  if (workload.is_default()) return std::nullopt;
  return effective_demand(workload, static_cast<int>(terminals));
}

/// Theorem-1 lower bound on 1/F over `terminals` of `g`.
inline double time_lower_bound(const DiGraph& g,
                               const std::vector<NodeId>& terminals,
                               const DemandMatrix* demand) {
  if (demand != nullptr) return collective_time_lower_bound(g, terminals, *demand);
  return collective_time_lower_bound(
      g, terminals, DemandMatrix::uniform(static_cast<int>(terminals.size())));
}

/// Achieved F over the best F the bound allows (1 = optimal).
inline double bound_ratio(const GeneratedSchedule& s, const DemandMatrix* demand) {
  return s.concurrent_flow * time_lower_bound(s.schedule_graph, s.terminals, demand);
}

inline double simulated_GBps(const GeneratedSchedule& s, const Fabric& fabric) {
  const int n = static_cast<int>(s.terminals.size());
  if (s.link) {
    return simulate_link_schedule(s.schedule_graph, *s.link, kShardBytes, n,
                                  fabric)
        .algo_throughput_GBps;
  }
  return simulate_path_schedule(s.schedule_graph, *s.path, kShardBytes, n, fabric)
      .algo_throughput_GBps;
}

inline ValidationResult validate_generated(const GeneratedSchedule& s,
                                           const DemandMatrix* demand) {
  if (s.link) {
    return validate_link_schedule(s.schedule_graph, *s.link, s.terminals, demand);
  }
  if (s.path) {
    return validate_path_schedule(s.schedule_graph, *s.path, s.terminals, demand);
  }
  ValidationResult r;
  r.fail("schedule holds neither a link nor a path schedule");
  return r;
}

/// Checks that `bytes` is a SchedBin frame whose header and trailer CRCs
/// hold. Returns "" when they do.
inline std::string schedbin_problem(std::string_view bytes) {
  try {
    (void)SchedBinReader::from_bytes(bytes);
    return "";
  } catch (const std::exception& e) {
    return e.what();
  }
}

// ------------------------------------------------------------ operation ---

/// A validated, servable artifact: the output of one synthesis operation.
struct SynthOp {
  GeneratedSchedule schedule;
  std::string bytes;  ///< the cache envelope, as stored and served.
  ValidationResult validation;
};

/// topology -> schedule -> demand-aware validation -> bytes: what synth_s
/// times on the synthesis workloads.
inline SynthOp synthesize_artifact(const SynthInput& in) {
  SynthOp op;
  op.schedule = synthesize_schedule(in.topology, in.fabric, in.options);
  const auto demand =
      workload_demand(in.options.workload, op.schedule.terminals.size());
  op.validation = validate_generated(op.schedule, demand ? &*demand : nullptr);
  op.bytes = generated_schedule_to_bytes(op.schedule);
  return op;
}

// --------------------------------------------------------------- replay ---

/// synthesize_schedule() replayed stage by stage through public calls, each
/// stage timed into `layers` under its per-layer metric name. It covers the
/// branches the workloads take (pMCF on disjoint paths with the exact or
/// FPTAS master; the decomposed link branch) and throws on the others.
inline GeneratedSchedule replay_synthesis(const SynthInput& in,
                                          LayerSamples& layers) {
  const DiGraph& topology = in.topology;
  const Fabric& fabric = in.fabric;
  const ToolchainOptions& options = in.options;
  GeneratedSchedule out;
  const int n = topology.num_nodes();

  std::optional<DemandMatrix> demand_storage;
  const auto resolve_demand =
      [&](const std::vector<NodeId>& terminals) -> const DemandMatrix* {
    if (options.workload.is_default()) return nullptr;
    demand_storage = stage(layers, "bench.collectives", "collectives.demand_s", [&] {
      return effective_demand(options.workload, static_cast<int>(terminals.size()));
    });
    out.notes += "workload " + options.workload.to_string() + "; ";
    return &*demand_storage;
  };

  if (!fabric.nic_forwarding) {
    DiGraph graph = topology;
    std::vector<NodeId> terminals = all_nodes(topology);
    if (fabric.injection_GBps < topology.max_out_degree() * fabric.link_GBps) {
      const AugmentedGraph aug = stage(layers, "bench.graph", "graph.augment_s", [&] {
        return augment_host_bottleneck(topology,
                                       fabric.injection_GBps / fabric.link_GBps);
      });
      graph = aug.graph;
      terminals.resize(static_cast<std::size_t>(aug.num_hosts));
      out.notes += "host-bottleneck augmentation applied; ";
    }
    const DemandMatrix* demand = resolve_demand(terminals);
    if (n <= options.exact_tsmcf_limit) {
      throw std::runtime_error("replay covers the decomposed link branch only");
    }
    DecomposedTiming timing;
    const LinkFlowSolution flows = stage(layers, "bench.mcf", "mcf.solve_s", [&] {
      return solve_decomposed_mcf(graph, terminals, options.mcf, &timing, nullptr,
                                  demand);
    });
    layers["mcf.master_s"].add(timing.master_seconds);
    layers["mcf.children_s"].add(timing.child_seconds);
    const auto commodity_paths = stage(layers, "bench.mcf", "mcf.extract_s", [&] {
      return paths_from_link_flows(graph, flows, demand);
    });
    UnrollOptions uo;
    uo.chunking = options.chunking;
    out.kind = ScheduleKind::kLinkUnrolled;
    out.link = stage(layers, "bench.schedule", "schedule.compile_s", [&] {
      return unroll_rate_schedule(graph, commodity_paths, uo);
    });
    out.concurrent_flow = flows.concurrent_flow;
    out.notes += "decomposed MCF + pipelined unroll";
    out.terminals = terminals;
    out.schedule_graph = graph;
    return out;
  }

  const std::vector<NodeId> terminals = all_nodes(topology);
  const DemandMatrix* demand = resolve_demand(terminals);
  const long long diversity = stage(layers, "bench.graph", "graph.path_diversity_s",
                                    [&] { return estimate_path_diversity(topology); });
  if (diversity > options.path_diversity_threshold) {
    throw std::runtime_error("replay covers the pMCF path branch only");
  }
  const PathSet candidates = stage(layers, "bench.graph", "graph.disjoint_paths_s", [&] {
    return build_disjoint_path_set(topology, terminals, demand);
  });
  PathSchedule schedule;
  if (n <= options.mcf.exact_master_limit) {
    const PathMcfSolution sol = stage(layers, "bench.lp", "mcf.solve_s", [&] {
      return solve_path_mcf_exact(topology, candidates, options.mcf.lp);
    });
    schedule = stage(layers, "bench.schedule", "schedule.compile_s", [&] {
      return compile_path_schedule(topology, candidates, sol.weights,
                                   options.chunking);
    });
    out.concurrent_flow = sol.concurrent_flow;
  } else {
    FleischerOptions fo = options.mcf.fptas;
    fo.epsilon = options.mcf.fptas_epsilon;
    const auto t0 = Clock::now();
    const PathFlowSolution sol = stage(layers, "bench.mcf", "mcf.fptas_s", [&] {
      return fleischer_paths(topology, candidates, fo);
    });
    layers["mcf.solve_s"].add(seconds_since(t0));
    schedule = stage(layers, "bench.schedule", "schedule.compile_s", [&] {
      return compile_path_schedule(topology, candidates, sol.weights,
                                   options.chunking);
    });
    out.concurrent_flow = sol.concurrent_flow;
  }
  out.kind = ScheduleKind::kPathPMcf;
  out.notes += "pMCF on link-disjoint candidates";
  out.vc_layers = stage(layers, "bench.runtime", "vc.assign_s", [&] {
    return assign_layers(topology, schedule, VcOrdering::kShortestFirst);
  });
  if (out.vc_layers > options.vc_max_layers_warn) {
    out.notes += "; WARNING: needs " + std::to_string(out.vc_layers) + " VC layers";
  }
  out.path = std::move(schedule);
  out.terminals = terminals;
  out.schedule_graph = topology;
  return out;
}

/// Schedule shape counts of one artifact.
inline void add_shape(LayerSamples& layers, const SynthOp& op) {
  const GeneratedSchedule& s = op.schedule;
  double steps = 0.0, transfers = 0.0, chunks = 0.0;
  if (s.link) {
    steps = s.link->num_steps;
    transfers = static_cast<double>(s.link->transfers.size());
    for (const Transfer& t : s.link->transfers) chunks += t.from == t.chunk.src;
  } else if (s.path) {
    transfers = static_cast<double>(s.path->entries.size());
    chunks = static_cast<double>(s.path->total_chunks());
  }
  layers["schedule.steps"].add(steps);
  layers["schedule.transfers"].add(transfers);
  layers["schedule.chunks"].add(chunks);
  layers["vc.layers"].add(s.vc_layers);
  layers["container.bytes"].add(static_cast<double>(op.bytes.size()));
}

/// A replayed synthesis finished like synthesize_artifact(), with the
/// validate, encode and fingerprint stages timed too.
inline SynthOp replay_artifact(const SynthInput& in, LayerSamples& layers) {
  SynthOp op;
  op.schedule = replay_synthesis(in, layers);
  const auto demand =
      workload_demand(in.options.workload, op.schedule.terminals.size());
  op.validation = stage(layers, "bench.schedule", "schedule.validate_s", [&] {
    return validate_generated(op.schedule, demand ? &*demand : nullptr);
  });
  op.bytes = stage(layers, "bench.container", "container.encode_s",
                   [&] { return generated_schedule_to_bytes(op.schedule); });
  stage(layers, "bench.core", "core.fingerprint_s", [&] {
    return schedule_fingerprint(in.topology, in.fabric, in.options);
  });
  add_shape(layers, op);
  return op;
}

/// The replay-equivalence gate: the staged replay must reproduce the
/// pipeline's F bit for bit and its SchedBin frame byte for byte, or its
/// stage times describe some other computation. "" when equivalent.
inline std::string replay_mismatch(const SynthOp& replay, const SynthOp& reference) {
  if (replay.schedule.concurrent_flow != reference.schedule.concurrent_flow) {
    return "replay F " + json_number(replay.schedule.concurrent_flow) +
           " != synthesize_schedule F " +
           json_number(reference.schedule.concurrent_flow);
  }
  const std::string_view a = parse_schedule_envelope(replay.bytes).schedbin();
  const std::string_view b = parse_schedule_envelope(reference.bytes).schedbin();
  if (a != b) {
    return "replay SchedBin frame (" + std::to_string(a.size()) +
           " bytes) differs from synthesize_schedule's (" +
           std::to_string(b.size()) + " bytes)";
  }
  return "";
}

// ------------------------------------------------------------- workload ---

/// Runs a synthesis workload on one fixed topology; the seed does not
/// change the input.
///
/// Each operation is a request that needs synthesis: the schedule is
/// synthesized, validated against its demand and encoded (synth_s, miss_*).
/// The request mix around it is assumed, not measured: the job that asked
/// has one rank per terminal and every other rank asks for the same
/// schedule, so each operation is followed by N-1 repeat requests, served by
/// the in-process ScheduleBroker that the service runs behind its socket
/// (hit_*).
inline void run_synthesis(const RunConfig& cfg, const SynthInput& in, Result& r) {
  const std::string fingerprint =
      schedule_fingerprint(in.topology, in.fabric, in.options);
  const double seconds = cfg.smoke ? 0.0 : cfg.seconds;  // smoke: one operation.

  // Set-up: a fresh disk-tier cache and broker, and one warm-up operation
  // whose artifact is stored; its bytes are the reference every later
  // operation and hit must reproduce.
  Samples setup, probes, setup_wall, synth_wall;
  std::unique_ptr<service::ScheduleBroker> broker;
  std::unique_ptr<ScheduleCache> cache;
  std::unique_ptr<ScratchDir> dir;
  std::string reference;
  std::size_t ranks = 0;
  for (int i = 0; i < cfg.setups(); ++i) {
    broker.reset();
    cache.reset();
    dir.reset();
    ProbeBracket bracket(probes);
    SynthOp warm;
    const double wall = timed([&] {
      dir = std::make_unique<ScratchDir>(cfg.tmp_dir, cfg.workload);
      ScheduleCacheOptions options;
      options.disk_dir = dir->sub("cache");
      cache = std::make_unique<ScheduleCache>(options);
      broker = std::make_unique<service::ScheduleBroker>(cache.get(), nullptr);
      warm = synthesize_artifact(in);
      reference = *cache->insert(fingerprint, warm.schedule);
    });
    setup_wall.add(wall);
    setup.add(normalized(wall, bracket.end()));
    ranks = warm.schedule.terminals.size();
    r.attempted();
    if (!warm.validation.ok) r.check_failed("warm-up schedule does not validate");
    if (warm.bytes != reference) r.check_failed("stored artifact differs from encoded");
  }

  SynthOp last;
  // One round is an operation and its repeat requests, between two probes;
  // every timing of the round is normalized by their mean.
  const auto run_phase = [&](double seconds, Samples& synth, Samples& hit) {
    const auto t0 = Clock::now();
    do {
      ProbeBracket bracket(probes);
      double synth_s = 0.0;
      {
        SynthOp op;
        {
          obs::TraceSpan span("bench.core", "synthesize+validate+encode");
          synth_s = timed([&] { op = synthesize_artifact(in); });
        }
        last = std::move(op);  // frees the previous artifact outside the timing.
      }
      std::vector<service::BrokerResult> served(ranks > 0 ? ranks - 1 : 0);
      std::vector<double> hit_s;
      for (service::BrokerResult& res : served) {
        obs::TraceSpan span("bench.service", "broker hit");
        hit_s.push_back(
            timed([&] { res = broker->request(in.topology, in.fabric, in.options); }));
      }
      const double probe_s = bracket.end();
      synth_wall.add(synth_s);
      synth.add(normalized(synth_s, probe_s));
      for (const double s : hit_s) hit.add(normalized(s, probe_s));
      // Checked after the requests, so that reading megabytes of artifact
      // neither takes their time nor cools their caches.
      r.attempted();
      if (!last.validation.ok) {
        r.check_failed("schedule does not validate: " +
                       (last.validation.errors.empty() ? std::string("?")
                                                       : last.validation.errors[0]));
      }
      if (last.bytes != reference) r.check_failed("artifact differs from the first serve");
      for (const service::BrokerResult& res : served) {
        r.attempted();
        if (!res.hit) {
          r.failed("repeat request was not served as a hit");
        } else if (const std::string why = schedbin_problem(res.view.schedbin());
                   !why.empty()) {
          r.check_failed("served frame: " + why);
        } else if (res.view.envelope != reference) {
          r.check_failed("served artifact differs from the first serve");
        }
      }
    } while (seconds_since(t0) < seconds);
  };

  if (!cfg.traced()) {
    Samples synth, hit;
    run_phase(seconds, synth, hit);
    // Read before the quality pass below, whose simulation is the
    // benchmark's work, not the system's. Every operation served the same
    // bytes, so the last one stands for all.
    r.set("peak_rss_MB", peak_rss_mb());
    const auto demand =
        workload_demand(in.options.workload, last.schedule.terminals.size());
    r.set("bound_ratio", bound_ratio(last.schedule, demand ? &*demand : nullptr));
    r.set("algo_GBps", simulated_GBps(last.schedule, in.fabric));
    r.set("setup_s", setup.median());
    // Every operation repeats the one request of its job that needs
    // synthesis, so the miss latencies are the operation times. A run holds
    // too few operations for a p90 with 10 beyond it, so miss_p90_s reports
    // the highest percentile they support, the median.
    r.set("synth_s", synth.median());
    r.set("miss_p50_s", synth.median());
    set_percentile(r, "miss_p90_s", synth, 0.9);
    r.set("hit_p50_s", hit.median());
    r.samples("setup", setup.size());
    r.samples("miss", synth.size());
    r.samples("hit", hit.size());
    note_host(r, probes, {{"set-up", &setup_wall}, {"synthesis", &synth_wall}});
    return;
  }

  // Traced run: half the time untraced, half under a session, then the
  // staged replay whose per-stage times are the per-layer numbers.
  Samples synth_untraced, synth_traced, hit_untraced, hit_traced;
  run_phase(seconds / 2, synth_untraced, hit_untraced);
  obs::TraceSession session;
  const RegistryDelta delta;
  run_phase(seconds / 2, synth_traced, hit_traced);
  LayerSamples layers;
  const int replays = cfg.smoke ? 1 : 3;
  for (int i = 0; i < replays; ++i) {
    const SynthOp replay = replay_artifact(in, layers);
    r.attempted();
    if (!replay.validation.ok) r.check_failed("replayed schedule does not validate");
    if (const std::string why = replay_mismatch(replay, last); !why.empty()) {
      r.withhold_metrics("replay-equivalence gate: " + why);
    }
  }
  // The hit path's layers: the broker's fast path behind the fingerprint
  // that replay_artifact() timed.
  for (std::size_t rank = 1; rank < ranks; ++rank) {
    r.attempted();
    if (!stage(layers, "bench.service", "broker.try_lookup_s",
               [&] { return broker->try_lookup(fingerprint); })) {
      r.failed("stored artifact not found");
    }
  }
  session.stop();
  const double ops = static_cast<double>(synth_traced.size() + replays);
  set_medians(r, layers);
  r.set("lp.solves", delta.count("lp.solves") / ops);
  r.set("lp.iterations", delta.count("lp.iterations") / ops);
  r.set("lp.refactorizations", delta.count("lp.refactorizations") / ops);
  r.set("lp.ft_updates", delta.count("lp.ft_updates") / ops);
  r.set("lp.solve_s", delta.sum_s("lp.solve.seconds") / ops);
  r.set("pool.tasks", delta.count("pool.tasks") / ops);
  r.set("obs.trace_overhead", synth_traced.median() / synth_untraced.median() - 1.0);
  r.samples("synth_untraced", synth_untraced.size());
  r.samples("synth_traced", synth_traced.size());
  r.samples("replay", static_cast<std::size_t>(replays));
  r.samples("hit_traced", hit_traced.size());
  write_trace_outputs(cfg, session, r);
}

}  // namespace a2a::e2e
