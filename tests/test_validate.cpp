#include "schedule/validate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <tuple>
#include <unordered_set>

#include "collectives/collective.hpp"
#include "collectives/demand.hpp"
#include "common/random.hpp"
#include "core/api.hpp"
#include "graph/augment.hpp"
#include "graph/topologies.hpp"
#include "mcf/concurrent_flow.hpp"
#include "mcf/decomposed.hpp"
#include "runtime/fabric.hpp"
#include "schedule/compile_link.hpp"

namespace a2a {
namespace {

Chunk whole(NodeId s, NodeId d) {
  return Chunk{s, d, Rational(0), Rational(1)};
}

TEST(Validate, AcceptsDirectExchange) {
  const DiGraph g = make_complete(3);
  LinkSchedule sched;
  sched.num_nodes = 3;
  sched.num_steps = 1;
  for (NodeId s = 0; s < 3; ++s) {
    for (NodeId d = 0; d < 3; ++d) {
      if (s != d) sched.transfers.push_back(Transfer{whole(s, d), s, d, 1});
    }
  }
  EXPECT_TRUE(validate_link_schedule(g, sched, all_nodes(g)).ok);
}

TEST(Validate, RejectsNonEdgeHop) {
  const DiGraph g = make_ring(4);
  LinkSchedule sched;
  sched.num_nodes = 4;
  sched.num_steps = 1;
  sched.transfers.push_back(Transfer{whole(0, 2), 0, 2, 1});  // chord: not a link
  const auto result = validate_link_schedule(g, sched, {0, 2});
  EXPECT_FALSE(result.ok);
}

TEST(Validate, RejectsCausalityViolation) {
  const DiGraph g = make_ring(4);
  LinkSchedule sched;
  sched.num_nodes = 4;
  sched.num_steps = 2;
  // Forwarded from 1 at the same step it arrives there.
  sched.transfers.push_back(Transfer{whole(0, 2), 0, 1, 1});
  sched.transfers.push_back(Transfer{whole(0, 2), 1, 2, 1});
  sched.transfers.push_back(Transfer{whole(2, 0), 2, 3, 1});
  sched.transfers.push_back(Transfer{whole(2, 0), 3, 0, 2});
  const auto result = validate_link_schedule(g, sched, {0, 2});
  EXPECT_FALSE(result.ok);
  // Fixing the step ordering makes it valid.
  sched.transfers[1].step = 2;
  EXPECT_TRUE(validate_link_schedule(g, sched, {0, 2}).ok);
}

TEST(Validate, RejectsMissingShard) {
  const DiGraph g = make_complete(3);
  LinkSchedule sched;
  sched.num_nodes = 3;
  sched.num_steps = 1;
  sched.transfers.push_back(Transfer{whole(0, 1), 0, 1, 1});
  const auto result = validate_link_schedule(g, sched, all_nodes(g));
  EXPECT_FALSE(result.ok);  // 5 other shards never delivered
}

TEST(Validate, RejectsOverlappingChunks) {
  const DiGraph g = make_complete(2);
  LinkSchedule sched;
  sched.num_nodes = 2;
  sched.num_steps = 1;
  sched.transfers.push_back(
      Transfer{Chunk{0, 1, Rational(0), Rational(3, 4)}, 0, 1, 1});
  sched.transfers.push_back(
      Transfer{Chunk{0, 1, Rational(1, 2), Rational(1)}, 0, 1, 1});
  sched.transfers.push_back(Transfer{whole(1, 0), 1, 0, 1});
  EXPECT_FALSE(validate_link_schedule(g, sched, all_nodes(g)).ok);
}

TEST(Validate, AcceptsChunkedMultiStep) {
  const DiGraph g = make_ring(4);
  LinkSchedule sched;
  sched.num_nodes = 4;
  sched.num_steps = 2;
  // 0 -> 2 split into halves over the two ring directions.
  const Chunk left{0, 2, Rational(0), Rational(1, 2)};
  const Chunk right{0, 2, Rational(1, 2), Rational(1)};
  sched.transfers.push_back(Transfer{left, 0, 1, 1});
  sched.transfers.push_back(Transfer{left, 1, 2, 2});
  sched.transfers.push_back(Transfer{right, 0, 3, 1});
  sched.transfers.push_back(Transfer{right, 3, 2, 2});
  sched.transfers.push_back(Transfer{whole(2, 0), 2, 1, 1});
  sched.transfers.push_back(Transfer{whole(2, 0), 1, 0, 2});
  EXPECT_TRUE(validate_link_schedule(g, sched, {0, 2}).ok);
}

TEST(ValidatePath, RejectsIncompleteWeights) {
  const DiGraph g = make_ring(4);
  PathSchedule sched;
  sched.num_nodes = 4;
  sched.chunk_unit = Rational(1, 2);
  RouteEntry r;
  r.src = 0;
  r.dst = 1;
  r.path = {g.find_edge(0, 1)};
  r.weight = 0.5;
  r.num_chunks = 1;
  sched.entries.push_back(r);
  const auto result = validate_path_schedule(g, sched, {0, 1});
  EXPECT_FALSE(result.ok);  // weights sum to 0.5 and the 1->0 commodity is missing
}

TEST(ValidatePath, AcceptsCompleteSchedule) {
  const DiGraph g = make_ring(4);
  PathSchedule sched;
  sched.num_nodes = 4;
  sched.chunk_unit = Rational(1, 2);
  auto add = [&](NodeId s, NodeId d, const Path& p, double w, int chunks) {
    RouteEntry r;
    r.src = s;
    r.dst = d;
    r.path = p;
    r.weight = w;
    r.num_chunks = chunks;
    sched.entries.push_back(r);
  };
  add(0, 2, {g.find_edge(0, 1), g.find_edge(1, 2)}, 0.5, 1);
  add(0, 2, {g.find_edge(0, 3), g.find_edge(3, 2)}, 0.5, 1);
  add(2, 0, {g.find_edge(2, 1), g.find_edge(1, 0)}, 1.0, 2);
  EXPECT_TRUE(validate_path_schedule(g, sched, {0, 2}).ok);
}

// ---- demand-aware contracts -------------------------------------------------

TEST(ValidatePath, ZeroWeightCommodityMustHaveNoRoutes) {
  const DiGraph g = make_complete(3);
  // Demand over terminals {0, 1, 2}: only 0->1 and 1->0 move bytes.
  DemandMatrix demand(3, 0.0);
  demand.set(0, 1, 1.0);
  demand.set(1, 0, 1.0);
  PathSchedule sched;
  sched.num_nodes = 3;
  sched.chunk_unit = Rational(1);
  auto add = [&](NodeId s, NodeId d) {
    RouteEntry r;
    r.src = s;
    r.dst = d;
    r.path = {g.find_edge(s, d)};
    r.weight = 1.0;
    r.num_chunks = 1;
    sched.entries.push_back(r);
  };
  add(0, 1);
  add(1, 0);
  EXPECT_TRUE(validate_path_schedule(g, sched, all_nodes(g), &demand).ok);
  // A route on a zero-demand commodity is a contract violation, not slack.
  add(0, 2);
  EXPECT_FALSE(validate_path_schedule(g, sched, all_nodes(g), &demand).ok);
  // The same schedule also fails the legacy unit-demand contract (2->*
  // shards are missing), so the overloads agree on rejection here.
  EXPECT_FALSE(validate_path_schedule(g, sched, all_nodes(g)).ok);
}

TEST(ValidatePath, ChunkCountsScaleWithCommodityWeight) {
  // Regression for the unit-demand assumption round(1/unit): a weight-3
  // commodity ships 3x the chunks of a weight-1 commodity at the same unit,
  // and the validator must demand exactly that, commodity by commodity.
  const DiGraph g = make_complete(2);
  DemandMatrix demand(2, 0.0);
  demand.set(0, 1, 3.0);
  demand.set(1, 0, 1.0);
  PathSchedule sched;
  sched.num_nodes = 2;
  sched.chunk_unit = Rational(1, 2);
  auto add = [&](NodeId s, NodeId d, double w, int chunks) {
    RouteEntry r;
    r.src = s;
    r.dst = d;
    r.path = {g.find_edge(s, d)};
    r.weight = w;
    r.num_chunks = chunks;
    sched.entries.push_back(r);
  };
  add(0, 1, 3.0, 6);  // 3 shards at unit 1/2 -> 6 chunks
  add(1, 0, 1.0, 2);
  EXPECT_TRUE(validate_path_schedule(g, sched, all_nodes(g), &demand).ok);
  // Under-shipping the heavy commodity (unit-demand chunk count) must fail.
  sched.entries[0].num_chunks = 2;
  EXPECT_FALSE(validate_path_schedule(g, sched, all_nodes(g), &demand).ok);
}

TEST(ValidateLink, ZeroWeightShardMustShipNoChunks) {
  const DiGraph g = make_complete(3);
  DemandMatrix demand(3, 1.0);
  for (int d = 0; d < 3; ++d) {
    if (d != 2) demand.set(2, d, 0.0);  // rank 2 is a silent source
  }
  LinkSchedule sched;
  sched.num_nodes = 3;
  sched.num_steps = 1;
  for (NodeId s = 0; s < 2; ++s) {
    for (NodeId d = 0; d < 3; ++d) {
      if (s != d) sched.transfers.push_back(Transfer{whole(s, d), s, d, 1});
    }
  }
  EXPECT_TRUE(validate_link_schedule(g, sched, all_nodes(g), &demand).ok);
  // Chunks from the silenced source violate the demand contract.
  sched.transfers.push_back(Transfer{whole(2, 0), 2, 0, 1});
  EXPECT_FALSE(validate_link_schedule(g, sched, all_nodes(g), &demand).ok);
}

TEST(ValidateLink, WeightedShardMustTileToItsDemand) {
  const DiGraph g = make_complete(2);
  DemandMatrix demand(2, 0.0);
  demand.set(0, 1, 2.0);
  demand.set(1, 0, 1.0);
  LinkSchedule sched;
  sched.num_nodes = 2;
  sched.num_steps = 1;
  // 0->1 tiles [0, 2) in two unit chunks; 1->0 tiles [0, 1).
  sched.transfers.push_back(
      Transfer{Chunk{0, 1, Rational(0), Rational(1)}, 0, 1, 1});
  sched.transfers.push_back(
      Transfer{Chunk{0, 1, Rational(1), Rational(2)}, 0, 1, 1});
  sched.transfers.push_back(Transfer{whole(1, 0), 1, 0, 1});
  EXPECT_TRUE(validate_link_schedule(g, sched, all_nodes(g), &demand).ok);
  // Delivering only the unit prefix of the weight-2 shard must fail.
  sched.transfers.pop_back();
  sched.transfers.pop_back();
  sched.transfers.push_back(Transfer{whole(1, 0), 1, 0, 1});
  EXPECT_FALSE(validate_link_schedule(g, sched, all_nodes(g), &demand).ok);
}

// ---- differential check against a map-grouped reference ---------------------

std::string reference_chunk_name(const Chunk& c) {
  std::ostringstream os;
  os << "chunk(" << c.src << "->" << c.dst << ", [" << c.lo << "," << c.hi << "))";
  return os.str();
}

/// Reference link validator: groups transfers per chunk in a std::map keyed
/// by (src, dst, lo, hi) numerators and denominators. validate_link_schedule
/// must reach the same verdict with the same errors in the same order.
ValidationResult reference_validate_link(const DiGraph& g, const LinkSchedule& schedule,
                                         const std::vector<NodeId>& terminals,
                                         const DemandMatrix* demand,
                                         double demand_tol = 2.2e-2) {
  ValidationResult result;
  std::map<std::tuple<NodeId, NodeId, std::int64_t, std::int64_t, std::int64_t,
                      std::int64_t>,
           std::vector<const Transfer*>>
      per_chunk;
  for (const Transfer& t : schedule.transfers) {
    if (t.step < 1 || t.step > schedule.num_steps) {
      result.fail("transfer step out of range: " + std::to_string(t.step));
    }
    if (g.find_edge(t.from, t.to) < 0) {
      result.fail("transfer on non-edge (" + std::to_string(t.from) + "," +
                  std::to_string(t.to) + ")");
    }
    per_chunk[{t.chunk.src, t.chunk.dst, t.chunk.lo.num(), t.chunk.lo.den(),
               t.chunk.hi.num(), t.chunk.hi.den()}]
        .push_back(&t);
  }
  std::map<std::pair<NodeId, NodeId>, std::vector<std::pair<Rational, Rational>>>
      delivered;
  for (auto& [key, hops] : per_chunk) {
    const Chunk& c = hops.front()->chunk;
    std::sort(hops.begin(), hops.end(),
              [](const Transfer* a, const Transfer* b) { return a->step < b->step; });
    NodeId at = c.src;
    int prev_step = 0;
    bool chain_ok = true;
    for (const Transfer* t : hops) {
      if (t->from != at) {
        result.fail(reference_chunk_name(c) + " forwarded from " +
                    std::to_string(t->from) + " before arriving there");
        chain_ok = false;
        break;
      }
      if (t->step <= prev_step) {
        result.fail(reference_chunk_name(c) + " violates causality at step " +
                    std::to_string(t->step));
        chain_ok = false;
        break;
      }
      at = t->to;
      prev_step = t->step;
    }
    if (chain_ok && at != c.dst) {
      result.fail(reference_chunk_name(c) + " ends at node " + std::to_string(at) +
                  ", not its destination");
    }
    if (chain_ok && at == c.dst) {
      delivered[{c.src, c.dst}].emplace_back(c.lo, c.hi);
    }
  }
  const int S = static_cast<int>(terminals.size());
  for (int si = 0; si < S; ++si) {
    const NodeId s = terminals[static_cast<std::size_t>(si)];
    for (int di = 0; di < S; ++di) {
      const NodeId d = terminals[static_cast<std::size_t>(di)];
      if (s == d) continue;
      const double w = demand == nullptr ? 1.0 : demand->at(si, di);
      auto it = delivered.find({s, d});
      if (w <= 0.0) {
        if (it != delivered.end() && !it->second.empty()) {
          result.fail("zero-demand shard " + std::to_string(s) + "->" +
                      std::to_string(d) + " has chunks");
        }
        continue;
      }
      if (it == delivered.end()) {
        result.fail("shard " + std::to_string(s) + "->" + std::to_string(d) +
                    " never delivered");
        continue;
      }
      auto& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      Rational cursor(0);
      bool tiled = true;
      for (const auto& [lo, hi] : intervals) {
        if (!(lo == cursor)) {
          tiled = false;
          break;
        }
        cursor = hi;
      }
      const bool complete = demand == nullptr
                                ? cursor == Rational(1)
                                : std::abs(cursor.to_double() - w) <= demand_tol;
      if (!tiled || !complete) {
        result.fail("shard " + std::to_string(s) + "->" + std::to_string(d) +
                    " chunks do not tile [0," +
                    (demand == nullptr ? std::string("1") : std::to_string(w)) +
                    ")");
      }
    }
  }
  return result;
}

/// A valid unrolled schedule with the demand it was built for.
struct ValidCase {
  std::string name;
  DiGraph graph;
  std::vector<NodeId> terminals;
  std::optional<DemandMatrix> demand;
  LinkSchedule schedule;

  [[nodiscard]] const DemandMatrix* demand_ptr() const {
    return demand ? &*demand : nullptr;
  }
};

std::vector<ValidCase> valid_cases() {
  std::vector<ValidCase> cases;
  const DiGraph torus = make_torus({3, 2});
  const AugmentedGraph hosts = augment_host_bottleneck(torus, 4.0);
  std::vector<NodeId> host_ids(static_cast<std::size_t>(hosts.num_hosts));
  for (NodeId h = 0; h < hosts.num_hosts; ++h) host_ids[static_cast<std::size_t>(h)] = h;
  // Skewed demands on the toolchain's chunking grid move tens of thousands
  // of hops, so only the smallest graph takes one.
  const DiGraph kautz = make_generalized_kautz(8, 2);
  const std::vector<std::tuple<std::string, DiGraph, std::vector<NodeId>,
                               std::vector<const char*>>>
      graphs = {
          {"torus3x2", torus, all_nodes(torus), {"uniform", "zipf:0.6", "block:3"}},
          {"genkautz8_2", kautz, all_nodes(kautz), {"uniform", "block:3"}},
          {"torus3x2+hosts", hosts.graph, host_ids, {"uniform", "block:3"}},
      };
  UnrollOptions uo;
  uo.chunking = ToolchainOptions{}.chunking;
  for (const auto& [name, g, terminals, specs] : graphs) {
    for (const char* spec : specs) {
      ValidCase c{name + " " + spec, g, terminals, std::nullopt, {}};
      if (std::string(spec) != "uniform") {
        c.demand = DemandSpec::parse(spec).instantiate(static_cast<int>(terminals.size()));
      }
      const auto flows =
          solve_decomposed_mcf(g, terminals, {}, nullptr, nullptr, c.demand_ptr());
      c.schedule = unroll_rate_schedule(g, paths_from_link_flows(g, flows, c.demand_ptr()), uo);
      cases.push_back(std::move(c));
    }
  }
  const DiGraph cube = make_hypercube(3);
  cases.push_back({"hypercube3 tsMCF", cube, all_nodes(cube), std::nullopt,
                   compile_tsmcf_schedule(cube, solve_tsmcf_exact(cube, 4, all_nodes(cube)))});
  return cases;
}

/// Both validators' verdicts on `sched` must agree; returns the verdict.
bool expect_same_verdict(const ValidCase& c, const LinkSchedule& sched,
                         const DemandMatrix* demand, const std::string& label) {
  SCOPED_TRACE(c.name + ": " + label);
  const ValidationResult want = reference_validate_link(c.graph, sched, c.terminals, demand);
  const ValidationResult got = validate_link_schedule(c.graph, sched, c.terminals, demand);
  EXPECT_EQ(got.ok, want.ok);
  EXPECT_EQ(got.errors.size(), want.errors.size());
  EXPECT_TRUE(got.errors == want.errors)
      << "first error: " << (got.errors.empty() ? "" : got.errors.front())
      << " | reference: " << (want.errors.empty() ? "" : want.errors.front());
  return got.ok;
}

/// [begin, end) of the transfers of the chunk at `i`, which the unroller
/// emits back to back.
std::pair<std::size_t, std::size_t> chunk_run(const LinkSchedule& s, std::size_t i) {
  std::size_t b = i, e = i + 1;
  while (b > 0 && s.transfers[b - 1].chunk == s.transfers[i].chunk) --b;
  while (e < s.transfers.size() && s.transfers[e].chunk == s.transfers[i].chunk) ++e;
  return {b, e};
}

TEST(ValidateLink, MatchesMapGroupedReferenceOnValidAndMutatedSchedules) {
  Rng rng(0x5A11DA7E);
  const DemandMatrix blocks3 = DemandSpec::parse("block:3").instantiate(6);
  struct Mutation {
    std::string label;
    std::optional<bool> valid;  ///< the verdict it must get; nullopt: either
    std::function<void(const ValidCase&, LinkSchedule&)> apply;
  };
  auto pick = [&](const LinkSchedule& s) {
    return static_cast<std::size_t>(rng.next_below(s.transfers.size()));
  };
  const std::vector<Mutation> mutations = {
      {"unchanged", true, [](const ValidCase&, LinkSchedule&) {}},
      {"shuffled", true, [&](const ValidCase&, LinkSchedule& s) { rng.shuffle(s.transfers); }},
      {"dropped hop", false,
       [&](const ValidCase&, LinkSchedule& s) {
         s.transfers.erase(s.transfers.begin() + static_cast<std::ptrdiff_t>(pick(s)));
       }},
      {"steps swapped within a chunk", false,
       [&](const ValidCase&, LinkSchedule& s) {
         for (int tries = 0; tries < 100; ++tries) {
           const auto [b, e] = chunk_run(s, pick(s));
           if (e - b < 2) continue;
           std::swap(s.transfers[b].step, s.transfers[e - 1].step);
           return;
         }
       }},
      {"steps swapped across chunks", std::nullopt,
       [&](const ValidCase&, LinkSchedule& s) {
         const std::size_t i = pick(s);
         const std::size_t j = pick(s);
         std::swap(s.transfers[i].step, s.transfers[j].step);
       }},
      {"chunk duplicated in place", false,
       [&](const ValidCase&, LinkSchedule& s) {
         const auto [b, e] = chunk_run(s, pick(s));
         const std::vector<Transfer> copy(s.transfers.begin() + static_cast<std::ptrdiff_t>(b),
                                          s.transfers.begin() + static_cast<std::ptrdiff_t>(e));
         s.transfers.insert(s.transfers.begin() + static_cast<std::ptrdiff_t>(e), copy.begin(),
                            copy.end());
       }},
      {"chunk duplicated at the end", false,
       [&](const ValidCase&, LinkSchedule& s) {
         const auto [b, e] = chunk_run(s, pick(s));
         for (std::size_t i = b; i < e; ++i) s.transfers.push_back(s.transfers[i]);
       }},
      {"hop moved onto a non-edge", false,
       [&](const ValidCase& c, LinkSchedule& s) {
         for (int tries = 0; tries < 100; ++tries) {
           Transfer& t = s.transfers[pick(s)];
           const auto v = static_cast<NodeId>(rng.next_below(
               static_cast<std::uint64_t>(c.graph.num_nodes())));
           if (v == t.from || c.graph.find_edge(t.from, v) >= 0) continue;
           t.to = v;
           return;
         }
       }},
      {"step 0", false, [&](const ValidCase&, LinkSchedule& s) { s.transfers[pick(s)].step = 0; }},
      {"step num_steps + 1", false,
       [&](const ValidCase&, LinkSchedule& s) {
         s.transfers[pick(s)].step = s.num_steps + 1;
       }},
      {"lo shifted on a whole chunk", false,
       [&](const ValidCase&, LinkSchedule& s) {
         const auto [b, e] = chunk_run(s, pick(s));
         const Rational shift = s.transfers[b].chunk.size() / Rational(2);
         for (std::size_t i = b; i < e; ++i) s.transfers[i].chunk.lo += shift;
       }},
      {"lo shifted on one hop", false,
       [&](const ValidCase&, LinkSchedule& s) {
         Chunk& c = s.transfers[pick(s)].chunk;
         c.lo += c.size() / Rational(3);
       }},
  };
  for (const ValidCase& c : valid_cases()) {
    ASSERT_TRUE(validate_link_schedule(c.graph, c.schedule, c.terminals, c.demand_ptr()).ok)
        << c.name;
    for (const Mutation& m : mutations) {
      for (int round = 0; round < 3; ++round) {
        LinkSchedule mutant = c.schedule;
        m.apply(c, mutant);
        const bool ok = expect_same_verdict(c, mutant, c.demand_ptr(), m.label);
        if (m.valid) {
          EXPECT_EQ(ok, *m.valid) << c.name << ": " << m.label;
        }
        // The same mutant with its hops scattered across the schedule.
        rng.shuffle(mutant.transfers);
        expect_same_verdict(c, mutant, c.demand_ptr(), m.label + ", shuffled");
      }
    }
    // Chunks on zero-weight commodities: the schedule checked against a
    // demand that silences every cross-block pair.
    if (c.terminals.size() == 6) {
      const bool ok = expect_same_verdict(c, c.schedule, &blocks3, "checked against block:3");
      EXPECT_EQ(ok, c.name.ends_with("block:3")) << c.name;
      LinkSchedule shuffled = c.schedule;
      rng.shuffle(shuffled.transfers);
      expect_same_verdict(c, shuffled, &blocks3, "checked against block:3, shuffled");
    }
  }
}

// ---- path validator against a map-grouped reference ------------------------

/// Reference route check: a simple s->t walk, its nodes kept in a hash set.
bool reference_path_is_valid(const DiGraph& g, const Path& p, NodeId s, NodeId t) {
  if (p.empty()) return false;
  NodeId at = s;
  std::unordered_set<NodeId> visited{s};
  for (const EdgeId e : p) {
    if (e < 0 || e >= g.num_edges()) return false;
    const Edge& edge = g.edge(e);
    if (edge.from != at) return false;
    at = edge.to;
    if (!visited.insert(at).second) return false;
  }
  return at == t;
}

/// Reference path validator: sums weights and chunks per commodity in two
/// std::maps keyed by (src, dst). validate_path_schedule must reach the same
/// verdict with the same errors in the same order.
ValidationResult reference_validate_path(const DiGraph& g, const PathSchedule& schedule,
                                         const std::vector<NodeId>& terminals,
                                         const DemandMatrix* demand,
                                         double demand_tol = 2.2e-2) {
  ValidationResult result;
  std::map<std::pair<NodeId, NodeId>, double> weight_sum;
  std::map<std::pair<NodeId, NodeId>, long long> chunk_sum;
  for (const RouteEntry& r : schedule.entries) {
    if (!reference_path_is_valid(g, r.path, r.src, r.dst)) {
      result.fail("invalid route for " + std::to_string(r.src) + "->" +
                  std::to_string(r.dst));
      continue;
    }
    if (r.weight <= 0.0 || r.num_chunks <= 0) {
      result.fail("non-positive route weight/chunks for " +
                  std::to_string(r.src) + "->" + std::to_string(r.dst));
    }
    weight_sum[{r.src, r.dst}] += r.weight;
    chunk_sum[{r.src, r.dst}] += r.num_chunks;
  }
  const double unit = schedule.chunk_unit.to_double();
  const int S = static_cast<int>(terminals.size());
  for (int si = 0; si < S; ++si) {
    const NodeId s = terminals[static_cast<std::size_t>(si)];
    for (int di = 0; di < S; ++di) {
      const NodeId d = terminals[static_cast<std::size_t>(di)];
      if (s == d) continue;
      const double wd = demand == nullptr ? 1.0 : demand->at(si, di);
      const auto w = weight_sum.find({s, d});
      if (wd <= 0.0) {
        if (w != weight_sum.end()) {
          result.fail("zero-demand commodity " + std::to_string(s) + "->" +
                      std::to_string(d) + " has routes");
        }
        continue;
      }
      if (w == weight_sum.end()) {
        result.fail("commodity " + std::to_string(s) + "->" + std::to_string(d) +
                    " has no routes");
        continue;
      }
      const double tol = demand == nullptr ? 1e-6 : demand_tol;
      if (std::abs(w->second - wd) > tol) {
        result.fail("commodity " + std::to_string(s) + "->" + std::to_string(d) +
                    " weights sum to " + std::to_string(w->second) +
                    ", expected " + std::to_string(wd));
      }
      const auto expected_chunks =
          static_cast<long long>(std::llround(w->second / unit));
      if (chunk_sum[{s, d}] != expected_chunks) {
        result.fail("commodity " + std::to_string(s) + "->" + std::to_string(d) +
                    " ships " + std::to_string(chunk_sum[{s, d}]) +
                    " chunks, expected " + std::to_string(expected_chunks));
      }
    }
  }
  return result;
}

/// A valid path schedule from the pipeline, with the demand it was built for.
struct PathCase {
  std::string name;
  DiGraph graph;
  std::vector<NodeId> terminals;
  std::optional<DemandMatrix> demand;
  PathSchedule schedule;

  [[nodiscard]] const DemandMatrix* demand_ptr() const {
    return demand ? &*demand : nullptr;
  }
};

std::vector<PathCase> path_cases() {
  // Threshold 0 forces the MCF-extP branch; 512 keeps pMCF where the path
  // diversity is low.
  const std::vector<std::tuple<std::string, DiGraph, const char*, long long>> runs = {
      {"hypercube3 pMCF", make_hypercube(3), "uniform", 512},
      {"torus3x2 pMCF", make_torus({3, 2}), "block:3", 512},
      {"torus3x2 MCF-extP", make_torus({3, 2}), "zipf:0.6", 0},
      {"genkautz8_2 MCF-extP", make_generalized_kautz(8, 2), "uniform", 0},
  };
  std::vector<PathCase> cases;
  for (const auto& [name, g, spec, threshold] : runs) {
    ToolchainOptions options;
    options.path_diversity_threshold = threshold;
    options.workload.demand = DemandSpec::parse(spec);
    const GeneratedSchedule result = generate_schedule(g, hpc_cerio_fabric(), options);
    PathCase c{name + " " + spec, result.schedule_graph, result.terminals, std::nullopt,
               *result.path};
    if (!options.workload.is_default()) {
      c.demand = effective_demand(options.workload, static_cast<int>(c.terminals.size()));
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

/// Both path validators' verdicts on `sched` must agree; returns the verdict.
bool expect_same_path_verdict(const PathCase& c, const PathSchedule& sched,
                              const std::vector<NodeId>& terminals,
                              const DemandMatrix* demand, const std::string& label) {
  SCOPED_TRACE(c.name + ": " + label);
  const ValidationResult want = reference_validate_path(c.graph, sched, terminals, demand);
  const ValidationResult got = validate_path_schedule(c.graph, sched, terminals, demand);
  EXPECT_EQ(got.ok, want.ok);
  EXPECT_EQ(got.errors.size(), want.errors.size());
  EXPECT_TRUE(got.errors == want.errors)
      << "first error: " << (got.errors.empty() ? "" : got.errors.front())
      << " | reference: " << (want.errors.empty() ? "" : want.errors.front());
  return got.ok;
}

TEST(ValidatePath, MatchesMapGroupedReferenceOnValidAndMutatedSchedules) {
  Rng rng(0xA7B5C0DE);
  const DemandMatrix blocks3 = DemandSpec::parse("block:3").instantiate(6);
  struct Mutation {
    std::string label;
    std::optional<bool> valid;  ///< the verdict it must get; nullopt: either
    std::function<void(const PathCase&, PathSchedule&)> apply;
  };
  auto pick = [&](const PathSchedule& s) {
    return static_cast<std::size_t>(rng.next_below(s.entries.size()));
  };
  const std::vector<Mutation> mutations = {
      {"unchanged", true, [](const PathCase&, PathSchedule&) {}},
      {"shuffled", true, [&](const PathCase&, PathSchedule& s) { rng.shuffle(s.entries); }},
      {"dropped route", false,
       [&](const PathCase&, PathSchedule& s) {
         s.entries.erase(s.entries.begin() + static_cast<std::ptrdiff_t>(pick(s)));
       }},
      {"duplicated route", false,
       [&](const PathCase&, PathSchedule& s) { s.entries.push_back(s.entries[pick(s)]); }},
      {"re-weighted by half", std::nullopt,
       [&](const PathCase&, PathSchedule& s) { s.entries[pick(s)].weight *= 1.5; }},
      {"re-weighted by a shard", false,
       [&](const PathCase&, PathSchedule& s) { s.entries[pick(s)].weight += 1.0; }},
      {"zero weight", false,
       [&](const PathCase&, PathSchedule& s) { s.entries[pick(s)].weight = 0.0; }},
      {"zero chunks", false,
       [&](const PathCase&, PathSchedule& s) { s.entries[pick(s)].num_chunks = 0; }},
      {"one chunk more", false,
       [&](const PathCase&, PathSchedule& s) { ++s.entries[pick(s)].num_chunks; }},
      {"hop off the chain", false,
       [&](const PathCase& c, PathSchedule& s) {
         for (int tries = 0; tries < 100; ++tries) {
           RouteEntry& r = s.entries[pick(s)];
           const std::size_t k = static_cast<std::size_t>(rng.next_below(r.path.size()));
           const auto e = static_cast<EdgeId>(
               rng.next_below(static_cast<std::uint64_t>(c.graph.num_edges())));
           const NodeId from = k == 0 ? r.src : c.graph.edge(r.path[k - 1]).to;
           if (c.graph.edge(e).from == from) continue;
           r.path[k] = e;
           return;
         }
       }},
      {"edge id out of range", false,
       [&](const PathCase& c, PathSchedule& s) {
         RouteEntry& r = s.entries[pick(s)];
         r.path[static_cast<std::size_t>(rng.next_below(r.path.size()))] =
             rng.next_below(2) == 0 ? -1 : c.graph.num_edges();
       }},
      {"route cut short", false,
       [&](const PathCase&, PathSchedule& s) {
         for (int tries = 0; tries < 100; ++tries) {
           RouteEntry& r = s.entries[pick(s)];
           if (r.path.size() < 2) continue;
           r.path.pop_back();
           return;
         }
       }},
      {"looping route", false,
       [&](const PathCase& c, PathSchedule& s) {
         // Step out to a neighbour and back before hop k: the walk is still
         // contiguous and ends at dst, but revisits hop k's tail, which is
         // the source (k == 0) or the head of an earlier hop.
         for (int tries = 0; tries < 100; ++tries) {
           RouteEntry& r = s.entries[pick(s)];
           const std::size_t k = static_cast<std::size_t>(rng.next_below(r.path.size()));
           const NodeId tail = c.graph.edge(r.path[k]).from;
           const auto& out = c.graph.out_edges(tail);
           const EdgeId step = out[static_cast<std::size_t>(rng.next_below(out.size()))];
           const EdgeId back = c.graph.find_edge(c.graph.edge(step).to, tail);
           if (back < 0) continue;
           const std::vector<EdgeId> detour = {step, back};
           r.path.insert(r.path.begin() + static_cast<std::ptrdiff_t>(k), detour.begin(),
                         detour.end());
           return;
         }
       }},
  };
  for (const PathCase& c : path_cases()) {
    ASSERT_TRUE(
        validate_path_schedule(c.graph, c.schedule, c.terminals, c.demand_ptr()).ok)
        << c.name;
    // A repeated terminal shares its first position's sums; a terminal left
    // out makes its routes ignored.
    std::vector<NodeId> repeated = c.terminals;
    repeated.push_back(c.terminals[1]);
    const std::vector<NodeId> fewer(c.terminals.begin(), c.terminals.end() - 1);
    const int S = static_cast<int>(c.terminals.size());
    const DemandMatrix ones = DemandMatrix::uniform(S);
    for (const Mutation& m : mutations) {
      for (int round = 0; round < 3; ++round) {
        PathSchedule mutant = c.schedule;
        m.apply(c, mutant);
        const bool ok = expect_same_path_verdict(c, mutant, c.terminals, c.demand_ptr(),
                                                 m.label);
        if (m.valid) {
          EXPECT_EQ(ok, *m.valid) << c.name << ": " << m.label;
        }
        expect_same_path_verdict(c, mutant, c.terminals, &ones, m.label + ", unit demand");
        expect_same_path_verdict(c, mutant, repeated, nullptr, m.label + ", repeated terminal");
        expect_same_path_verdict(c, mutant, fewer, nullptr, m.label + ", one terminal fewer");
        if (S == 6) {
          expect_same_path_verdict(c, mutant, c.terminals, &blocks3,
                                   m.label + ", checked against block:3");
        }
      }
    }
    if (!c.demand) {
      EXPECT_TRUE(expect_same_path_verdict(c, c.schedule, c.terminals, &ones, "unit demand"));
      EXPECT_TRUE(expect_same_path_verdict(c, c.schedule, fewer, nullptr, "one terminal fewer"));
    }
    if (S == 6) {
      const bool ok = expect_same_path_verdict(c, c.schedule, c.terminals, &blocks3,
                                               "checked against block:3");
      EXPECT_EQ(ok, c.name.ends_with("block:3")) << c.name;
    }
  }
}

}  // namespace
}  // namespace a2a
