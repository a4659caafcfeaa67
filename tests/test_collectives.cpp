// Demand generators and collective lowering (ctest labels unit;collectives).
//
// The lowering identities under test are the §2-style contracts the service
// relies on: reduce-scatter is a column-constant demand pattern, all-gather
// is row-constant, and allreduce is their two-stage composition over one
// shared partition vector — so the composed schedule can never complete
// faster than either stage alone.
#include "collectives/collective.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "core/api.hpp"
#include "graph/topologies.hpp"
#include "runtime/ct_simulator.hpp"
#include "schedule/validate.hpp"

namespace a2a {
namespace {

// ---- generators -------------------------------------------------------------

TEST(DemandMatrix, UniformIsUnitEverywhereOffDiagonal) {
  const DemandMatrix m = DemandMatrix::uniform(5);
  EXPECT_TRUE(m.is_uniform_unit());
  EXPECT_DOUBLE_EQ(m.total(), 20.0);
  EXPECT_EQ(m.num_positive(), 20);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(m.at(i, i), 0.0);
}

TEST(DemandMatrix, ZipfZeroIsBitIdenticalToUniform) {
  const DemandMatrix u = DemandMatrix::uniform(9);
  const DemandMatrix z = DemandMatrix::zipf(9, 0.0);
  for (int i = 0; i < 9; ++i) {
    for (int j = 0; j < 9; ++j) {
      EXPECT_EQ(u.at(i, j), z.at(i, j)) << i << "," << j;  // exact, not NEAR
    }
  }
  EXPECT_TRUE(z.is_uniform_unit());
}

TEST(DemandMatrix, ZipfSkewsRowsButPreservesTotal) {
  const int n = 8;
  const DemandMatrix m = DemandMatrix::zipf(n, 1.2);
  // Row weights strictly decrease in rank; total matches uniform's n(n-1).
  for (int r = 1; r < n; ++r) {
    EXPECT_LT(m.row_sum(r), m.row_sum(r - 1)) << "row " << r;
  }
  EXPECT_NEAR(m.total(), static_cast<double>(n * (n - 1)), 1e-9);
  EXPECT_FALSE(m.is_uniform_unit());
}

TEST(DemandMatrix, PermutationHasOnePositivePerRowAndColumn) {
  const int n = 7;
  const DemandMatrix m = DemandMatrix::permutation(n, 3);
  for (int i = 0; i < n; ++i) {
    int row_pos = 0;
    int col_pos = 0;
    for (int j = 0; j < n; ++j) {
      row_pos += m.at(i, j) > 0.0 ? 1 : 0;
      col_pos += m.at(j, i) > 0.0 ? 1 : 0;
    }
    EXPECT_EQ(row_pos, 1) << "row " << i;
    EXPECT_EQ(col_pos, 1) << "col " << i;
  }
  EXPECT_DOUBLE_EQ(m.total(), static_cast<double>(n));
}

TEST(DemandMatrix, BlockDiagonalHasNoCrossBlockTraffic) {
  const int n = 8;
  const DemandMatrix m = DemandMatrix::block_diagonal(n, 2);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const bool same_block = (i < 4) == (j < 4);
      EXPECT_DOUBLE_EQ(m.at(i, j), same_block ? 1.0 : 0.0) << i << "," << j;
    }
  }
  // 2 blocks of 4: 2 * 4*3 positive commodities.
  EXPECT_EQ(m.num_positive(), 24);
}

// ---- spec grammar -----------------------------------------------------------

TEST(DemandSpec, ParseRoundTripsCanonicalSpellings) {
  for (const char* spec : {"uniform", "zipf:1.2", "zipf:0", "perm", "perm:5",
                           "block:4"}) {
    const DemandSpec parsed = DemandSpec::parse(spec);
    EXPECT_EQ(DemandSpec::parse(parsed.to_string()), parsed) << spec;
  }
  EXPECT_TRUE(DemandSpec::parse("uniform").is_default());
  EXPECT_FALSE(DemandSpec::parse("zipf:0.6").is_default());
}

TEST(DemandSpec, MalformedSpecsThrow) {
  for (const char* spec :
       {"", "zipf", "zipf:", "zipf:abc", "zipf:-1", "zipf:99", "block",
        "block:0", "block:2.5", "perm:-3", "uniform:1", "bogus"}) {
    EXPECT_THROW((void)DemandSpec::parse(spec), InvalidArgument) << spec;
  }
}

TEST(DemandSpec, ArgumentsParseAtTheirFieldsType) {
  // perm seeds are uint64s and block counts ints, never read through a
  // double: no sign, blank, fraction or out-of-range value passes.
  for (const char* spec :
       {"perm:-1", "perm:1.5", "perm:+5", "perm:18446744073709551616",
        "block:2.0", "block:+2", "block: 2", "block:2147483648", "zipf:+0.6",
        "zipf: 0.6", "zipf:nan"}) {
    EXPECT_THROW((void)DemandSpec::parse(spec), InvalidArgument) << spec;
  }
  EXPECT_EQ(DemandSpec::parse("perm:9007199254740993").seed,
            9007199254740993ULL);
  EXPECT_EQ(DemandSpec::parse("perm:18446744073709551615").seed, UINT64_MAX);
}

TEST(Collective, NamesRoundTripAndAliasesResolve) {
  for (const CollectiveKind kind :
       {CollectiveKind::kAllToAll, CollectiveKind::kReduceScatter,
        CollectiveKind::kAllGather, CollectiveKind::kAllReduce}) {
    EXPECT_EQ(collective_from_name(collective_name(kind)), kind);
  }
  EXPECT_EQ(collective_from_name("reduce-scatter"),
            CollectiveKind::kReduceScatter);
  EXPECT_EQ(collective_from_name("ar"), CollectiveKind::kAllReduce);
  EXPECT_THROW((void)collective_from_name("broadcast"), InvalidArgument);
}

// ---- lowering identities ----------------------------------------------------

TEST(Collective, ReduceScatterLowersToColumnConstantPattern) {
  DemandSpec spec;
  spec.kind = DemandSpec::Kind::kZipf;
  spec.zipf_s = 1.2;
  const CollectivePlan plan =
      lower_collective(CollectiveKind::kReduceScatter, 6, spec);
  ASSERT_EQ(plan.stages.size(), 1u);
  const DemandMatrix& d = plan.stages[0].demand;
  for (int col = 0; col < 6; ++col) {
    double seen = -1.0;
    for (int row = 0; row < 6; ++row) {
      if (row == col) continue;
      if (seen < 0.0) seen = d.at(row, col);
      EXPECT_DOUBLE_EQ(d.at(row, col), seen) << "col " << col;
    }
  }
}

TEST(Collective, AllGatherLowersToRowConstantPattern) {
  DemandSpec spec;
  spec.kind = DemandSpec::Kind::kZipf;
  spec.zipf_s = 1.2;
  const CollectivePlan plan =
      lower_collective(CollectiveKind::kAllGather, 6, spec);
  ASSERT_EQ(plan.stages.size(), 1u);
  const DemandMatrix& d = plan.stages[0].demand;
  for (int row = 0; row < 6; ++row) {
    double seen = -1.0;
    for (int col = 0; col < 6; ++col) {
      if (row == col) continue;
      if (seen < 0.0) seen = d.at(row, col);
      EXPECT_DOUBLE_EQ(d.at(row, col), seen) << "row " << row;
    }
  }
}

TEST(Collective, AllReduceComposesReduceScatterThenAllGather) {
  DemandSpec spec;
  spec.kind = DemandSpec::Kind::kZipf;
  spec.zipf_s = 0.6;
  const CollectivePlan rs =
      lower_collective(CollectiveKind::kReduceScatter, 6, spec);
  const CollectivePlan ag =
      lower_collective(CollectiveKind::kAllGather, 6, spec);
  const CollectivePlan ar =
      lower_collective(CollectiveKind::kAllReduce, 6, spec);
  ASSERT_EQ(ar.stages.size(), 2u);
  EXPECT_EQ(ar.stages[0].name, "reduce-scatter");
  EXPECT_EQ(ar.stages[1].name, "all-gather");
  // Both stages share the same partition vector p, so stage demands match
  // the standalone lowerings and the effective (overlaid) demand is the sum.
  const WorkloadSpec workload{CollectiveKind::kAllReduce, spec};
  const DemandMatrix sum = effective_demand(workload, 6);
  for (int s = 0; s < 6; ++s) {
    for (int d = 0; d < 6; ++d) {
      if (s == d) continue;
      EXPECT_DOUBLE_EQ(ar.stages[0].demand.at(s, d),
                       rs.stages[0].demand.at(s, d));
      EXPECT_DOUBLE_EQ(ar.stages[1].demand.at(s, d),
                       ag.stages[0].demand.at(s, d));
      EXPECT_DOUBLE_EQ(sum.at(s, d), ar.stages[0].demand.at(s, d) +
                                         ar.stages[1].demand.at(s, d));
    }
  }
}

TEST(Collective, UniformAllReduceDoublesTheUniformDemand) {
  const WorkloadSpec workload{CollectiveKind::kAllReduce, DemandSpec{}};
  const DemandMatrix d = effective_demand(workload, 5);
  for (int s = 0; s < 5; ++s) {
    for (int t = 0; t < 5; ++t) {
      if (s == t) continue;
      EXPECT_DOUBLE_EQ(d.at(s, t), 2.0);
    }
  }
}

TEST(Collective, DegenerateTerminalCountsLowerToNoTraffic) {
  for (const int n : {0, 1}) {
    for (const CollectiveKind kind :
         {CollectiveKind::kAllToAll, CollectiveKind::kReduceScatter,
          CollectiveKind::kAllGather, CollectiveKind::kAllReduce}) {
      const CollectivePlan plan = lower_collective(kind, n);
      EXPECT_TRUE(plan.stages.empty()) << collective_name(kind) << " n=" << n;
      EXPECT_FALSE(plan.has_traffic());
    }
  }
}

// ---- end-to-end composition through the pipeline ----------------------------

TEST(Collective, ComposedAllReduceScheduleIsNoFasterThanEitherStage) {
  const DiGraph g = make_generalized_kautz(12, 3);
  const Fabric fabric = hpc_cerio_fabric();
  DemandSpec spec;
  spec.kind = DemandSpec::Kind::kZipf;
  spec.zipf_s = 0.6;
  const auto run = [&](CollectiveKind kind) {
    ToolchainOptions options;
    options.workload.collective = kind;
    options.workload.demand = spec;
    const GeneratedSchedule result = generate_schedule(g, fabric, options);
    const DemandMatrix check = effective_demand(
        options.workload, static_cast<int>(result.terminals.size()));
    EXPECT_TRUE(validate_path_schedule(result.schedule_graph, *result.path,
                                       result.terminals, &check)
                    .ok)
        << collective_name(kind);
    return simulate_path_schedule(g, *result.path, 1 << 20,
                                  static_cast<int>(result.terminals.size()),
                                  fabric)
        .seconds;
  };
  const double rs_s = run(CollectiveKind::kReduceScatter);
  const double ag_s = run(CollectiveKind::kAllGather);
  const double ar_s = run(CollectiveKind::kAllReduce);
  EXPECT_GT(rs_s, 0.0);
  EXPECT_GT(ag_s, 0.0);
  // The composition carries both stages' bytes, so it cannot beat a stage.
  EXPECT_GE(ar_s, rs_s * (1.0 - 1e-9));
  EXPECT_GE(ar_s, ag_s * (1.0 - 1e-9));
}

}  // namespace
}  // namespace a2a
