// End-to-end Fig. 1 decision flow.
#include "core/api.hpp"

#include <gtest/gtest.h>

#include "graph/topologies.hpp"
#include "runtime/executor.hpp"
#include "schedule/validate.hpp"

namespace a2a {
namespace {

TEST(CoreApi, MlFabricSmallTopologyUsesExactTsMcf) {
  const DiGraph g = make_hypercube(3);
  const auto result = generate_schedule(g, gpu_mscl_fabric());
  EXPECT_EQ(result.kind, ScheduleKind::kLinkTsMcf);
  ASSERT_TRUE(result.link.has_value());
  EXPECT_NEAR(result.concurrent_flow, 0.25, 1e-4);
  EXPECT_TRUE(validate_link_schedule(result.schedule_graph, *result.link,
                                     result.terminals)
                  .ok);
  // And it actually runs.
  const auto report = execute_link_schedule(result.schedule_graph, *result.link,
                                            result.terminals, 7560);
  EXPECT_TRUE(report.transpose_verified);
}

TEST(CoreApi, MlFabricLargeTopologyUnrollsDecomposedMcf) {
  const DiGraph g = make_torus({3, 3, 3});
  Fabric fabric = cpu_oneccl_fabric();
  fabric.injection_GBps = 100.0;  // no host bottleneck in this variant
  ToolchainOptions options;
  options.mcf.exact_master_limit = 0;
  options.mcf.fptas_epsilon = 0.05;
  const auto result = generate_schedule(g, fabric, options);
  EXPECT_EQ(result.kind, ScheduleKind::kLinkUnrolled);
  ASSERT_TRUE(result.link.has_value());
  EXPECT_TRUE(validate_link_schedule(result.schedule_graph, *result.link,
                                     result.terminals)
                  .ok);
  EXPECT_GE(result.concurrent_flow, (1.0 / 9.0) * 0.85);
}

TEST(CoreApi, HostBottleneckTriggersAugmentation) {
  // The paper's TACC setting: degree 6 at 25 Gbps = 150 Gbps NIC vs
  // 100 Gbps injection -> augmentation, F -> 2/27.
  const DiGraph g = make_torus({3, 3, 3});
  ToolchainOptions options;
  options.mcf.exact_master_limit = 0;
  options.mcf.fptas_epsilon = 0.05;
  const auto result = generate_schedule(g, cpu_oneccl_fabric(), options);
  EXPECT_NE(result.notes.find("augmentation"), std::string::npos);
  EXPECT_EQ(result.terminals.size(), 27u);
  EXPECT_EQ(result.schedule_graph.num_nodes(), 81);
  EXPECT_LE(result.concurrent_flow, 2.0 / 27.0 + 1e-6);
  EXPECT_GE(result.concurrent_flow, (2.0 / 27.0) * 0.8);
  ASSERT_TRUE(result.link.has_value());
  EXPECT_TRUE(validate_link_schedule(result.schedule_graph, *result.link,
                                     result.terminals)
                  .ok);
}

TEST(CoreApi, HpcFabricLowDiversityUsesPMcf) {
  const DiGraph g = make_generalized_kautz(12, 3);
  const auto result = generate_schedule(g, hpc_cerio_fabric());
  EXPECT_EQ(result.kind, ScheduleKind::kPathPMcf);
  ASSERT_TRUE(result.path.has_value());
  EXPECT_TRUE(validate_path_schedule(g, *result.path, result.terminals).ok);
  EXPECT_GE(result.vc_layers, 1);
  EXPECT_LE(result.vc_layers, 4);
}

TEST(CoreApi, HpcFabricHighDiversityUsesExtraction) {
  // The 3D torus has exponentially many bounded-length paths (§3.1.4).
  const DiGraph g = make_torus({3, 3, 3});
  ToolchainOptions options;
  options.path_diversity_threshold = 64;
  const auto result = generate_schedule(g, hpc_cerio_fabric(), options);
  EXPECT_EQ(result.kind, ScheduleKind::kPathExtracted);
  ASSERT_TRUE(result.path.has_value());
  EXPECT_TRUE(validate_path_schedule(g, *result.path, result.terminals).ok);
  EXPECT_NEAR(result.concurrent_flow, 1.0 / 9.0, 0.01);
}

TEST(CoreApi, PathDiversityEstimatorSeparatesFamilies) {
  EXPECT_GT(estimate_path_diversity(make_torus({3, 3, 3})),
            estimate_path_diversity(make_generalized_kautz(27, 3)));
}

}  // namespace
}  // namespace a2a
