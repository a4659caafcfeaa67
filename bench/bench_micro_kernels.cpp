// Micro-benchmarks (google-benchmark) for the hot kernels underneath the
// figure reproductions: BFS/Dijkstra/widest-path, LU factorization, the
// simplex on the master LP, one Fleischer phase, and schedule compilation.
#include <benchmark/benchmark.h>

#include "common/random.hpp"
#include "graph/algorithms.hpp"
#include "graph/topologies.hpp"
#include "mcf/concurrent_flow.hpp"
#include "mcf/extraction.hpp"
#include "mcf/fleischer.hpp"
#include "reference/lu.hpp"

namespace {

using namespace a2a;

void BM_BfsDistances(benchmark::State& state) {
  const DiGraph g = make_generalized_kautz(static_cast<int>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bfs_distances(g, 0));
  }
}
BENCHMARK(BM_BfsDistances)->Arg(64)->Arg(256)->Arg(1024);

void BM_DijkstraTree(benchmark::State& state) {
  const DiGraph g = make_generalized_kautz(static_cast<int>(state.range(0)), 4);
  std::vector<double> length(static_cast<std::size_t>(g.num_edges()), 1.0);
  Rng rng(1);
  for (auto& l : length) l = 0.5 + rng.next_double();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dijkstra_tree(g, 0, length));
  }
}
BENCHMARK(BM_DijkstraTree)->Arg(64)->Arg(256)->Arg(1024);

void BM_WidestPath(benchmark::State& state) {
  const DiGraph g = make_torus({8, 8});
  std::vector<double> width(static_cast<std::size_t>(g.num_edges()));
  Rng rng(2);
  for (auto& w : width) w = rng.next_double();
  for (auto _ : state) {
    benchmark::DoNotOptimize(widest_path(g, 0, 27, width));
  }
}
BENCHMARK(BM_WidestPath);

void BM_EdgeDisjointPaths(benchmark::State& state) {
  const DiGraph g = make_generalized_kautz(81, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(edge_disjoint_paths(g, 0, 40));
  }
}
BENCHMARK(BM_EdgeDisjointPaths);

void BM_LuFactorize(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.next_double() - 0.5;
    a(i, i) += 4.0;
  }
  for (auto _ : state) {
    Matrix copy = a;
    LuFactorization lu(std::move(copy));
    benchmark::DoNotOptimize(lu.size());
  }
}
BENCHMARK(BM_LuFactorize)->Arg(64)->Arg(256)->Arg(512);

void BM_MasterLp(benchmark::State& state) {
  const DiGraph g = make_generalized_kautz(static_cast<int>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_master_lp(g, all_nodes(g)));
  }
}
BENCHMARK(BM_MasterLp)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_FleischerGrouped(benchmark::State& state) {
  const DiGraph g = make_generalized_kautz(static_cast<int>(state.range(0)), 4);
  FleischerOptions options;
  options.epsilon = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fleischer_grouped(g, all_nodes(g), options));
  }
}
BENCHMARK(BM_FleischerGrouped)->Arg(16)->Arg(48)->Unit(benchmark::kMillisecond);

void BM_CancelCycles(benchmark::State& state) {
  const DiGraph g = make_torus({6, 6});
  Rng rng(4);
  std::vector<double> flow(static_cast<std::size_t>(g.num_edges()));
  for (auto& f : flow) f = rng.next_double();
  for (auto _ : state) {
    auto copy = flow;
    cancel_cycles(g, copy);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_CancelCycles);

}  // namespace
