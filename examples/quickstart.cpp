// Quickstart: build a graph, run a GCN forward pass through the optimized
// engine, inspect both the numbers and the simulated-GPU counters.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "models/reference.hpp"

using namespace gnnbridge;

int main() {
  // 1. A graph. Any edge list works; here a small power-law graph.
  tensor::Rng rng(42);
  const auto degrees = graph::power_law_degrees(/*n=*/2000, /*avg=*/12.0, /*alpha=*/0.6,
                                                /*max=*/400.0);
  graph::Dataset data;
  data.name = "quickstart";
  data.coo = graph::chung_lu(degrees, rng);
  data.csr = graph::csr_from_coo(data.coo);
  data.stats = graph::degree_stats(data.csr);
  std::printf("graph: %d nodes, %lld edges, avg degree %.1f, max %lld\n", data.stats.num_nodes,
              static_cast<long long>(data.stats.num_edges), data.stats.avg_degree,
              static_cast<long long>(data.stats.max_degree));

  // 2. A model: 2-layer GCN, 64 -> 32 -> 8.
  models::GcnConfig cfg;
  cfg.dims = {64, 32, 8};
  const models::GcnParams params = models::init_gcn(cfg, /*seed=*/7);
  const models::Matrix x = models::init_features(data.csr.num_nodes, 64, /*seed=*/7);

  // 3. Run it through the optimized engine (LAS + NG + fusion on by
  //    default) in full mode: real outputs plus simulated-GPU counters.
  engine::OptimizedEngine ours;
  const baselines::GcnRun run{&cfg, &params, &x};
  const auto result = ours.run_gcn(data, run, kernels::ExecMode::kFull, sim::v100());

  std::printf("output: [%lld x %lld], first row:", static_cast<long long>(result.output.rows()),
              static_cast<long long>(result.output.cols()));
  for (tensor::Index f = 0; f < result.output.cols(); ++f) {
    std::printf(" %+.3f", static_cast<double>(result.output(0, f)));
  }
  std::printf("\n");

  // 4. Verify against the straightforward reference implementation.
  const models::Matrix expect = models::gcn_forward_ref(data.csr, x, cfg, params);
  std::printf("matches reference: %s (max |diff| = %.2e)\n",
              tensor::allclose(result.output, expect, 1e-3f, 1e-4f) ? "yes" : "NO",
              static_cast<double>(tensor::max_abs_diff(result.output, expect)));

  // 5. What the simulated V100 saw.
  std::printf("simulated: %.3f ms, %d kernel launches, L2 hit rate %.1f%%, %.2f GFLOPS\n",
              result.ms, result.stats.num_launches(), 100.0 * result.stats.l2_hit_rate(),
              result.stats.gflops(sim::v100()));
  return 0;
}
