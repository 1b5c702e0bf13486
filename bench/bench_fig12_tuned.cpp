// Figure 12 — Aggregation throughput vs feature length once the tuner
// picks the thread mapping and grouping bound per (graph, F).
//
// Expected shape: higher and much smoother than the untuned sweep of
// Figure 4 — the sawtooth from lane padding disappears because the tuner
// picks lanes that divide F well, and the grouping bound adapts the
// working set.
#include "bench_util.hpp"
#include "core/locality/schedule.hpp"
#include "engine/tune_helper.hpp"
#include "kernels/spmm.hpp"

using namespace gnnbridge;

int main() {
  bench::banner("Figure 12", "GFLOPS vs feature length with tuning applied");
  const sim::DeviceSpec spec = sim::v100();
  bench::DatasetCache cache;

  std::printf("%-10s", "feat");
  for (graph::DatasetId id : graph::kAllDatasets) {
    std::printf(" %9s", std::string(graph::dataset_name(id)).c_str());
  }
  std::printf("\n");

  // The LAS order is offline: computed once per dataset, reused across the
  // whole sweep (the paper's amortization argument).
  std::map<graph::DatasetId, std::vector<graph::NodeId>> las;
  for (graph::DatasetId id : graph::kAllDatasets) {
    las[id] = core::locality_aware_schedule(cache.get(id).csr).order;
  }

  for (tensor::Index feat = 16; feat <= 256; feat += 16) {
    std::printf("%-10lld", static_cast<long long>(feat));
    for (graph::DatasetId id : graph::kAllDatasets) {
      const graph::Dataset& d = cache.get(id);
      // Online tuning on sampled tasks, then one full run with the winner.
      core::TuneConfig base;
      base.use_las = true;
      const core::TuneResult tuned = core::tune_graph_op(
          d.csr,
          [&](const core::TuneConfig& cfg) {
            return engine::measure_aggregation(d.csr, feat, cfg, spec, 0.2, &las[id]);
          },
          base);

      sim::SimContext ctx(spec);
      const auto gdev = kernels::device_graph(ctx, d.csr, "csr");
      auto src = kernels::device_mat_shape(ctx, d.csr.num_nodes, feat, "src");
      auto out = kernels::device_mat_shape(ctx, d.csr.num_nodes, feat, "out");
      auto norm = kernels::device_mat_shape(ctx, d.csr.num_edges(), 1, "norm");
      const kernels::GroupedTasks grouped = kernels::neighbor_group_tasks(
          d.csr, tuned.best.group_bound,
          tuned.best.use_las ? std::span<const graph::NodeId>(las[id])
                             : std::span<const graph::NodeId>());
      kernels::SpmmArgs args{.graph = &gdev,
                             .tasks = grouped.tasks,
                             .src = &src,
                             .edge_weight = &norm,
                             .out = &out,
                             .lanes = tuned.best.lanes,
                             .atomic_merge = grouped.any_split};
      const sim::KernelStats ks = kernels::spmm_node(ctx, args);
      bench::record_stats("tuned/" + std::to_string(feat) + "/" + d.name, "aggregation",
                          "tuned", d.name, ctx.stats(), spec);
      std::printf(" %9.1f", ks.flops / spec.seconds(ks.cycles) / 1e9);
    }
    std::printf("\n");
  }
  std::printf("\npaper (Fig 12): smooth curves, up to ~1500+ GFLOPS, dips gone\n");
  return 0;
}
