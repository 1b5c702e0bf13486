// Figure 4 — Aggregation throughput (GFLOPS) as the feature length
// changes, with the baseline's fixed schedule (32 lanes per row, whole-row
// tasks, natural order) — no adaptation to F.
//
// Expected shape: throughput climbs with F but dips at awkward lengths
// (lane padding) and varies strongly across datasets; compare with the
// tuned sweep of Figure 12, which is higher and smoother.
#include "bench_util.hpp"
#include "kernels/spmm.hpp"

using namespace gnnbridge;

int main() {
  bench::banner("Figure 4", "GFLOPS vs feature length, fixed baseline schedule");
  const sim::DeviceSpec spec = sim::v100();
  bench::DatasetCache cache;

  std::printf("%-10s", "feat");
  for (graph::DatasetId id : graph::kAllDatasets) {
    std::printf(" %9s", std::string(graph::dataset_name(id)).c_str());
  }
  std::printf("\n");

  for (tensor::Index feat = 16; feat <= 256; feat += 16) {
    std::printf("%-10lld", static_cast<long long>(feat));
    for (graph::DatasetId id : graph::kAllDatasets) {
      const graph::Dataset& d = cache.get(id);
      sim::SimContext ctx(spec);
      const auto gdev = kernels::device_graph(ctx, d.csr, "csr");
      auto src = kernels::device_mat_shape(ctx, d.csr.num_nodes, feat, "src");
      auto out = kernels::device_mat_shape(ctx, d.csr.num_nodes, feat, "out");
      auto norm = kernels::device_mat_shape(ctx, d.csr.num_edges(), 1, "norm");
      const auto tasks = kernels::natural_tasks(d.csr);
      kernels::SpmmArgs args{.graph = &gdev,
                             .tasks = tasks,
                             .src = &src,
                             .edge_weight = &norm,
                             .out = &out,
                             .lanes = 32};
      const sim::KernelStats ks = kernels::spmm_node(ctx, args);
      bench::record_stats("featlen/" + std::to_string(feat) + "/" + d.name, "aggregation",
                          "fixed-schedule", d.name, ctx.stats(), spec);
      std::printf(" %9.1f", ks.flops / spec.seconds(ks.cycles) / 1e9);
    }
    std::printf("\n");
  }
  std::printf("\npaper (Fig 4): rises with F, visible dips at non-multiple lengths, up to "
              "~1250 GFLOPS\n");
  return 0;
}
