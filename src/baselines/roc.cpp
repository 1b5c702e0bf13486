#include "baselines/roc.hpp"

#include "baselines/footprint.hpp"
#include "baselines/pipeline.hpp"
#include "kernels/dense.hpp"
#include "kernels/fused.hpp"
#include "kernels/spmm.hpp"
#include "prof/span.hpp"

namespace gnnbridge::baselines {

namespace k = gnnbridge::kernels;

namespace {
/// ROC's C++ runtime is leaner than the Python stacks, but its partition
/// manager still intermediates every op.
constexpr sim::Cycles kFrameworkOverheadCycles = 20000.0;
}  // namespace

RunResult RocBackend::run_gcn(const Dataset& data, const GcnRun& run, ExecMode mode,
                              const sim::DeviceSpec& spec) {
  prof::Span span("RocBackend::run_gcn", "baseline");
  const std::uint64_t paper_bytes = roc_footprint_gcn(graph::paper_stats(data.id), *run.cfg);
  if (paper_bytes > kDeviceBytes) return {.oom = true, .paper_bytes = paper_bytes};

  sim::SimContext ctx(pipeline::with_overhead(spec, kFrameworkOverheadCycles));
  pipeline::Workspace ws(mode);
  const auto gdev = k::device_graph(ctx, data.csr, "csr");
  const auto tasks = k::natural_tasks(data.csr);
  const auto norm = ws.from_vec(ctx, models::gcn_edge_norm(data.csr), "gcn_norm");

  k::FeatureMat h = ws.from(ctx, *run.features, "x");
  for (std::size_t l = 0; l < run.params->weight.size(); ++l) {
    const bool last = l + 1 == run.params->weight.size();
    auto w = ws.from(ctx, run.params->weight[l], "w");
    auto bias = ws.from(ctx, run.params->bias[l], "b");

    // Partition staging: halo features copied into the partition's buffer
    // before compute and written back after (identity copies at [N, F]
    // scale — ROC's transfer engine).
    auto staged = ws.mat(ctx, h.rows, h.cols, "halo_in");
    k::dense_map(ctx, {.in = &h,
                       .out = &staged,
                       .fn = [](float x) { return x; },
                       .flops_per_elem = 0.0,
                       .mode = mode,
                       .name = "halo_stage_in",
                       .phase = "partition"});

    auto t = ws.mat(ctx, h.rows, w.cols, "transformed");
    k::dense_gemm(ctx, {.a = &staged, .b = &w, .c = &t, .mode = mode});

    // Node-parallel aggregation with ROC's wide fixed mapping.
    auto agg = ws.mat(ctx, h.rows, w.cols, "aggregated");
    k::SpmmArgs spmm{.graph = &gdev,
                     .tasks = tasks,
                     .src = &t,
                     .edge_weight = &norm,
                     .out = &agg,
                     .lanes = 256,
                     .mode = mode,
                     .name = "roc_aggregate"};
    k::spmm_node(ctx, spmm);
    k::bias_act_kernel(ctx, {.bias = &bias, .mat = &agg, .relu = !last, .mode = mode});

    auto staged_out = ws.mat(ctx, agg.rows, agg.cols, "halo_out");
    k::dense_map(ctx, {.in = &agg,
                       .out = &staged_out,
                       .fn = [](float x) { return x; },
                       .flops_per_elem = 0.0,
                       .mode = mode,
                       .name = "halo_stage_out",
                       .phase = "partition"});
    h = agg;
  }
  RunResult r = pipeline::finish(ctx, spec, mode == ExecMode::kFull ? *h.host : Matrix());
  r.paper_bytes = paper_bytes;
  return r;
}

RunResult RocBackend::run_gat(const Dataset&, const GatRun&, ExecMode, const sim::DeviceSpec&) {
  prof::Span span("RocBackend::run_gat", "baseline");
  return {};  // not implemented in ROC — "x" in Figure 7b
}

RunResult RocBackend::run_sage_lstm(const Dataset&, const SageLstmRun&, ExecMode,
                                    const sim::DeviceSpec&) {
  prof::Span span("RocBackend::run_sage_lstm", "baseline");
  return {};  // not implemented in ROC — "x" in Figure 7c
}

}  // namespace gnnbridge::baselines
