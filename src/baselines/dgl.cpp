#include "baselines/dgl.hpp"

#include <span>

#include "baselines/footprint.hpp"
#include "baselines/pipeline.hpp"
#include "kernels/dense.hpp"
#include "kernels/expand.hpp"
#include "kernels/fused.hpp"
#include "kernels/lstm.hpp"
#include "kernels/spmm.hpp"
#include "prof/span.hpp"

namespace gnnbridge::baselines {

namespace k = gnnbridge::kernels;

namespace {

using pipeline::Workspace;

/// Per-op host-side scheduling cost of the DGL/PyTorch stack (graph index
/// handle lookups, dispatcher layers, autograd bookkeeping) — Observation 3.
constexpr sim::Cycles kFrameworkOverheadCycles = 30000.0;

/// One Listing-1 GAT layer (or head) over `in`, at DGL's natural task order
/// and fixed 32-lane mapping; returns its output. DGL allocates the [E, 1]
/// broadcast buffer before the layer output, the engine after it: device
/// addresses follow the allocation order, so this order is DGL's own.
k::FeatureMat listing1_layer(sim::SimContext& ctx, Workspace& ws, const k::GraphOnDevice& gdev,
                             std::span<const k::Task> tasks, const k::FeatureMat& in,
                             const Matrix& w, const Matrix& att_l, const Matrix& att_r,
                             float leaky_alpha, bool relu) {
  const auto edges = static_cast<models::Index>(gdev.csr->num_edges());
  pipeline::GatLayer l;
  l.w = ws.from(ctx, w, "w");
  l.att_l = ws.from(ctx, att_l, "att_l");
  l.att_r = ws.from(ctx, att_r, "att_r");
  l.t = ws.mat(ctx, in.rows, w.cols(), "transformed");
  l.att_src = ws.mat(ctx, in.rows, 1, "att_src");
  l.att_dst = ws.mat(ctx, in.rows, 1, "att_dst");
  l.e = ws.mat(ctx, edges, 1, "e");
  l.vacc = ws.mat(ctx, in.rows, 1, "v_acc");
  l.e_acc = ws.mat(ctx, edges, 1, "e_acc");
  l.out = ws.mat(ctx, in.rows, w.cols(), "aggregated");
  k::dense_gemm(ctx, {.a = &in, .b = &l.w, .c = &l.t});
  pipeline::gat_graph_ops(ctx, pipeline::GatGraphOps::kListing1,
                          {.graph = &gdev,
                           .tasks = tasks,
                           .layer = &l,
                           .leaky_alpha = leaky_alpha,
                           .relu = relu});
  return l.out;
}

}  // namespace

RunResult DglBackend::run_gcn(const Dataset& data, const GcnRun& run, ExecMode mode,
                              const sim::DeviceSpec& spec) {
  prof::Span span("DglBackend::run_gcn", "baseline");
  const std::uint64_t paper_bytes = dgl_footprint(graph::paper_stats(data.id), *run.cfg);
  if (paper_bytes > kDeviceBytes) return oom_result(paper_bytes);

  sim::SimContext ctx(pipeline::with_overhead(spec, kFrameworkOverheadCycles));
  Workspace ws(mode);
  const auto gdev = k::device_graph(ctx, data.csr, "csr");
  const auto tasks = k::natural_tasks(data.csr);
  const auto norm = ws.from_vec(ctx, models::gcn_edge_norm(data.csr), "gcn_norm");

  k::FeatureMat h = ws.from(ctx, *run.features, "x");
  for (std::size_t l = 0; l < run.params->weight.size(); ++l) {
    const bool last = l + 1 == run.params->weight.size();
    auto w = ws.from(ctx, run.params->weight[l], "w");
    auto bias = ws.from(ctx, run.params->bias[l], "b");
    auto t = ws.mat(ctx, h.rows, w.cols, "transformed");
    k::dense_gemm(ctx, {.a = &h, .b = &w, .c = &t});

    // DGL routes sum-reduce through the vendor library (cuSPARSE csrmm).
    auto agg = ws.mat(ctx, h.rows, w.cols, "aggregated");
    k::SpmmArgs spmm{.graph = &gdev,
                     .tasks = tasks,
                     .src = &t,
                     .edge_weight = &norm,
                     .out = &agg,
                     .phase = "graph_op"};
    k::spmm_vendor(ctx, spmm);

    // Separate bias + activation kernel (op-per-kernel execution).
    k::bias_act_kernel(ctx, {.bias = &bias, .mat = &agg, .relu = !last});
    h = agg;
  }
  RunResult r = pipeline::finish(ctx, spec, mode == ExecMode::kFull ? *h.host : Matrix());
  r.paper_bytes = paper_bytes;
  return r;
}

RunResult DglBackend::run_gat(const Dataset& data, const GatRun& run, ExecMode mode,
                              const sim::DeviceSpec& spec) {
  prof::Span span("DglBackend::run_gat", "baseline");
  const std::uint64_t paper_bytes = dgl_footprint_gat(graph::paper_stats(data.id), *run.cfg);
  if (paper_bytes > kDeviceBytes) return oom_result(paper_bytes);

  sim::SimContext ctx(pipeline::with_overhead(spec, kFrameworkOverheadCycles));
  Workspace ws(mode);
  const auto gdev = k::device_graph(ctx, data.csr, "csr");
  const auto tasks = k::natural_tasks(data.csr);

  k::FeatureMat h = ws.from(ctx, *run.features, "x");
  for (std::size_t l = 0; l < run.params->weight.size(); ++l) {
    h = listing1_layer(ctx, ws, gdev, tasks, h, run.params->weight[l], run.params->att_l[l],
                       run.params->att_r[l], run.cfg->leaky_alpha,
                       l + 1 != run.params->weight.size());
  }
  RunResult r = pipeline::finish(ctx, spec, mode == ExecMode::kFull ? *h.host : Matrix());
  r.paper_bytes = paper_bytes;
  return r;
}

RunResult DglBackend::run_sage_lstm(const Dataset& data, const SageLstmRun& run, ExecMode mode,
                                    const sim::DeviceSpec& spec) {
  prof::Span span("DglBackend::run_sage_lstm", "baseline");
  // SAGE-LSTM footprints are tiny (one [N, F] expansion buffer at a time).
  sim::SimContext ctx(pipeline::with_overhead(spec, kFrameworkOverheadCycles));
  Workspace ws(mode);
  const auto gdev = k::device_graph(ctx, data.csr, "csr");
  const models::Index n = data.csr.num_nodes;
  const models::Index hidden = run.cfg->hidden;

  auto x = ws.from(ctx, *run.features, "x");
  auto w = ws.from(ctx, run.params->w, "w");
  auto rmat = ws.from(ctx, run.params->r, "r");
  auto bias = ws.from(ctx, run.params->bias, "bias");
  auto hstate = ws.mat(ctx, n, hidden, "h");
  auto cstate = ws.mat(ctx, n, hidden, "c");
  auto x_t = ws.mat(ctx, n, run.cfg->in_feat, "x_t");
  auto g_in = ws.mat(ctx, n, 4 * hidden, "gates_in");
  auto g_rec = ws.mat(ctx, n, 4 * hidden, "gates_rec");
  auto gates = ws.mat(ctx, n, 4 * hidden, "gates");

  for (int t = 0; t < run.cfg->steps; ++t) {
    // Expansion: materialize the t-th neighbor features (Observation 4).
    k::step_gather(ctx, {.graph = &gdev, .step = t, .feat = &x, .out = &x_t});
    // Transformation on the expanded matrix — redone every step.
    k::dense_gemm(ctx, {.a = &x_t, .b = &w, .c = &g_in, .phase = "transformation"});
    k::dense_gemm(ctx, {.a = &hstate, .b = &rmat, .c = &g_rec, .phase = "recurrent"});
    k::dense_binary(ctx, {.a = &g_in,
                          .b = &g_rec,
                          .out = &gates,
                          .fn = [](float a, float b) { return a + b; },
                          .flops_per_elem = 1.0,
                          .name = "gates_add",
                          .phase = "lstm_cell"});
    k::lstm_pointwise(ctx, {.gates = &gates, .bias = &bias, .c = &cstate, .h = &hstate});
  }
  auto outw = ws.from(ctx, run.params->out_w, "out_w");
  auto out = ws.mat(ctx, n, hidden, "out");
  k::dense_gemm(ctx, {.a = &hstate, .b = &outw, .c = &out, .phase = "projection"});

  return pipeline::finish(ctx, spec, mode == ExecMode::kFull ? *out.host : Matrix());
}

RunResult DglBackend::run_multihead_gat(const Dataset& data, const MultiHeadGatRun& run,
                                        ExecMode mode, const sim::DeviceSpec& spec) {
  prof::Span span("DglBackend::run_multihead_gat", "baseline");
  // DGL executes each head as an independent Listing-1 pipeline: K times
  // the op count — the op-explosion face of Observation 3.
  sim::SimContext ctx(pipeline::with_overhead(spec, kFrameworkOverheadCycles));
  Workspace ws(mode);
  const auto gdev = k::device_graph(ctx, data.csr, "csr");
  const auto tasks = k::natural_tasks(data.csr);
  const auto head = [&](const k::FeatureMat& x, std::size_t h) {
    return listing1_layer(ctx, ws, gdev, tasks, x, run.params->weight[h], run.params->att_l[h],
                          run.params->att_r[h], run.cfg->leaky_alpha, /*relu=*/false);
  };
  return pipeline::finish(ctx, spec, pipeline::multihead_gat(ctx, ws, run, head));
}

RunResult DglBackend::run_sage_pool(const Dataset& data, const SagePoolRun& run, ExecMode mode,
                                    const sim::DeviceSpec& spec) {
  prof::Span span("DglBackend::run_sage_pool", "baseline");
  sim::SimContext ctx(pipeline::with_overhead(spec, kFrameworkOverheadCycles));
  Workspace ws(mode);
  const auto gdev = k::device_graph(ctx, data.csr, "csr");
  // Max aggregation: DGL's own node-parallel kernel (no vendor path for
  // non-sum reducers).
  const k::FeatureMat out =
      pipeline::sage_pool(ctx, ws, gdev, k::natural_tasks(data.csr), /*any_split=*/false,
                          /*lanes=*/32, run);
  return pipeline::finish(ctx, spec, mode == ExecMode::kFull ? *out.host : Matrix());
}

}  // namespace gnnbridge::baselines
