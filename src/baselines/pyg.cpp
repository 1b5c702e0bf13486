#include "baselines/pyg.hpp"

#include <cmath>

#include "baselines/footprint.hpp"
#include "baselines/pipeline.hpp"
#include "kernels/dense.hpp"
#include "kernels/edge_ops.hpp"
#include "kernels/expand.hpp"
#include "kernels/fused.hpp"
#include "tensor/activations.hpp"
#include "prof/span.hpp"

namespace gnnbridge::baselines {

namespace k = gnnbridge::kernels;

namespace {
/// PyG/PyTorch per-op scheduling cost (Observation 3).
constexpr sim::Cycles kFrameworkOverheadCycles = 30000.0;
}  // namespace

RunResult PygBackend::run_gcn(const Dataset& data, const GcnRun& run, ExecMode mode,
                              const sim::DeviceSpec& spec) {
  prof::Span span("PygBackend::run_gcn", "baseline");
  const std::uint64_t paper_bytes = pyg_footprint_gcn(graph::paper_stats(data.id), *run.cfg);
  if (paper_bytes > kDeviceBytes) return {.oom = true, .paper_bytes = paper_bytes};

  sim::SimContext ctx(pipeline::with_overhead(spec, kFrameworkOverheadCycles));
  pipeline::Workspace ws(mode);
  const auto edev = k::device_edges(ctx, data.coo, "coo");
  // Canonical COO is (dst, src)-sorted — the same edge order as the CSR, so
  // the CSR-derived normalization aligns slot for slot.
  const auto norm = ws.from_vec(ctx, models::gcn_edge_norm(data.csr), "gcn_norm");

  k::FeatureMat h = ws.from(ctx, *run.features, "x");
  for (std::size_t l = 0; l < run.params->weight.size(); ++l) {
    const bool last = l + 1 == run.params->weight.size();
    auto w = ws.from(ctx, run.params->weight[l], "w");
    auto bias = ws.from(ctx, run.params->bias[l], "b");
    auto t = ws.mat(ctx, h.rows, w.cols, "transformed");
    k::dense_gemm(ctx, {.a = &h, .b = &w, .c = &t, .mode = mode});

    // Step 1: index-select expansion to [E, F]; step 2: scatter-reduce.
    auto expanded = ws.mat(ctx, data.coo.num_edges(), w.cols, "expanded");
    k::gather(ctx, {.edges = &edev, .by_src = true, .feat = &t, .expanded = &expanded,
                    .mode = mode});
    auto agg = ws.mat(ctx, h.rows, w.cols, "aggregated");
    k::scatter_reduce(ctx, {.edges = &edev,
                            .expanded = &expanded,
                            .edge_weight = &norm,
                            .out = &agg,
                            .mode = mode});
    k::bias_act_kernel(ctx, {.bias = &bias, .mat = &agg, .relu = !last, .mode = mode});
    h = agg;
  }
  RunResult r = pipeline::finish(ctx, spec, mode == ExecMode::kFull ? *h.host : Matrix());
  r.paper_bytes = paper_bytes;
  return r;
}

RunResult PygBackend::run_gat(const Dataset& data, const GatRun& run, ExecMode mode,
                              const sim::DeviceSpec& spec) {
  prof::Span span("PygBackend::run_gat", "baseline");
  const std::uint64_t paper_bytes = pyg_footprint_gat(graph::paper_stats(data.id), *run.cfg);
  if (paper_bytes > kDeviceBytes) return {.oom = true, .paper_bytes = paper_bytes};

  sim::SimContext ctx(pipeline::with_overhead(spec, kFrameworkOverheadCycles));
  pipeline::Workspace ws(mode);
  const auto edev = k::device_edges(ctx, data.coo, "coo");
  const graph::EdgeId num_edges = data.coo.num_edges();
  const float alpha = run.cfg->leaky_alpha;

  k::FeatureMat h = ws.from(ctx, *run.features, "x");
  for (std::size_t l = 0; l < run.params->weight.size(); ++l) {
    const bool last = l + 1 == run.params->weight.size();
    auto w = ws.from(ctx, run.params->weight[l], "w");
    auto al = ws.from(ctx, run.params->att_l[l], "att_l");
    auto ar = ws.from(ctx, run.params->att_r[l], "att_r");
    auto t = ws.mat(ctx, h.rows, w.cols, "transformed");
    k::dense_gemm(ctx, {.a = &h, .b = &w, .c = &t, .mode = mode});
    auto att_src = ws.mat(ctx, h.rows, 1, "att_src");
    auto att_dst = ws.mat(ctx, h.rows, 1, "att_dst");
    k::row_dot(ctx, {.feat = &t, .vec = &al, .out = &att_src, .mode = mode});
    k::row_dot(ctx, {.feat = &t, .vec = &ar, .out = &att_dst, .mode = mode});

    // Edge-parallel attention: gather both endpoint scalars per edge.
    auto att_src_e = ws.mat(ctx, num_edges, 1, "att_src_e");
    auto att_dst_e = ws.mat(ctx, num_edges, 1, "att_dst_e");
    k::gather(ctx, {.edges = &edev, .by_src = true, .feat = &att_src, .expanded = &att_src_e,
                    .mode = mode});
    k::gather(ctx, {.edges = &edev, .by_src = false, .feat = &att_dst, .expanded = &att_dst_e,
                    .mode = mode});
    auto e = ws.mat(ctx, num_edges, 1, "e");
    k::edge_binary(ctx, {.a = &att_src_e,
                         .b = &att_dst_e,
                         .out = &e,
                         .fn = [alpha](float a, float b) {
                           return tensor::leaky_relu_scalar(a + b, alpha);
                         },
                         .flops_per_elem = 2.0,
                         .mode = mode,
                         .name = "add_leaky"});
    k::edge_map(ctx, {.in = &e,
                      .out = &e,
                      .fn = [](float x) { return std::exp(x); },
                      .flops_per_elem = 4.0,
                      .mode = mode,
                      .name = "exp"});
    auto vacc = ws.mat(ctx, h.rows, 1, "v_acc");
    k::scatter_reduce(ctx, {.edges = &edev, .expanded = &e, .out = &vacc, .mode = mode,
                            .name = "scatter_sum_e"});
    auto eacc = ws.mat(ctx, num_edges, 1, "e_acc");
    k::gather(ctx, {.edges = &edev, .by_src = false, .feat = &vacc, .expanded = &eacc,
                    .mode = mode, .name = "gather_acc"});
    k::edge_binary(ctx, {.a = &e,
                         .b = &eacc,
                         .out = &e,
                         .fn = [](float x, float acc) { return acc != 0.0f ? x / acc : 0.0f; },
                         .flops_per_elem = 1.0,
                         .mode = mode,
                         .name = "softmax_div"});

    // Message expansion + weighted scatter (two [E, F] tensors live).
    auto expanded = ws.mat(ctx, num_edges, w.cols, "x_j");
    k::gather(ctx, {.edges = &edev, .by_src = true, .feat = &t, .expanded = &expanded,
                    .mode = mode});
    auto agg = ws.mat(ctx, h.rows, w.cols, "aggregated");
    k::scatter_reduce(ctx, {.edges = &edev,
                            .expanded = &expanded,
                            .edge_weight = &e,
                            .out = &agg,
                            .mode = mode});
    if (!last) {
      k::dense_map(ctx, {.in = &agg,
                         .out = &agg,
                         .fn = [](float x) { return x > 0.0f ? x : 0.0f; },
                         .flops_per_elem = 1.0,
                         .mode = mode,
                         .name = "relu"});
    }
    h = agg;
  }
  RunResult r = pipeline::finish(ctx, spec, mode == ExecMode::kFull ? *h.host : Matrix());
  r.paper_bytes = paper_bytes;
  return r;
}

RunResult PygBackend::run_sage_lstm(const Dataset&, const SageLstmRun&, ExecMode,
                                    const sim::DeviceSpec&) {
  prof::Span span("PygBackend::run_sage_lstm", "baseline");
  // PyG (1.5) has no LSTM aggregator — "x" in Figure 7c.
  RunResult r;
  r.oom = false;
  return r;
}

}  // namespace gnnbridge::baselines
