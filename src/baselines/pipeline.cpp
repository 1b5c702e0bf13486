#include "baselines/pipeline.hpp"

#include <cmath>

#include "kernels/dense.hpp"
#include "kernels/edge_ops.hpp"
#include "kernels/fused.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/spmm.hpp"
#include "tensor/activations.hpp"

namespace gnnbridge::baselines::pipeline {

namespace {
void relu_in_place(sim::SimContext& ctx, k::FeatureMat& m, k::ExecMode mode) {
  k::dense_map(ctx, {.in = &m,
                     .out = &m,
                     .fn = [](float x) { return x > 0.0f ? x : 0.0f; },
                     .flops_per_elem = 1.0,
                     .mode = mode,
                     .name = "relu"});
}
}  // namespace

RunResult finish(sim::SimContext& ctx, const sim::DeviceSpec& spec, Matrix output) {
  RunResult r;
  r.stats = ctx.stats();
  r.ms = spec.millis(r.stats.total_cycles);
  r.output = std::move(output);
  return r;
}

GcnLayer gcn_layer_buffers(sim::SimContext& ctx, Workspace& ws, models::Index rows,
                           const Matrix& w, const Matrix& b) {
  // Braced initializers run in order: this is the allocation order.
  return {.w = ws.from(ctx, w, "w"),
          .b = ws.from(ctx, b, "b"),
          .t = ws.mat(ctx, rows, w.cols(), "transformed"),
          .out = ws.mat(ctx, rows, w.cols(), "aggregated")};
}

void gcn_aggregate(sim::SimContext& ctx, const GcnAggregateArgs& a) {
  GcnLayer& l = *a.layer;
  if (a.fused) {
    k::aggregate_bias_act_fused(ctx, {.graph = a.graph,
                                      .tasks = a.tasks,
                                      .feat = &l.t,
                                      .edge_weight = a.norm,
                                      .bias = &l.b,
                                      .out = &l.out,
                                      .relu = a.relu,
                                      .epilogue_inline = !a.any_split,
                                      .lanes = a.lanes,
                                      .atomic_merge = a.any_split,
                                      .mode = a.mode});
    if (a.any_split) {
      k::bias_act_kernel(ctx, {.bias = &l.b, .mat = &l.out, .relu = a.relu, .mode = a.mode});
    }
    return;
  }
  k::spmm_node(ctx, {.graph = a.graph,
                     .tasks = a.tasks,
                     .src = &l.t,
                     .edge_weight = a.norm,
                     .out = &l.out,
                     .lanes = a.lanes,
                     .atomic_merge = a.any_split,
                     .mode = a.mode});
  k::bias_act_kernel(ctx, {.bias = &l.b, .mat = &l.out, .relu = false, .mode = a.mode,
                           .name = "bias_add"});
  if (a.relu) relu_in_place(ctx, l.out, a.mode);
}

GatLayer gat_layer_buffers(sim::SimContext& ctx, Workspace& ws, models::Index rows,
                           models::Index edges, const Matrix& w, const Matrix& att_l,
                           const Matrix& att_r, GatGraphOps ops) {
  // Braced initializers run in order: this is the allocation order.
  return {.w = ws.from(ctx, w, "w"),
          .att_l = ws.from(ctx, att_l, "att_l"),
          .att_r = ws.from(ctx, att_r, "att_r"),
          .t = ws.mat(ctx, rows, w.cols(), "transformed"),
          .att_src = ws.mat(ctx, rows, 1, "att_src"),
          .att_dst = ws.mat(ctx, rows, 1, "att_dst"),
          .e = ws.mat(ctx, edges, 1, "e"),
          .vacc = ws.mat(ctx, rows, 1, "v_acc"),
          .out = ws.mat(ctx, rows, w.cols(), "aggregated"),
          .e_acc = ops == GatGraphOps::kListing1 ? ws.mat(ctx, edges, 1, "e_acc")
                                                 : k::FeatureMat{}};
}

void gat_graph_ops(sim::SimContext& ctx, GatGraphOps ops, const GatGraphOpsArgs& a) {
  GatLayer& l = *a.layer;
  const float alpha = a.leaky_alpha;
  k::row_dot(ctx, {.feat = &l.t, .vec = &l.att_l, .out = &l.att_src, .mode = a.mode});
  k::row_dot(ctx, {.feat = &l.t, .vec = &l.att_r, .out = &l.att_dst, .mode = a.mode});
  switch (ops) {
    case GatGraphOps::kLinear:
      k::gat_edge_fused(ctx, {.graph = a.graph,
                              .tasks = a.tasks,
                              .att_src = &l.att_src,
                              .att_dst = &l.att_dst,
                              .edge_out = &l.e,
                              .vacc_out = &l.vacc,
                              .leaky_alpha = alpha,
                              .atomic_merge = a.any_split,
                              .mode = a.mode});
      k::gat_aggregate_fused(ctx, {.graph = a.graph,
                                   .tasks = a.tasks,
                                   .feat = &l.t,
                                   .edge_weight = &l.e,
                                   .vacc = &l.vacc,
                                   .out = &l.out,
                                   .scale_inline = true,
                                   .lanes = a.lanes,
                                   .atomic_merge = a.any_split,
                                   .mode = a.mode});
      break;
    case GatGraphOps::kAdapter:
      k::gat_edge_fused(ctx, {.graph = a.graph,
                              .tasks = a.tasks,
                              .att_src = &l.att_src,
                              .att_dst = &l.att_dst,
                              .edge_out = &l.e,
                              .vacc_out = nullptr,
                              .leaky_alpha = alpha,
                              .mode = a.mode});
      k::segment_sum(ctx, {.graph = a.graph,
                           .tasks = a.tasks,
                           .edge_val = &l.e,
                           .node_out = &l.vacc,
                           .atomic_merge = a.any_split,
                           .mode = a.mode});
      k::softmax_div_fused(ctx, {.graph = a.graph, .tasks = a.tasks, .vacc = &l.vacc,
                                 .edge = &l.e, .mode = a.mode});
      k::gat_aggregate_fused(ctx, {.graph = a.graph,
                                   .tasks = a.tasks,
                                   .feat = &l.t,
                                   .edge_weight = &l.e,
                                   .vacc = nullptr,
                                   .out = &l.out,
                                   .lanes = a.lanes,
                                   .atomic_merge = a.any_split,
                                   .mode = a.mode});
      break;
    case GatGraphOps::kListing1:
      k::u_add_v(ctx, {.graph = a.graph,
                       .tasks = a.tasks,
                       .src_scalar = &l.att_src,
                       .dst_scalar = &l.att_dst,
                       .edge_out = &l.e,
                       .mode = a.mode});
      k::edge_map(ctx, {.in = &l.e,
                        .out = &l.e,
                        .fn = [alpha](float x) { return tensor::leaky_relu_scalar(x, alpha); },
                        .flops_per_elem = 1.0,
                        .mode = a.mode,
                        .name = "leaky_relu"});
      k::edge_map(ctx, {.in = &l.e,
                        .out = &l.e,
                        .fn = [](float x) { return std::exp(x); },
                        .flops_per_elem = 4.0,
                        .mode = a.mode,
                        .name = "exp"});
      k::segment_sum(ctx, {.graph = a.graph,
                           .tasks = a.tasks,
                           .edge_val = &l.e,
                           .node_out = &l.vacc,
                           .atomic_merge = a.any_split,
                           .mode = a.mode});
      k::broadcast_edge(ctx, {.graph = a.graph, .tasks = a.tasks, .node_val = &l.vacc,
                              .edge_out = &l.e_acc, .mode = a.mode});
      k::edge_binary(ctx, {.a = &l.e,
                           .b = &l.e_acc,
                           .out = &l.e,
                           .fn = [](float x, float acc) { return acc != 0.0f ? x / acc : 0.0f; },
                           .flops_per_elem = 1.0,
                           .mode = a.mode,
                           .name = "softmax_div"});
      k::spmm_node(ctx, {.graph = a.graph,
                         .tasks = a.tasks,
                         .src = &l.t,
                         .edge_weight = &l.e,
                         .out = &l.out,
                         .lanes = a.lanes,
                         .atomic_merge = a.any_split,
                         .mode = a.mode,
                         .name = "u_mul_e_sum"});
      break;
  }
  if (a.relu) relu_in_place(ctx, l.out, a.mode);
}

k::FeatureMat sage_pool(sim::SimContext& ctx, Workspace& ws, const k::GraphOnDevice& graph,
                        std::span<const k::Task> tasks, bool any_split, int lanes,
                        const SagePoolRun& run, k::ExecMode mode) {
  const k::FeatureMat x = ws.from(ctx, *run.features, "x");
  auto w_pool = ws.from(ctx, run.params->w_pool, "w_pool");
  auto b_pool = ws.from(ctx, run.params->b_pool, "b_pool");
  auto w_out = ws.from(ctx, run.params->w_out, "w_out");

  auto t = ws.mat(ctx, x.rows, w_pool.cols, "transformed");
  k::dense_gemm(ctx, {.a = &x, .b = &w_pool, .c = &t, .mode = mode});
  k::bias_act_kernel(ctx, {.bias = &b_pool, .mat = &t, .relu = true, .mode = mode});

  auto pooled = ws.mat(ctx, x.rows, w_pool.cols, "pooled");
  k::spmm_node(ctx, {.graph = &graph,
                     .tasks = tasks,
                     .src = &t,
                     .out = &pooled,
                     .reduce = k::Reduce::kMax,
                     .lanes = lanes,
                     .atomic_merge = any_split,
                     .mode = mode,
                     .name = "max_aggregate"});

  auto out = ws.mat(ctx, x.rows, w_out.cols, "out");
  k::dense_gemm(ctx, {.a = &pooled, .b = &w_out, .c = &out, .mode = mode});
  return out;
}

}  // namespace gnnbridge::baselines::pipeline
