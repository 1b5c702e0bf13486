#include "kernels/fused.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "kernels/edge_ops.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/spmm.hpp"
#include "tests/testing/util.hpp"

namespace gnnbridge::kernels {
namespace {

using testing::random_graph;
using testing::random_matrix;

/// Everything a GAT layer's graph phase needs.
struct GatHarness {
  sim::SimContext ctx{sim::v100()};
  graph::Csr csr;
  GraphOnDevice gdev;
  Matrix att_src_host, att_dst_host, feat_host;
  Matrix e_host, vacc_host, out_host;
  FeatureMat att_src, att_dst, feat, e, vacc, out;

  GatHarness(graph::Csr g, Index f, std::uint64_t seed) : csr(std::move(g)) {
    gdev = device_graph(ctx, csr, "g");
    att_src_host = random_matrix(csr.num_nodes, 1, seed);
    att_dst_host = random_matrix(csr.num_nodes, 1, seed + 1);
    feat_host = random_matrix(csr.num_nodes, f, seed + 2);
    e_host = Matrix(csr.num_edges(), 1);
    vacc_host = Matrix(csr.num_nodes, 1);
    out_host = Matrix(csr.num_nodes, f);
    att_src = device_mat(ctx, att_src_host, "as");
    att_dst = device_mat(ctx, att_dst_host, "ad");
    feat = device_mat(ctx, feat_host, "feat");
    e = device_mat(ctx, e_host, "e");
    vacc = device_mat(ctx, vacc_host, "vacc");
    out = device_mat(ctx, out_host, "out");
  }

  /// The unfused Listing-1 reference result for the same inputs.
  Matrix reference() {
    Matrix exp_scores(csr.num_edges(), 1);
    Matrix acc(csr.num_nodes, 1);
    for (graph::NodeId v = 0; v < csr.num_nodes; ++v) {
      for (graph::EdgeId i = csr.row_ptr[v]; i < csr.row_ptr[static_cast<std::size_t>(v) + 1];
           ++i) {
        const graph::NodeId u = csr.col_idx[static_cast<std::size_t>(i)];
        const float raw = att_src_host(u, 0) + att_dst_host(v, 0);
        const float score = std::exp(raw >= 0.0f ? raw : 0.2f * raw);
        exp_scores(i, 0) = score;
        acc(v, 0) += score;
      }
    }
    Matrix result(csr.num_nodes, feat_host.cols());
    for (graph::NodeId v = 0; v < csr.num_nodes; ++v) {
      const float inv = acc(v, 0) != 0.0f ? 1.0f / acc(v, 0) : 0.0f;
      for (graph::EdgeId i = csr.row_ptr[v]; i < csr.row_ptr[static_cast<std::size_t>(v) + 1];
           ++i) {
        const graph::NodeId u = csr.col_idx[static_cast<std::size_t>(i)];
        const float w = exp_scores(i, 0) * inv;
        for (Index c = 0; c < feat_host.cols(); ++c) result(v, c) += w * feat_host(u, c);
      }
    }
    return result;
  }
};

TEST(GatEdgeFused, ScoresMatchUnfusedPipeline) {
  GatHarness h(random_graph(40, 5.0, 1), 8, 2);
  const auto tasks = natural_tasks(h.csr);
  gat_edge_fused(h.ctx, {.graph = &h.gdev, .tasks = tasks, .att_src = &h.att_src,
                         .att_dst = &h.att_dst, .edge_out = &h.e, .vacc_out = nullptr});
  for (graph::NodeId v = 0; v < h.csr.num_nodes; ++v) {
    for (graph::EdgeId i = h.csr.row_ptr[v];
         i < h.csr.row_ptr[static_cast<std::size_t>(v) + 1]; ++i) {
      const graph::NodeId u = h.csr.col_idx[static_cast<std::size_t>(i)];
      const float raw = h.att_src_host(u, 0) + h.att_dst_host(v, 0);
      const float expect = std::exp(raw >= 0.0f ? raw : 0.2f * raw);
      EXPECT_NEAR(h.e_host(i, 0), expect, 1e-5f);
    }
  }
}

TEST(GatEdgeFused, AccumulatesNormalizationSum) {
  GatHarness h(random_graph(30, 4.0, 3), 4, 4);
  const auto tasks = natural_tasks(h.csr);
  gat_edge_fused(h.ctx, {.graph = &h.gdev, .tasks = tasks, .att_src = &h.att_src,
                         .att_dst = &h.att_dst, .edge_out = &h.e, .vacc_out = &h.vacc});
  for (graph::NodeId v = 0; v < h.csr.num_nodes; ++v) {
    float expect = 0.0f;
    for (graph::EdgeId i = h.csr.row_ptr[v];
         i < h.csr.row_ptr[static_cast<std::size_t>(v) + 1]; ++i) {
      expect += h.e_host(i, 0);
    }
    EXPECT_NEAR(h.vacc_host(v, 0), expect, 1e-4f);
  }
}

TEST(GatTwoKernelPipeline, MatchesReference) {
  GatHarness h(random_graph(50, 6.0, 5), 10, 6);
  const auto tasks = natural_tasks(h.csr);
  gat_edge_fused(h.ctx, {.graph = &h.gdev, .tasks = tasks, .att_src = &h.att_src,
                         .att_dst = &h.att_dst, .edge_out = &h.e, .vacc_out = &h.vacc});
  gat_aggregate_fused(h.ctx, {.graph = &h.gdev, .tasks = tasks, .feat = &h.feat,
                              .edge_weight = &h.e, .vacc = &h.vacc, .out = &h.out});
  EXPECT_TRUE(tensor::allclose(h.out_host, h.reference(), 1e-3f, 1e-4f));
}

TEST(GatTwoKernelPipeline, SplitTasksMatchReference) {
  // The whole point of the linear property: NG-split tasks still give the
  // correct softmax-normalized aggregation.
  GatHarness h(random_graph(40, 12.0, 7), 6, 8);
  const GroupedTasks grouped = neighbor_group_tasks(h.csr, 4);
  ASSERT_TRUE(grouped.any_split);
  gat_edge_fused(h.ctx, {.graph = &h.gdev, .tasks = grouped.tasks, .att_src = &h.att_src,
                         .att_dst = &h.att_dst, .edge_out = &h.e, .vacc_out = &h.vacc,
                         .atomic_merge = true});
  gat_aggregate_fused(h.ctx, {.graph = &h.gdev, .tasks = grouped.tasks, .feat = &h.feat,
                              .edge_weight = &h.e, .vacc = &h.vacc, .out = &h.out,
                              .atomic_merge = true});
  EXPECT_TRUE(tensor::allclose(h.out_host, h.reference(), 1e-3f, 1e-4f));
}

TEST(GatAdapterOnlyPipeline, MatchesReference) {
  // Adapter without the linear property: materialized normalized weights.
  GatHarness h(random_graph(35, 5.0, 9), 7, 10);
  const auto tasks = natural_tasks(h.csr);
  gat_edge_fused(h.ctx, {.graph = &h.gdev, .tasks = tasks, .att_src = &h.att_src,
                         .att_dst = &h.att_dst, .edge_out = &h.e, .vacc_out = nullptr});
  segment_sum(h.ctx,
              {.graph = &h.gdev, .tasks = tasks, .edge_val = &h.e, .node_out = &h.vacc});
  softmax_div_fused(h.ctx, {.graph = &h.gdev, .tasks = tasks, .vacc = &h.vacc, .edge = &h.e});
  gat_aggregate_fused(h.ctx, {.graph = &h.gdev, .tasks = tasks, .feat = &h.feat,
                              .edge_weight = &h.e, .vacc = nullptr, .out = &h.out});
  EXPECT_TRUE(tensor::allclose(h.out_host, h.reference(), 1e-3f, 1e-4f));
}

TEST(FusedPipeline, FewerLaunchesThanListing1) {
  GatHarness h(random_graph(30, 4.0, 11), 4, 12);
  const auto tasks = natural_tasks(h.csr);
  h.ctx.take_stats();  // count from here
  gat_edge_fused(h.ctx, {.graph = &h.gdev, .tasks = tasks, .att_src = &h.att_src,
                         .att_dst = &h.att_dst, .edge_out = &h.e, .vacc_out = &h.vacc});
  gat_aggregate_fused(h.ctx, {.graph = &h.gdev, .tasks = tasks, .feat = &h.feat,
                              .edge_weight = &h.e, .vacc = &h.vacc, .out = &h.out});
  EXPECT_EQ(h.ctx.stats().num_launches(), 2);  // vs 7 in Listing 1
}

TEST(AggregateBiasActFused, MatchesSeparateKernels) {
  const graph::Csr csr = random_graph(40, 5.0, 13);
  sim::SimContext ctx(sim::v100());
  auto gdev = device_graph(ctx, csr, "g");
  Matrix feat_host = random_matrix(40, 8, 14);
  Matrix ew_host = random_matrix(csr.num_edges(), 1, 15, 0.1f, 1.0f);
  Matrix bias_host = random_matrix(8, 1, 16, -0.5f, 0.5f);
  Matrix fused_out_host(40, 8), sep_out_host(40, 8);
  auto feat = device_mat(ctx, feat_host, "feat");
  auto ew = device_mat(ctx, ew_host, "ew");
  auto bias = device_mat(ctx, bias_host, "bias");
  auto fused_out = device_mat(ctx, fused_out_host, "fo");
  auto sep_out = device_mat(ctx, sep_out_host, "so");
  const auto tasks = natural_tasks(csr);

  aggregate_bias_act_fused(ctx, {.graph = &gdev, .tasks = tasks, .feat = &feat,
                                 .edge_weight = &ew, .bias = &bias, .out = &fused_out,
                                 .relu = true});

  SpmmArgs spmm{.graph = &gdev, .tasks = tasks, .src = &feat, .edge_weight = &ew,
                .out = &sep_out};
  spmm_node(ctx, spmm);
  bias_act_kernel(ctx, {.bias = &bias, .mat = &sep_out, .relu = true});

  EXPECT_TRUE(tensor::allclose(fused_out_host, sep_out_host, 1e-4f, 1e-5f));
}

TEST(AggregateBiasActFused, DeferredEpilogueUnderSplit) {
  const graph::Csr csr = testing::star_graph(30);
  sim::SimContext ctx(sim::v100());
  auto gdev = device_graph(ctx, csr, "g");
  Matrix feat_host = random_matrix(30, 4, 17);
  Matrix bias_host = random_matrix(4, 1, 18);
  Matrix out_host(30, 4), ref_host(30, 4);
  auto feat = device_mat(ctx, feat_host, "feat");
  auto bias = device_mat(ctx, bias_host, "bias");
  auto out = device_mat(ctx, out_host, "out");
  auto ref = device_mat(ctx, ref_host, "ref");

  const auto whole = natural_tasks(csr);
  aggregate_bias_act_fused(ctx, {.graph = &gdev, .tasks = whole, .feat = &feat, .bias = &bias,
                                 .out = &ref, .relu = true});

  const GroupedTasks grouped = neighbor_group_tasks(csr, 8);
  ASSERT_TRUE(grouped.any_split);
  aggregate_bias_act_fused(ctx, {.graph = &gdev, .tasks = grouped.tasks, .feat = &feat,
                                 .bias = &bias, .out = &out, .relu = true,
                                 .epilogue_inline = false, .atomic_merge = true});
  bias_act_kernel(ctx, {.bias = &bias, .mat = &out, .relu = true});
  EXPECT_TRUE(tensor::allclose(out_host, ref_host, 1e-4f, 1e-5f));
}

TEST(BiasActKernel, NoBiasJustActivation) {
  sim::SimContext ctx(sim::v100());
  Matrix m_host(1, 3, {-1, 0, 2});
  auto m = device_mat(ctx, m_host, "m");
  bias_act_kernel(ctx, {.bias = nullptr, .mat = &m, .relu = true});
  EXPECT_EQ(m_host, Matrix(1, 3, {0, 0, 2}));
}

}  // namespace
}  // namespace gnnbridge::kernels
