#include "kernels/expand.hpp"

#include <gtest/gtest.h>

#include "models/layers.hpp"
#include "tests/testing/util.hpp"

namespace gnnbridge::kernels {
namespace {

using testing::random_matrix;

struct ExpandHarness {
  sim::SimContext ctx{sim::v100()};
  graph::Coo coo;
  graph::Csr csr;
  EdgeListOnDevice edev;
  GraphOnDevice gdev;

  explicit ExpandHarness(graph::NodeId n, double deg, std::uint64_t seed) {
    tensor::Rng rng(seed);
    coo = graph::erdos_renyi(n, deg, rng);
    csr = graph::csr_from_coo(coo);
    edev = device_edges(ctx, coo, "e");
    gdev = device_graph(ctx, csr, "g");
  }
};

TEST(Gather, BySrcCopiesSourceRows) {
  ExpandHarness h(30, 4.0, 1);
  Matrix feat_host = random_matrix(30, 6, 2);
  Matrix exp_host(h.coo.num_edges(), 6);
  auto feat = device_mat(h.ctx, feat_host, "feat");
  auto expanded = device_mat(h.ctx, exp_host, "exp");
  gather(h.ctx, {.edges = &h.edev, .by_src = true, .feat = &feat, .expanded = &expanded});
  for (graph::EdgeId e = 0; e < h.coo.num_edges(); ++e) {
    const graph::NodeId u = h.coo.src[static_cast<std::size_t>(e)];
    for (Index f = 0; f < 6; ++f) EXPECT_EQ(exp_host(e, f), feat_host(u, f));
  }
}

TEST(Gather, ByDstCopiesDestRows) {
  ExpandHarness h(25, 3.0, 3);
  Matrix feat_host = random_matrix(25, 1, 4);
  Matrix exp_host(h.coo.num_edges(), 1);
  auto feat = device_mat(h.ctx, feat_host, "feat");
  auto expanded = device_mat(h.ctx, exp_host, "exp");
  gather(h.ctx, {.edges = &h.edev, .by_src = false, .feat = &feat, .expanded = &expanded});
  for (graph::EdgeId e = 0; e < h.coo.num_edges(); ++e) {
    EXPECT_EQ(exp_host(e, 0), feat_host(h.coo.dst[static_cast<std::size_t>(e)], 0));
  }
}

TEST(Gather, BlockCountIsEdgeChunked) {
  ExpandHarness h(100, 6.0, 5);
  Matrix feat_host = random_matrix(100, 4, 6);
  Matrix exp_host(h.coo.num_edges(), 4);
  auto feat = device_mat(h.ctx, feat_host, "feat");
  auto expanded = device_mat(h.ctx, exp_host, "exp");
  const sim::KernelStats& ks =
      gather(h.ctx, {.edges = &h.edev, .by_src = true, .feat = &feat, .expanded = &expanded});
  const int expect = static_cast<int>((h.coo.num_edges() + kEdgeChunk - 1) / kEdgeChunk);
  EXPECT_EQ(ks.num_blocks, expect);
}

TEST(ScatterReduce, WeightedSumMatchesReference) {
  ExpandHarness h(40, 5.0, 7);
  Matrix feat_host = random_matrix(40, 8, 8);
  Matrix exp_host(h.coo.num_edges(), 8);
  Matrix ew_host = random_matrix(h.coo.num_edges(), 1, 9, 0.1f, 1.0f);
  Matrix out_host(40, 8);
  auto feat = device_mat(h.ctx, feat_host, "feat");
  auto expanded = device_mat(h.ctx, exp_host, "exp");
  auto ew = device_mat(h.ctx, ew_host, "ew");
  auto out = device_mat(h.ctx, out_host, "out");
  gather(h.ctx, {.edges = &h.edev, .by_src = true, .feat = &feat, .expanded = &expanded});
  scatter_reduce(h.ctx, {.edges = &h.edev, .expanded = &expanded, .edge_weight = &ew,
                         .out = &out});

  // Canonical COO and CSR share edge order, so the weights line up.
  const std::vector<float> w(ew_host.data(), ew_host.data() + ew_host.size());
  const Matrix expect = models::layer_sum(h.csr, feat_host, w);
  EXPECT_TRUE(tensor::allclose(out_host, expect, 1e-4f, 1e-5f));
}

TEST(StepGather, PicksTthNeighborWithWrap) {
  // Node 0 aggregates {1, 2}; step 5 -> index 5 % 2 = 1 -> neighbor 2.
  const graph::Csr csr = testing::csr_from_edges(3, {{0, 1}, {0, 2}});
  sim::SimContext ctx(sim::v100());
  auto gdev = device_graph(ctx, csr, "g");
  Matrix feat_host = random_matrix(3, 4, 14);
  Matrix out_host(3, 4);
  auto feat = device_mat(ctx, feat_host, "feat");
  auto out = device_mat(ctx, out_host, "out");
  step_gather(ctx, {.graph = &gdev, .step = 5, .feat = &feat, .out = &out});
  for (Index f = 0; f < 4; ++f) EXPECT_EQ(out_host(0, f), feat_host(2, f));
}

TEST(StepGather, IsolatedNodesSelfFallback) {
  const graph::Csr csr = testing::csr_from_edges(3, {{0, 1}});
  sim::SimContext ctx(sim::v100());
  auto gdev = device_graph(ctx, csr, "g");
  Matrix feat_host = random_matrix(3, 2, 15);
  Matrix out_host(3, 2);
  auto feat = device_mat(ctx, feat_host, "feat");
  auto out = device_mat(ctx, out_host, "out");
  step_gather(ctx, {.graph = &gdev, .step = 0, .feat = &feat, .out = &out});
  // Node 2 has no neighbors -> its own features.
  EXPECT_EQ(out_host(2, 0), feat_host(2, 0));
  EXPECT_EQ(out_host(2, 1), feat_host(2, 1));
}

TEST(ExpansionFootprint, GrowsWithEdgesTimesFeat) {
  // The Observation-4 memory cost: the [E, F] buffer dwarfs [N, F].
  ExpandHarness h(50, 10.0, 16);
  sim::SimContext& ctx = h.ctx;
  const auto before = ctx.mem().total_allocated();
  device_mat_shape(ctx, h.coo.num_edges(), 128, "expansion");
  const auto after = ctx.mem().total_allocated();
  EXPECT_EQ(after - before, static_cast<std::uint64_t>(h.coo.num_edges()) * 128 * 4);
}

}  // namespace
}  // namespace gnnbridge::kernels
