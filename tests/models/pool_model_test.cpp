#include "models/pool_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "models/layers.hpp"
#include "tensor/activations.hpp"
#include "tensor/ops.hpp"
#include "tests/testing/util.hpp"

namespace gnnbridge::models {
namespace {

TEST(SagePool, OutputShape) {
  const Csr g = testing::random_graph(20, 4.0, 1);
  SagePoolConfig cfg;
  cfg.in_feat = 10;
  cfg.pool_dim = 6;
  cfg.out_feat = 3;
  const SagePoolParams p = init_sage_pool(cfg, 2);
  const Matrix x = init_features(20, 10, 2);
  const Matrix out = sage_pool_forward_ref(g, x, cfg, p);
  EXPECT_EQ(out.rows(), 20);
  EXPECT_EQ(out.cols(), 3);
}

TEST(SagePool, AgreesWithLayerPoolingPrimitive) {
  // The model's pooling stage equals Table 1's pooling layer with unit
  // edge weights, up to the bias fold (layer_pooling has no bias).
  const Csr g = testing::random_graph(15, 3.0, 3);
  SagePoolConfig cfg;
  cfg.in_feat = 8;
  cfg.pool_dim = 5;
  cfg.out_feat = 4;
  SagePoolParams p = init_sage_pool(cfg, 4);
  p.b_pool.fill(0.0f);  // align with the bias-less primitive
  const Matrix x = init_features(15, 8, 4);

  const Matrix pooled_layer = layer_pooling(g, x, p.w_pool, edge_const(g));
  const Matrix full = sage_pool_forward_ref(g, x, cfg, p);
  const Matrix expect = tensor::gemm(pooled_layer, p.w_out);
  EXPECT_TRUE(tensor::allclose(full, expect, 1e-4f, 1e-5f));
}

TEST(SagePool, IsolatedNodesPoolToZero) {
  const Csr g = testing::csr_from_edges(4, {{0, 1}});
  SagePoolConfig cfg;
  cfg.in_feat = 4;
  cfg.pool_dim = 3;
  cfg.out_feat = 2;
  const SagePoolParams p = init_sage_pool(cfg, 5);
  const Matrix x = init_features(4, 4, 5);
  const Matrix out = sage_pool_forward_ref(g, x, cfg, p);
  // Nodes 1..3 have no in-neighbors: pooled = 0 => out = 0 * W = 0.
  for (NodeId v = 1; v < 4; ++v) {
    for (Index c = 0; c < 2; ++c) EXPECT_EQ(out(v, c), 0.0f);
  }
}

TEST(SagePool, MonotoneInNeighborFeatures) {
  // Raising every input feature (with non-negative pool weights) cannot
  // lower the ReLU'd pooled maxima.
  const Csr g = testing::random_graph(12, 4.0, 6);
  SagePoolConfig cfg;
  cfg.in_feat = 5;
  cfg.pool_dim = 4;
  cfg.out_feat = 4;
  SagePoolParams p = init_sage_pool(cfg, 7);
  for (Index i = 0; i < p.w_pool.size(); ++i) {
    p.w_pool.data()[i] = std::fabs(p.w_pool.data()[i]);
  }
  // Identity-ish output weights isolate the pooled stage.
  p.w_out.fill(0.0f);
  for (Index i = 0; i < 4; ++i) p.w_out(i, i) = 1.0f;

  Matrix x = init_features(12, 5, 8);
  for (Index i = 0; i < x.size(); ++i) x.data()[i] = std::fabs(x.data()[i]);
  const Matrix lo = sage_pool_forward_ref(g, x, cfg, p);
  for (Index i = 0; i < x.size(); ++i) x.data()[i] *= 2.0f;
  const Matrix hi = sage_pool_forward_ref(g, x, cfg, p);
  for (Index i = 0; i < lo.size(); ++i) EXPECT_GE(hi.data()[i], lo.data()[i] - 1e-5f);
}

}  // namespace
}  // namespace gnnbridge::models
