// Multi-head GAT: semantics and the op-count pressure of Observation 3.
#include <gtest/gtest.h>

#include <span>

#include "baselines/dgl.hpp"
#include "engine/engine.hpp"
#include "models/layers.hpp"
#include "models/multihead_gat.hpp"
#include "tensor/ops.hpp"
#include "tests/testing/util.hpp"

namespace gnnbridge {
namespace {

using baselines::RunResult;
using engine::OptimizedEngine;
using kernels::ExecMode;
using models::Matrix;

struct MhFixture : public ::testing::Test {
  graph::Dataset data = graph::make_dataset(graph::DatasetId::kCollab, 0.01);
  models::MultiHeadGatConfig cfg;
  models::MultiHeadGatParams params;
  Matrix x;

  MhFixture() {
    cfg.in_feat = 16;
    cfg.head_dim = 6;
    cfg.heads = 3;
    params = models::init_multihead_gat(cfg, 1);
    x = models::init_features(data.csr.num_nodes, 16, 2);
  }
};

TEST_F(MhFixture, ReferenceOutputShape) {
  const Matrix out = models::multihead_gat_forward_ref(data.csr, x, cfg, params);
  EXPECT_EQ(out.rows(), data.csr.num_nodes);
  EXPECT_EQ(out.cols(), 18);
}

TEST_F(MhFixture, SingleHeadMatchesGatLayer) {
  models::MultiHeadGatConfig one = cfg;
  one.heads = 1;
  const models::MultiHeadGatParams p1 = models::init_multihead_gat(one, 3);
  const Matrix out = models::multihead_gat_forward_ref(data.csr, x, one, p1);
  // Same math as the single-head GAT layer primitives.
  const Matrix t = tensor::gemm(x, p1.weight[0]);
  const auto scores = models::edge_gat(data.csr, t, p1.att_l[0], p1.att_r[0]);
  const Matrix expect = models::layer_softmax_aggr(data.csr, t, scores);
  EXPECT_TRUE(tensor::allclose(out, expect, 1e-4f, 1e-5f));
}

TEST_F(MhFixture, DglBackendMatchesReference) {
  const Matrix expect = models::multihead_gat_forward_ref(data.csr, x, cfg, params);
  baselines::DglBackend dgl;
  ASSERT_TRUE(dgl.supports(models::ModelKind::kMultiHeadGat));
  const auto r =
      dgl.run_multihead_gat(data, {&cfg, &params, &x}, ExecMode::kFull, sim::v100());
  EXPECT_TRUE(tensor::allclose(r.output, expect, 1e-3f, 1e-4f));
}

TEST_F(MhFixture, EngineMatchesReference) {
  const Matrix expect = models::multihead_gat_forward_ref(data.csr, x, cfg, params);
  OptimizedEngine e;
  const auto r = e.run_multihead_gat(data, {&cfg, &params, &x}, ExecMode::kFull, sim::v100());
  EXPECT_TRUE(tensor::allclose(r.output, expect, 1e-3f, 1e-4f));
}

TEST_F(MhFixture, OpCountScalesWithHeadsOnDglButFusionContainsIt) {
  baselines::DglBackend dgl;
  OptimizedEngine ours;
  const auto rd =
      dgl.run_multihead_gat(data, {&cfg, &params, &x}, ExecMode::kSimulateOnly, sim::v100());
  const auto ro =
      ours.run_multihead_gat(data, {&cfg, &params, &x}, ExecMode::kSimulateOnly, sim::v100());
  // DGL: 10 kernels/head; ours: 5/head.
  EXPECT_EQ(rd.stats.num_launches(), cfg.heads * 10);
  EXPECT_EQ(ro.stats.num_launches(), cfg.heads * 5);
  EXPECT_LT(ro.ms, rd.ms);
}

// The heads run the GAT variant the attempt's plan selects, as run_gat
// does: Listing 1 without the adapter (10 kernels per head), the adapter
// without the linear property (7), and Listing 1 again once a launch fault
// has walked the ladder past neighbor grouping to the adapter knob.
TEST_F(MhFixture, EngineRunsTheGatVariantItsPlanSelects) {
  const baselines::MultiHeadGatRun run{&cfg, &params, &x};
  engine::EngineConfig unfused;
  unfused.use_adapter = unfused.use_linear = false;
  engine::EngineConfig no_linear;
  no_linear.use_linear = false;
  const auto ru =
      OptimizedEngine(unfused).run_multihead_gat(data, run, ExecMode::kSimulateOnly, sim::v100());
  const auto rn =
      OptimizedEngine(no_linear).run_multihead_gat(data, run, ExecMode::kSimulateOnly, sim::v100());
  EXPECT_EQ(ru.stats.num_launches(), cfg.heads * 10);
  EXPECT_EQ(rn.stats.num_launches(), cfg.heads * 7);

  OptimizedEngine::BatchJob job;
  job.data = &data;
  job.multihead_gat = &run;
  job.mode = ExecMode::kFull;
  job.spec = sim::v100();
  job.fault_plan = "sim_launch=2";
  OptimizedEngine e;
  const RunResult r = e.run_batch(std::span(&job, 1))[0];
  ASSERT_TRUE(r.status.ok()) << r.status.to_string();
  EXPECT_EQ(r.stats.num_launches(), cfg.heads * 10);
  for (const sim::KernelStats& k : r.stats.kernels) {
    EXPECT_NE(k.name, "gat_edge_fused") << "the degraded retry must run unfused";
  }
  const Matrix expect = models::multihead_gat_forward_ref(data.csr, x, cfg, params);
  EXPECT_TRUE(tensor::allclose(r.output, expect, 1e-3f, 1e-4f));
}

TEST_F(MhFixture, MoreHeadsMoreKernels) {
  OptimizedEngine e;
  models::MultiHeadGatConfig big = cfg;
  big.heads = 6;
  const models::MultiHeadGatParams pbig = models::init_multihead_gat(big, 4);
  const auto small =
      e.run_multihead_gat(data, {&cfg, &params, &x}, ExecMode::kSimulateOnly, sim::v100());
  const auto large =
      e.run_multihead_gat(data, {&big, &pbig, &x}, ExecMode::kSimulateOnly, sim::v100());
  EXPECT_EQ(large.stats.num_launches(), 2 * small.stats.num_launches());
}

}  // namespace
}  // namespace gnnbridge
