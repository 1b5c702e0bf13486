// Engine-level training: the simulated training step must produce exactly
// the gradients and updates of the host reference, and the sampling
// workload must run with online-only optimizations.
#include <gtest/gtest.h>

#include "engine/engine.hpp"
#include "graph/sampling.hpp"
#include "models/gcn_grad.hpp"
#include "tests/testing/util.hpp"

namespace gnnbridge {
namespace {

using engine::OptimizedEngine;
using kernels::ExecMode;
using models::Matrix;

struct TrainFixture : public ::testing::Test {
  graph::Dataset data = graph::make_dataset(graph::DatasetId::kCollab, 0.01);
  models::GcnConfig cfg;
  models::GcnParams params;
  Matrix x, target;

  TrainFixture() {
    cfg.dims = {16, 8, 4};
    params = models::init_gcn(cfg, 3);
    x = models::init_features(data.csr.num_nodes, 16, 4);
    target = testing::random_matrix(data.csr.num_nodes, 4, 5, -0.5f, 0.5f);
  }
};

TEST_F(TrainFixture, EngineGradientsMatchHostReference) {
  // Host reference.
  const models::GcnForwardCache cache = models::gcn_forward_cached(data.csr, x, cfg, params);
  const models::GcnGrads expect = models::gcn_backward(
      data.csr, cfg, params, cache, models::mse_loss_grad(cache.inputs.back(), target));
  const float expect_loss = models::mse_loss(cache.inputs.back(), target);

  // Engine (simulated kernels), zero learning rate so params stay put.
  models::GcnParams engine_params = params;
  OptimizedEngine e;
  models::GcnGrads got;
  const auto r = e.train_gcn_step(data, cfg, engine_params, x, target, 0.0f,
                                  ExecMode::kFull, sim::v100(), &got);
  EXPECT_NEAR(r.loss, expect_loss, 1e-5f);
  ASSERT_EQ(got.weight.size(), expect.weight.size());
  for (std::size_t l = 0; l < expect.weight.size(); ++l) {
    EXPECT_TRUE(tensor::allclose(got.weight[l], expect.weight[l], 1e-3f, 1e-5f)) << l;
    EXPECT_TRUE(tensor::allclose(got.bias[l], expect.bias[l], 1e-3f, 1e-5f)) << l;
  }
  EXPECT_TRUE(tensor::allclose(got.input, expect.input, 1e-3f, 1e-6f));
  // lr = 0: parameters unchanged.
  EXPECT_TRUE(tensor::allclose(engine_params.weight[0], params.weight[0], 1e-6f, 1e-7f));
}

TEST_F(TrainFixture, EngineSgdMatchesHostSgd) {
  models::GcnParams host_params = params;
  const models::GcnForwardCache cache =
      models::gcn_forward_cached(data.csr, x, cfg, host_params);
  const models::GcnGrads grads = models::gcn_backward(
      data.csr, cfg, host_params, cache, models::mse_loss_grad(cache.inputs.back(), target));
  models::sgd_step(host_params, grads, 0.1f);

  models::GcnParams engine_params = params;
  OptimizedEngine e;
  e.train_gcn_step(data, cfg, engine_params, x, target, 0.1f, ExecMode::kFull, sim::v100());
  for (std::size_t l = 0; l < params.weight.size(); ++l) {
    EXPECT_TRUE(tensor::allclose(engine_params.weight[l], host_params.weight[l], 1e-3f, 1e-5f));
    EXPECT_TRUE(tensor::allclose(engine_params.bias[l], host_params.bias[l], 1e-3f, 1e-5f));
  }
}

TEST_F(TrainFixture, LossDecreasesOverSteps) {
  models::GcnParams p = params;
  OptimizedEngine e;
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 8; ++step) {
    const auto r = e.train_gcn_step(data, cfg, p, x, target, 0.5f, ExecMode::kFull, sim::v100());
    if (step == 0) first = r.loss;
    last = r.loss;
  }
  EXPECT_LT(last, first);
}

TEST_F(TrainFixture, TrainingStepCountsForwardAndBackwardKernels) {
  models::GcnParams p = params;
  OptimizedEngine e;
  const auto fwd = e.run_gcn(data, {&cfg, &p, &x}, ExecMode::kSimulateOnly, sim::v100());
  const auto step =
      e.train_gcn_step(data, cfg, p, x, target, 0.1f, ExecMode::kSimulateOnly, sim::v100());
  EXPECT_GT(step.run.stats.num_launches(), fwd.stats.num_launches());
  EXPECT_GT(step.run.stats.cycles_in_phase("backward"), 0.0);
  EXPECT_GT(step.run.ms, fwd.ms);
}

TEST(TrainingSampling, MinibatchPipelineRunsWithOnlineOptsOnly) {
  // The paper's §5.2 note: under graph sampling the structure changes
  // every iteration, so LAS (offline) is off; NG + fusion still apply.
  const graph::Dataset full = graph::make_dataset(graph::DatasetId::kProtein, 0.05);
  tensor::Rng rng(7);
  engine::EngineConfig cfg;
  cfg.use_las = false;  // offline analysis unusable under sampling
  OptimizedEngine e(cfg);

  models::GcnConfig mcfg;
  mcfg.dims = {8, 4};
  const models::GcnParams params = models::init_gcn(mcfg, 8);
  const Matrix x_full = models::init_features(full.csr.num_nodes, 8, 9);

  for (int iter = 0; iter < 3; ++iter) {
    const auto centers = graph::sample_batch_centers(full.csr.num_nodes, 64, rng);
    const graph::SampledBatch batch = graph::sample_neighbors(full.csr, centers, 8, rng);
    // Build a Dataset view over the sampled subgraph; features stay the
    // full matrix (columns index original ids), so slice them down.
    graph::Dataset mini;
    mini.name = "minibatch";
    mini.csr = batch.csr;
    // Column ids reference the full graph; remap into a compact feature
    // matrix by using the full x (ids < full N >= batch rows is fine for
    // the reference aggregation as long as src ids are in range of x).
    // For the engine the feature matrix must have one row per id, so we
    // pass the full-width feature matrix and extend the CSR to that size.
    mini.csr.num_nodes = full.csr.num_nodes;
    mini.csr.row_ptr.resize(static_cast<std::size_t>(full.csr.num_nodes) + 1,
                            mini.csr.row_ptr.back());
    mini.coo = graph::coo_from_csr(mini.csr);
    mini.stats = graph::degree_stats(mini.csr);

    const baselines::GcnRun run{&mcfg, &params, &x_full};
    const auto r = e.run_gcn(mini, run, ExecMode::kFull, sim::v100());
    EXPECT_GT(r.stats.num_launches(), 0);
    EXPECT_EQ(r.output.rows(), full.csr.num_nodes);
  }
}

}  // namespace
}  // namespace gnnbridge
