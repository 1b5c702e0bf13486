// The semantics-preservation contract (paper §5: "our optimizations do not
// alter the semantics of the models"): every backend — DGL-style,
// PyG-style, ROC-style, and the optimized engine in every configuration —
// must produce the same model outputs as the host reference.
#include <gtest/gtest.h>

#include "baselines/dgl.hpp"
#include "baselines/pyg.hpp"
#include "baselines/roc.hpp"
#include "engine/engine.hpp"
#include "models/reference.hpp"
#include "tests/testing/util.hpp"

namespace gnnbridge {
namespace {

using baselines::Backend;
using baselines::DglBackend;
using baselines::GatRun;
using baselines::GcnRun;
using baselines::PygBackend;
using baselines::RocBackend;
using baselines::SageLstmRun;
using engine::EngineConfig;
using engine::OptimizedEngine;
using engine::SageOptLevel;
using kernels::ExecMode;
using models::Matrix;
using models::ModelKind;

/// A small but non-trivial dataset for numerics (power-law-ish, ~600
/// nodes): big enough to exercise splits and clusters, small enough for
/// full-mode math.
graph::Dataset tiny_dataset() {
  return graph::make_dataset(graph::DatasetId::kCollab, 0.01);
}

struct Inputs {
  graph::Dataset data = tiny_dataset();
  models::GcnConfig gcn_cfg;
  models::GatConfig gat_cfg;
  models::SageLstmConfig sage_cfg;
  models::GcnParams gcn_params;
  models::GatParams gat_params;
  models::SageLstmParams sage_params;
  Matrix x_gcn, x_gat, x_sage;

  Inputs() {
    gcn_cfg.dims = {24, 12, 6};
    gat_cfg.dims = {20, 10, 5};
    sage_cfg = {.in_feat = 12, .hidden = 8, .steps = 5};
    gcn_params = models::init_gcn(gcn_cfg, 1);
    gat_params = models::init_gat(gat_cfg, 2);
    sage_params = models::init_sage_lstm(sage_cfg, 3);
    x_gcn = models::init_features(data.csr.num_nodes, 24, 4);
    x_gat = models::init_features(data.csr.num_nodes, 20, 5);
    x_sage = models::init_features(data.csr.num_nodes, 12, 6);
  }
};

const Inputs& inputs() {
  static const Inputs* in = new Inputs();
  return *in;
}

Matrix gcn_expected() {
  const Inputs& in = inputs();
  return models::gcn_forward_ref(in.data.csr, in.x_gcn, in.gcn_cfg, in.gcn_params);
}

Matrix gat_expected() {
  const Inputs& in = inputs();
  return models::gat_forward_ref(in.data.csr, in.x_gat, in.gat_cfg, in.gat_params);
}

Matrix sage_expected() {
  const Inputs& in = inputs();
  return models::sage_lstm_forward_ref(in.data.csr, in.x_sage, in.sage_cfg, in.sage_params);
}

void expect_gcn_matches(Backend& backend) {
  const Inputs& in = inputs();
  const GcnRun run{&in.gcn_cfg, &in.gcn_params, &in.x_gcn};
  const auto result = backend.run_gcn(in.data, run, ExecMode::kFull, sim::v100());
  ASSERT_FALSE(result.oom);
  EXPECT_TRUE(tensor::allclose(result.output, gcn_expected(), 2e-3f, 2e-4f))
      << backend.name() << " max diff "
      << tensor::max_abs_diff(result.output, gcn_expected());
}

void expect_gat_matches(Backend& backend) {
  const Inputs& in = inputs();
  const GatRun run{&in.gat_cfg, &in.gat_params, &in.x_gat};
  const auto result = backend.run_gat(in.data, run, ExecMode::kFull, sim::v100());
  ASSERT_FALSE(result.oom);
  EXPECT_TRUE(tensor::allclose(result.output, gat_expected(), 2e-3f, 2e-4f))
      << backend.name() << " max diff "
      << tensor::max_abs_diff(result.output, gat_expected());
}

void expect_sage_matches(Backend& backend) {
  const Inputs& in = inputs();
  const SageLstmRun run{&in.sage_cfg, &in.sage_params, &in.x_sage};
  const auto result = backend.run_sage_lstm(in.data, run, ExecMode::kFull, sim::v100());
  ASSERT_FALSE(result.oom);
  EXPECT_TRUE(tensor::allclose(result.output, sage_expected(), 2e-3f, 2e-4f))
      << backend.name() << " max diff "
      << tensor::max_abs_diff(result.output, sage_expected());
}

TEST(BackendEquivalence, DglGcn) {
  DglBackend b;
  expect_gcn_matches(b);
}

TEST(BackendEquivalence, DglGat) {
  DglBackend b;
  expect_gat_matches(b);
}

TEST(BackendEquivalence, DglSageLstm) {
  DglBackend b;
  expect_sage_matches(b);
}

TEST(BackendEquivalence, PygGcn) {
  PygBackend b;
  expect_gcn_matches(b);
}

TEST(BackendEquivalence, PygGat) {
  PygBackend b;
  expect_gat_matches(b);
}

TEST(BackendEquivalence, RocGcn) {
  RocBackend b;
  expect_gcn_matches(b);
}

/// The engine's optimization space, swept: every combination must stay
/// semantically equal to the reference.
struct EngineVariant {
  const char* label;
  EngineConfig cfg;
};

std::vector<EngineVariant> engine_variants() {
  std::vector<EngineVariant> out;
  for (bool ng : {false, true}) {
    for (bool las : {false, true}) {
      for (bool adapter : {false, true}) {
        for (bool linear : {false, true}) {
          if (linear && !adapter) continue;  // linear requires the adapter
          EngineConfig cfg;
          cfg.use_neighbor_grouping = ng;
          cfg.group_bound = ng ? 8 : 0;  // force splits on the tiny graph
          cfg.use_las = las;
          cfg.use_adapter = adapter;
          cfg.use_linear = linear;
          out.push_back({"", cfg});
        }
      }
    }
  }
  return out;
}

class EngineEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(EngineEquivalence, GcnMatchesReference) {
  OptimizedEngine e(engine_variants()[static_cast<std::size_t>(GetParam())].cfg);
  expect_gcn_matches(e);
}

TEST_P(EngineEquivalence, GatMatchesReference) {
  OptimizedEngine e(engine_variants()[static_cast<std::size_t>(GetParam())].cfg);
  expect_gat_matches(e);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, EngineEquivalence,
                         ::testing::Range(0, static_cast<int>(engine_variants().size())));

class SageLevels : public ::testing::TestWithParam<SageOptLevel> {};

TEST_P(SageLevels, SageLstmMatchesReference) {
  EngineConfig cfg;
  cfg.sage_level = GetParam();
  OptimizedEngine e(cfg);
  expect_sage_matches(e);
}

INSTANTIATE_TEST_SUITE_P(AllLevels, SageLevels,
                         ::testing::Values(SageOptLevel::kBase, SageOptLevel::kSparseFetch,
                                           SageOptLevel::kSparseFetchBypass));

TEST(BackendEquivalence, SagePoolDglMatchesReference) {
  const Inputs& in = inputs();
  models::SagePoolConfig cfg;
  cfg.in_feat = 12;
  cfg.pool_dim = 8;
  cfg.out_feat = 4;
  const models::SagePoolParams params = models::init_sage_pool(cfg, 11);
  const Matrix x = models::init_features(in.data.csr.num_nodes, 12, 11);
  const Matrix expect = models::sage_pool_forward_ref(in.data.csr, x, cfg, params);

  DglBackend dgl;
  ASSERT_TRUE(dgl.supports(ModelKind::kSagePool));
  const auto r = dgl.run_sage_pool(in.data, {&cfg, &params, &x}, ExecMode::kFull, sim::v100());
  EXPECT_TRUE(tensor::allclose(r.output, expect, 1e-3f, 1e-4f));
}

TEST(BackendEquivalence, SagePoolEngineMatchesReferenceUnderSplits) {
  const Inputs& in = inputs();
  models::SagePoolConfig cfg;
  cfg.in_feat = 12;
  cfg.pool_dim = 8;
  cfg.out_feat = 4;
  const models::SagePoolParams params = models::init_sage_pool(cfg, 12);
  const Matrix x = models::init_features(in.data.csr.num_nodes, 12, 12);
  const Matrix expect = models::sage_pool_forward_ref(in.data.csr, x, cfg, params);

  EngineConfig ecfg;
  ecfg.group_bound = 4;  // force split rows: atomic max path
  OptimizedEngine e(ecfg);
  const auto r = e.run_sage_pool(in.data, {&cfg, &params, &x}, ExecMode::kFull, sim::v100());
  EXPECT_TRUE(tensor::allclose(r.output, expect, 1e-3f, 1e-4f));
}

TEST(BackendEquivalence, SagePoolUnsupportedBackendsSaySo) {
  PygBackend pyg;
  RocBackend roc;
  EXPECT_FALSE(pyg.supports(ModelKind::kSagePool));
  EXPECT_FALSE(roc.supports(ModelKind::kSagePool));
}

TEST(BackendEquivalence, OomBackendsReportOomNotGarbage) {
  // products at paper scale OOMs PyG GCN: the backend must say so.
  const Inputs& in = inputs();
  graph::Dataset products = graph::make_dataset(graph::DatasetId::kProducts, 0.003);
  PygBackend b;
  models::GcnConfig big;  // paper dims: the footprint formula uses these
  const models::GcnParams params = models::init_gcn(big, 9);
  Matrix x = models::init_features(products.csr.num_nodes, big.dims[0], 9);
  const GcnRun run{&big, &params, &x};
  const auto result = b.run_gcn(products, run, ExecMode::kSimulateOnly, sim::v100());
  EXPECT_TRUE(result.oom);
  EXPECT_EQ(result.stats.num_launches(), 0);
  (void)in;
}

}  // namespace
}  // namespace gnnbridge
