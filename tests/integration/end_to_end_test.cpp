// End-to-end smoke: every (framework x model x dataset-shape) cell of the
// Figure 7 matrix runs and produces sane counters at test scale.
#include <gtest/gtest.h>

#include "baselines/dgl.hpp"
#include "baselines/pyg.hpp"
#include "baselines/roc.hpp"
#include "engine/engine.hpp"
#include "graph/datasets.hpp"
#include "models/multihead_gat.hpp"
#include "models/pool_model.hpp"

namespace gnnbridge {
namespace {

using baselines::Backend;
using kernels::ExecMode;
using models::ModelKind;

constexpr double kScale = 0.02;

struct Cell {
  graph::DatasetId dataset;
  ModelKind model;
};

class Figure7Cell : public ::testing::TestWithParam<Cell> {};

std::vector<std::unique_ptr<Backend>> all_backends() {
  std::vector<std::unique_ptr<Backend>> out;
  out.push_back(std::make_unique<baselines::DglBackend>());
  out.push_back(std::make_unique<baselines::PygBackend>());
  out.push_back(std::make_unique<baselines::RocBackend>());
  out.push_back(std::make_unique<engine::OptimizedEngine>());
  return out;
}

TEST_P(Figure7Cell, RunsOnAllSupportingBackends) {
  const Cell cell = GetParam();
  const graph::Dataset data = graph::make_dataset(cell.dataset, kScale);

  models::GcnConfig gcn_cfg;
  gcn_cfg.dims = {32, 16, 8};
  models::GatConfig gat_cfg;
  gat_cfg.dims = {32, 16, 8};
  models::SageLstmConfig sage_cfg;
  sage_cfg.steps = 4;
  const auto gcn_params = models::init_gcn(gcn_cfg, 1);
  const auto gat_params = models::init_gat(gat_cfg, 2);
  const auto sage_params = models::init_sage_lstm(sage_cfg, 3);
  const models::Matrix x32 = models::init_features(data.csr.num_nodes, 32, 4);
  const models::Matrix x_sage =
      models::init_features(data.csr.num_nodes, sage_cfg.in_feat, 5);

  for (const auto& backend : all_backends()) {
    if (!backend->supports(cell.model)) continue;
    baselines::RunResult r;
    switch (cell.model) {
      case ModelKind::kGcn:
        r = backend->run_gcn(data, {&gcn_cfg, &gcn_params, &x32}, ExecMode::kSimulateOnly,
                             sim::v100());
        break;
      case ModelKind::kGat:
        r = backend->run_gat(data, {&gat_cfg, &gat_params, &x32}, ExecMode::kSimulateOnly,
                             sim::v100());
        break;
      case ModelKind::kSageLstm:
        r = backend->run_sage_lstm(data, {&sage_cfg, &sage_params, &x_sage},
                                   ExecMode::kSimulateOnly, sim::v100());
        break;
      case ModelKind::kSagePool:
      case ModelKind::kMultiHeadGat:
        FAIL() << "Figure 7 has no " << models::model_name(cell.model) << " cell";
    }
    if (r.oom) continue;  // paper-scale OOM cells are legitimate outcomes
    EXPECT_GT(r.ms, 0.0) << backend->name();
    EXPECT_GT(r.stats.num_launches(), 0) << backend->name();
    EXPECT_GT(r.stats.total_flops(), 0.0) << backend->name();
  }
}

std::vector<Cell> all_cells() {
  std::vector<Cell> cells;
  for (graph::DatasetId id : graph::kAllDatasets) {
    for (ModelKind m : {ModelKind::kGcn, ModelKind::kGat, ModelKind::kSageLstm}) {
      cells.push_back({id, m});
    }
  }
  return cells;
}

INSTANTIATE_TEST_SUITE_P(AllCells, Figure7Cell, ::testing::ValuesIn(all_cells()),
                         [](const ::testing::TestParamInfo<Cell>& param) {
                           return std::string(graph::dataset_name(param.param.dataset)) + "_" +
                                  std::string(models::model_name(param.param.model) ==
                                                      "GraphSAGE-LSTM"
                                                  ? "SAGE"
                                                  : models::model_name(param.param.model));
                         });

TEST(EndToEnd, UtilizationIsGpuRealistic) {
  // Sanity anchor from the paper's intro: baselines achieve well under 10%
  // of peak FLOPs on graph-heavy models.
  const graph::Dataset data = graph::make_dataset(graph::DatasetId::kCollab, 0.05);
  models::GatConfig cfg;
  cfg.dims = {64, 32};
  const auto params = models::init_gat(cfg, 6);
  const models::Matrix x = models::init_features(data.csr.num_nodes, 64, 7);
  baselines::DglBackend dgl;
  const auto r = dgl.run_gat(data, {&cfg, &params, &x}, ExecMode::kSimulateOnly, sim::v100());
  const sim::DeviceSpec spec = sim::v100();
  const double peak_gflops = spec.flops_per_cycle_per_block *
                             spec.total_block_slots() * spec.clock_ghz;  // ~14 TFLOPs
  EXPECT_LT(r.stats.gflops(spec), 0.10 * peak_gflops);
}

TEST(EndToEnd, DeterministicCounters) {
  const graph::Dataset data = graph::make_dataset(graph::DatasetId::kArxiv, 0.03);
  models::GcnConfig cfg;
  cfg.dims = {32, 16};
  const auto params = models::init_gcn(cfg, 8);
  const models::Matrix x = models::init_features(data.csr.num_nodes, 32, 9);
  engine::OptimizedEngine a, b;
  const auto ra = a.run_gcn(data, {&cfg, &params, &x}, ExecMode::kSimulateOnly, sim::v100());
  const auto rb = b.run_gcn(data, {&cfg, &params, &x}, ExecMode::kSimulateOnly, sim::v100());
  EXPECT_DOUBLE_EQ(ra.ms, rb.ms);
  EXPECT_EQ(ra.stats.total_misses(), rb.stats.total_misses());
}

/// Every counter of two runs, kernel by kernel and in total.
void expect_same_counters(const baselines::RunResult& a, const baselines::RunResult& b) {
  ASSERT_TRUE(a.status.ok()) << a.status.to_string();
  ASSERT_TRUE(b.status.ok()) << b.status.to_string();
  ASSERT_FALSE(a.oom);
  ASSERT_EQ(a.stats.kernels.size(), b.stats.kernels.size());
  ASSERT_GT(a.stats.kernels.size(), 0u);
  for (std::size_t i = 0; i < a.stats.kernels.size(); ++i) {
    const sim::KernelStats& x = a.stats.kernels[i];
    const sim::KernelStats& y = b.stats.kernels[i];
    SCOPED_TRACE("kernel " + std::to_string(i) + " " + x.name);
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.phase, y.phase);
    EXPECT_EQ(x.num_blocks, y.num_blocks);
    EXPECT_EQ(x.l2_hits, y.l2_hits);
    EXPECT_EQ(x.l2_misses, y.l2_misses);
    EXPECT_EQ(x.dram_bytes, y.dram_bytes);
    EXPECT_EQ(x.flops, y.flops);
    EXPECT_EQ(x.issued_flops, y.issued_flops);
    EXPECT_EQ(x.atomic_cycles, y.atomic_cycles);
    EXPECT_EQ(x.atomic_bytes, y.atomic_bytes);
    EXPECT_EQ(x.adapter_cycles, y.adapter_cycles);
    EXPECT_EQ(x.adapter_bytes, y.adapter_bytes);
    EXPECT_EQ(x.pad_flops, y.pad_flops);
    EXPECT_EQ(x.copy_flops, y.copy_flops);
    EXPECT_EQ(x.tile_flops, y.tile_flops);
    EXPECT_EQ(x.cycles, y.cycles);
    EXPECT_EQ(x.makespan, y.makespan);
    EXPECT_EQ(x.balanced, y.balanced);
    EXPECT_EQ(x.timeline.duration(), y.timeline.duration());
    const auto& xi = x.timeline.intervals();
    const auto& yi = y.timeline.intervals();
    ASSERT_EQ(xi.size(), yi.size());
    for (std::size_t j = 0; j < xi.size(); ++j) {
      EXPECT_EQ(xi[j].t0, yi[j].t0);
      EXPECT_EQ(xi[j].t1, yi[j].t1);
      EXPECT_EQ(xi[j].active, yi[j].active);
    }
  }
  EXPECT_EQ(a.stats.total_cycles, b.stats.total_cycles);
  EXPECT_EQ(a.stats.global_syncs, b.stats.global_syncs);
  EXPECT_EQ(a.stats.ghost_bytes, b.stats.ghost_bytes);
  EXPECT_EQ(a.stats.exchange_syncs, b.stats.exchange_syncs);
  EXPECT_EQ(a.stats.exchange_cycles, b.stats.exchange_cycles);
  EXPECT_EQ(a.stats.shards, b.stats.shards);
  EXPECT_EQ(a.stats.recovery.shard_retries, b.stats.recovery.shard_retries);
  EXPECT_EQ(a.stats.recovery.shards_reexecuted, b.stats.recovery.shards_reexecuted);
  EXPECT_EQ(a.stats.recovery.wasted_cycles, b.stats.recovery.wasted_cycles);
  EXPECT_EQ(a.ms, b.ms);
}

TEST(EndToEnd, SimulateOnlyAgreesWithFullModeCounters) {
  // The trace is value-independent: a trace-only run (shape-only mats) and
  // a kFull run (host-backed mats) of every model on every backend that
  // supports it must count alike. Between them these runs launch every
  // kernel entry point of src/kernels. The graph's hubs sit above the
  // engine's default grouping bound, so its tasks split rows and the
  // atomic-merge and deferred-epilogue paths run too.
  const graph::Dataset data = graph::make_dataset(graph::DatasetId::kDdi, 0.1);
  const graph::NodeId n = data.csr.num_nodes;
  models::GcnConfig gcn_cfg;
  gcn_cfg.dims = {16, 8, 4};
  const auto gcn_params = models::init_gcn(gcn_cfg, 10);
  models::GatConfig gat_cfg;
  gat_cfg.dims = {16, 8, 4};
  const auto gat_params = models::init_gat(gat_cfg, 12);
  models::SageLstmConfig sage_cfg;
  sage_cfg.in_feat = 16;
  sage_cfg.hidden = 8;
  sage_cfg.steps = 3;
  const auto sage_params = models::init_sage_lstm(sage_cfg, 13);
  models::SagePoolConfig pool_cfg;
  pool_cfg.in_feat = 16;
  pool_cfg.pool_dim = 8;
  pool_cfg.out_feat = 4;
  const auto pool_params = models::init_sage_pool(pool_cfg, 14);
  models::MultiHeadGatConfig mh_cfg;
  mh_cfg.in_feat = 16;
  mh_cfg.head_dim = 4;
  mh_cfg.heads = 2;
  const auto mh_params = models::init_multihead_gat(mh_cfg, 15);
  const models::Matrix x = models::init_features(n, 16, 11);

  const auto run_model = [&](Backend& b, ModelKind m, ExecMode mode) {
    switch (m) {
      case ModelKind::kGcn:
        return b.run_gcn(data, {&gcn_cfg, &gcn_params, &x}, mode, sim::v100());
      case ModelKind::kGat:
        return b.run_gat(data, {&gat_cfg, &gat_params, &x}, mode, sim::v100());
      case ModelKind::kSageLstm:
        return b.run_sage_lstm(data, {&sage_cfg, &sage_params, &x}, mode, sim::v100());
      case ModelKind::kSagePool:
        return b.run_sage_pool(data, {&pool_cfg, &pool_params, &x}, mode, sim::v100());
      case ModelKind::kMultiHeadGat:
        return b.run_multihead_gat(data, {&mh_cfg, &mh_params, &x}, mode, sim::v100());
    }
    return baselines::RunResult{};
  };
  const auto check = [&](Backend& b, const std::vector<ModelKind>& kinds,
                         const std::string& label) {
    for (ModelKind m : kinds) {
      if (!b.supports(m)) continue;
      SCOPED_TRACE(label + " " + std::string(models::model_name(m)));
      expect_same_counters(run_model(b, m, ExecMode::kSimulateOnly),
                           run_model(b, m, ExecMode::kFull));
    }
  };
  const std::vector<ModelKind> kAll = {ModelKind::kGcn, ModelKind::kGat, ModelKind::kSageLstm,
                                       ModelKind::kSagePool, ModelKind::kMultiHeadGat};

  baselines::DglBackend dgl;
  baselines::PygBackend pyg;
  baselines::RocBackend roc;
  for (Backend* b : std::initializer_list<Backend*>{&dgl, &pyg, &roc}) {
    check(*b, kAll, std::string(b->name()));
  }

  ASSERT_TRUE(engine::OptimizedEngine().build_tasks(data.csr).any_split);
  for (int shards : {1, 4}) {
    engine::EngineConfig base;
    base.shards = shards;
    const std::string tag = "Ours shards=" + std::to_string(shards);
    {
      // Fused GCN, GAT's linear variant, SAGE-LSTM with sparse fetching
      // and redundancy bypassing, SAGE-Pool and multi-head GAT.
      engine::OptimizedEngine e(base);
      check(e, kAll, tag + " full stack");
      // One training step: forward, backward and the SGD update.
      models::GcnParams sim_params = gcn_params, full_params = gcn_params;
      const models::Matrix target = models::init_features(n, 4, 16);
      SCOPED_TRACE(tag + " train_gcn_step");
      expect_same_counters(e.train_gcn_step(data, gcn_cfg, sim_params, x, target, 0.1f,
                                            ExecMode::kSimulateOnly, sim::v100())
                               .run,
                           e.train_gcn_step(data, gcn_cfg, full_params, x, target, 0.1f,
                                            ExecMode::kFull, sim::v100())
                               .run);
    }
    {
      engine::EngineConfig adapter = base;
      adapter.use_linear = false;
      engine::OptimizedEngine e(adapter);
      check(e, {ModelKind::kGat}, tag + " adapter without the linear property");
    }
    {
      engine::EngineConfig unfused = base;
      unfused.use_adapter = false;
      unfused.use_linear = false;
      engine::OptimizedEngine e(unfused);
      check(e, {ModelKind::kGcn, ModelKind::kGat}, tag + " unfused");
    }
    for (engine::SageOptLevel level :
         {engine::SageOptLevel::kBase, engine::SageOptLevel::kSparseFetch}) {
      engine::EngineConfig sage = base;
      sage.sage_level = level;
      engine::OptimizedEngine e(sage);
      check(e, {ModelKind::kSageLstm},
            tag + " sage level " + std::to_string(static_cast<int>(level)));
    }
  }
}

}  // namespace
}  // namespace gnnbridge
