// End-to-end smoke: every (framework x model x dataset-shape) cell of the
// Figure 7 matrix runs and produces sane counters at test scale.
#include <gtest/gtest.h>

#include "baselines/dgl.hpp"
#include "baselines/pyg.hpp"
#include "baselines/roc.hpp"
#include "engine/engine.hpp"
#include "graph/datasets.hpp"

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

TEST(EndToEnd, SimulateOnlyAgreesWithFullModeCounters) {
  // The trace is value-independent: counters must match across modes.
  const graph::Dataset data = graph::make_dataset(graph::DatasetId::kDdi, 0.1);
  models::GcnConfig cfg;
  cfg.dims = {16, 8};
  const auto params = models::init_gcn(cfg, 10);
  const models::Matrix x = models::init_features(data.csr.num_nodes, 16, 11);
  engine::OptimizedEngine e;
  const auto sim_only =
      e.run_gcn(data, {&cfg, &params, &x}, ExecMode::kSimulateOnly, sim::v100());
  const auto full = e.run_gcn(data, {&cfg, &params, &x}, ExecMode::kFull, sim::v100());
  EXPECT_DOUBLE_EQ(sim_only.ms, full.ms);
  EXPECT_EQ(sim_only.stats.total_misses(), full.stats.total_misses());
  EXPECT_EQ(sim_only.stats.num_launches(), full.stats.num_launches());
}

}  // namespace
}  // namespace gnnbridge
