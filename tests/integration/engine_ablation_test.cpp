// Directional checks on the simulator: each optimization must move the
// counters the way the paper's evaluation says it does. These are the
// qualitative versions of Figures 8-11 and Table 6, run at test scale.
#include <gtest/gtest.h>

#include "baselines/dgl.hpp"
#include "engine/engine.hpp"
#include "graph/datasets.hpp"
#include "kernels/spmm.hpp"
#include "tests/testing/util.hpp"

namespace gnnbridge {
namespace {

using engine::EngineConfig;
using engine::OptimizedEngine;
using kernels::ExecMode;

/// An arxiv-like graph: heavy hubs, the imbalance showcase.
graph::Dataset hub_dataset() { return graph::make_dataset(graph::DatasetId::kArxiv, 0.08); }

/// Runs one aggregation over `d` with the given engine task config and
/// feature length; trace-only.
sim::KernelStats probe_aggregation(const graph::Dataset& d, const EngineConfig& cfg,
                                   tensor::Index feat) {
  OptimizedEngine e(cfg);
  sim::SimContext ctx(sim::v100());
  auto gdev = kernels::device_graph(ctx, d.csr, "g");
  auto src = kernels::device_mat_shape(ctx, d.csr.num_nodes, feat, "src");
  auto out = kernels::device_mat_shape(ctx, d.csr.num_nodes, feat, "out");
  const kernels::GroupedTasks tasks = e.build_tasks(d.csr);
  kernels::SpmmArgs args{.graph = &gdev,
                         .tasks = tasks.tasks,
                         .src = &src,
                         .out = &out,
                         .atomic_merge = tasks.any_split};
  return kernels::spmm_node(ctx, args);
}

TEST(Ablation, NeighborGroupingClosesBalanceGap) {
  const graph::Dataset d = hub_dataset();
  EngineConfig base;
  base.use_neighbor_grouping = false;
  base.use_las = false;
  EngineConfig ng = base;
  ng.use_neighbor_grouping = true;

  const sim::KernelStats sbase = probe_aggregation(d, base, 32);
  const sim::KernelStats sng = probe_aggregation(d, ng, 32);

  const double gap_base = sbase.makespan / std::max(sbase.balanced, 1.0);
  const double gap_ng = sng.makespan / std::max(sng.balanced, 1.0);
  EXPECT_LT(gap_ng, gap_base);   // Figure 8: the balanced/actual gap shrinks
  EXPECT_LT(sng.makespan, sbase.makespan);
}

TEST(Ablation, LasImprovesHitRateOnPowerLawGraph) {
  // The feature matrix must exceed the L2 (23.6k rows x 1 KiB ~ 24 MiB vs
  // 6 MiB) or there is no locality problem to solve.
  const graph::Dataset d = graph::make_dataset(graph::DatasetId::kCollab, 0.4);
  EngineConfig ng_only;
  ng_only.use_las = false;
  EngineConfig ng_las = ng_only;
  ng_las.use_las = true;

  const sim::KernelStats a = probe_aggregation(d, ng_only, 256);
  const sim::KernelStats b = probe_aggregation(d, ng_las, 256);
  EXPECT_GT(b.l2_hit_rate(), a.l2_hit_rate() + 0.02);  // Figure 9: NG+LAS > NG
}

TEST(Ablation, OccupancyTailVisibleWithoutGrouping) {
  const graph::Dataset d = hub_dataset();
  EngineConfig base;
  base.use_neighbor_grouping = false;
  base.use_las = false;
  const sim::KernelStats s = probe_aggregation(d, base, 32);
  // Table 4's phenomenon: a visible fraction of time runs under 50% slots.
  EXPECT_GT(s.timeline.fraction_below(0.5, sim::v100().total_block_slots()), 0.05);
}

TEST(Ablation, AdapterCutsLaunchesOnGat) {
  const graph::Dataset d = graph::make_dataset(graph::DatasetId::kCollab, 0.02);
  models::GatConfig cfg;
  cfg.dims = {16, 8};
  const models::GatParams params = models::init_gat(cfg, 1);
  const models::Matrix x = models::init_features(d.csr.num_nodes, 16, 2);
  const baselines::GatRun run{&cfg, &params, &x};

  EngineConfig no_adapter;
  no_adapter.use_adapter = false;
  no_adapter.use_linear = false;
  EngineConfig adapter_linear;

  OptimizedEngine base(no_adapter), opt(adapter_linear);
  const auto rb = base.run_gat(d, run, ExecMode::kSimulateOnly, sim::v100());
  const auto ro = opt.run_gat(d, run, ExecMode::kSimulateOnly, sim::v100());
  EXPECT_LT(ro.stats.num_launches(), rb.stats.num_launches());
  EXPECT_LT(ro.ms, rb.ms);  // Figure 10a / Table 6 "Adp" direction
}

TEST(Ablation, LinearPropertySavesMoreThanAdapterAlone) {
  const graph::Dataset d = graph::make_dataset(graph::DatasetId::kCollab, 0.02);
  models::GatConfig cfg;
  cfg.dims = {16, 8};
  const models::GatParams params = models::init_gat(cfg, 1);
  const models::Matrix x = models::init_features(d.csr.num_nodes, 16, 2);
  const baselines::GatRun run{&cfg, &params, &x};

  EngineConfig adapter_only;
  adapter_only.use_linear = false;
  EngineConfig adapter_linear;

  OptimizedEngine a(adapter_only), al(adapter_linear);
  const auto ra = a.run_gat(d, run, ExecMode::kSimulateOnly, sim::v100());
  const auto rl = al.run_gat(d, run, ExecMode::kSimulateOnly, sim::v100());
  EXPECT_LT(rl.stats.num_launches(), ra.stats.num_launches());
  EXPECT_LE(rl.ms, ra.ms);  // Figure 10a: +Linear beats Adapter alone
}

TEST(Ablation, SparseFetchRemovesExpansionKernels) {
  const graph::Dataset d = graph::make_dataset(graph::DatasetId::kDdi, 0.2);
  models::SageLstmConfig cfg;
  const models::SageLstmParams params = models::init_sage_lstm(cfg, 3);
  const models::Matrix x = models::init_features(d.csr.num_nodes, cfg.in_feat, 4);
  const baselines::SageLstmRun run{&cfg, &params, &x};

  EngineConfig base_cfg;
  base_cfg.sage_level = engine::SageOptLevel::kBase;
  EngineConfig spf_cfg;
  spf_cfg.sage_level = engine::SageOptLevel::kSparseFetch;

  OptimizedEngine base(base_cfg), spf(spf_cfg);
  const auto rb = base.run_sage_lstm(d, run, ExecMode::kSimulateOnly, sim::v100());
  const auto rs = spf.run_sage_lstm(d, run, ExecMode::kSimulateOnly, sim::v100());
  EXPECT_DOUBLE_EQ(rs.stats.cycles_in_phase("expansion"), 0.0);
  EXPECT_GT(rb.stats.cycles_in_phase("expansion"), 0.0);
  EXPECT_LT(rs.stats.num_launches(), rb.stats.num_launches());
}

TEST(Ablation, RedundancyBypassCutsTransformationWork) {
  const graph::Dataset d = graph::make_dataset(graph::DatasetId::kDdi, 0.2);
  models::SageLstmConfig cfg;
  const models::SageLstmParams params = models::init_sage_lstm(cfg, 5);
  const models::Matrix x = models::init_features(d.csr.num_nodes, cfg.in_feat, 6);
  const baselines::SageLstmRun run{&cfg, &params, &x};

  EngineConfig spf_cfg;
  spf_cfg.sage_level = engine::SageOptLevel::kSparseFetch;
  EngineConfig byp_cfg;
  byp_cfg.sage_level = engine::SageOptLevel::kSparseFetchBypass;

  OptimizedEngine spf(spf_cfg), byp(byp_cfg);
  const auto rs = spf.run_sage_lstm(d, run, ExecMode::kSimulateOnly, sim::v100());
  const auto rb = byp.run_sage_lstm(d, run, ExecMode::kSimulateOnly, sim::v100());
  // One pre-transform instead of `steps` per-step transforms.
  EXPECT_LT(rb.stats.cycles_in_phase("transformation"),
            rs.stats.cycles_in_phase("transformation") / 4.0);
  EXPECT_LT(rb.ms, rs.ms);  // Figure 11 direction
}

TEST(Ablation, EngineBeatsDglOnGat) {
  // The headline claim at test scale: Ours < DGL on GAT (Figure 7b).
  const graph::Dataset d = graph::make_dataset(graph::DatasetId::kCollab, 0.1);
  models::GatConfig cfg;
  cfg.dims = {128, 64, 32};
  const models::GatParams params = models::init_gat(cfg, 7);
  const models::Matrix x = models::init_features(d.csr.num_nodes, 128, 8);
  const baselines::GatRun run{&cfg, &params, &x};

  baselines::DglBackend dgl;
  OptimizedEngine ours;
  const auto rd = dgl.run_gat(d, run, ExecMode::kSimulateOnly, sim::v100());
  const auto ro = ours.run_gat(d, run, ExecMode::kSimulateOnly, sim::v100());
  EXPECT_LT(ro.ms, rd.ms);
  EXPECT_GT(rd.ms / ro.ms, 1.5);  // well clear of noise
}

}  // namespace
}  // namespace gnnbridge
