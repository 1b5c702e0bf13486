// The engine's integrated online tuner (EngineConfig::auto_tune).
#include <gtest/gtest.h>

#include <optional>
#include <thread>

#include "engine/engine.hpp"
#include "graph/datasets.hpp"
#include "models/reference.hpp"
#include "rt/fault.hpp"
#include "tests/testing/util.hpp"

namespace gnnbridge {
namespace {

using engine::EngineConfig;
using engine::OptimizedEngine;
using kernels::ExecMode;

TEST(AutoTune, PreservesSemantics) {
  const graph::Dataset data = graph::make_dataset(graph::DatasetId::kCollab, 0.01);
  models::GcnConfig cfg;
  cfg.dims = {16, 8, 4};
  const models::GcnParams params = models::init_gcn(cfg, 1);
  const models::Matrix x = models::init_features(data.csr.num_nodes, 16, 2);
  const models::Matrix expect = models::gcn_forward_ref(data.csr, x, cfg, params);

  EngineConfig ecfg;
  ecfg.auto_tune = true;
  OptimizedEngine e(ecfg);
  const auto r = e.run_gcn(data, {&cfg, &params, &x}, ExecMode::kFull, sim::v100());
  EXPECT_TRUE(tensor::allclose(r.output, expect, 2e-3f, 2e-4f));
}

TEST(AutoTune, NotSlowerThanDefaultsOnSkewedGraph) {
  const graph::Dataset data = graph::make_dataset(graph::DatasetId::kArxiv, 0.1);
  models::GcnConfig cfg;
  cfg.dims = {64, 48};  // an awkward width the static 32-lane default wastes
  const models::GcnParams params = models::init_gcn(cfg, 3);
  const models::Matrix x = models::init_features(data.csr.num_nodes, 64, 4);

  EngineConfig plain;
  plain.use_neighbor_grouping = false;  // untuned static schedule
  EngineConfig tuned = plain;
  tuned.auto_tune = true;
  OptimizedEngine a(plain), b(tuned);
  const auto ra = a.run_gcn(data, {&cfg, &params, &x}, ExecMode::kSimulateOnly, sim::v100());
  const auto rb = b.run_gcn(data, {&cfg, &params, &x}, ExecMode::kSimulateOnly, sim::v100());
  EXPECT_LT(rb.ms, ra.ms * 1.05);  // tuning must not regress materially
}

// Regression: the engine used to key its memoized LAS order and tuned
// configuration by the graph's address (&csr). A dataset mutated or
// reloaded in place — same address, different content — silently reused
// the stale schedule. The caches are now keyed by content fingerprint;
// swapping a different graph into the same Dataset object must retune.
TEST(AutoTune, MutatedGraphAtSameAddressIsRetuned) {
  graph::Dataset data = graph::make_dataset(graph::DatasetId::kCollab, 0.02);
  models::GcnConfig cfg;
  cfg.dims = {32, 16};
  const models::GcnParams params = models::init_gcn(cfg, 5);

  // Two cache populations: the default engine memoizes LAS orders; the
  // auto-tuning engine memoizes tuned configurations (which may well turn
  // LAS off for a small graph, so its LAS cache is not asserted).
  OptimizedEngine las_engine;
  EngineConfig tcfg;
  tcfg.auto_tune = true;
  OptimizedEngine tuned_engine(tcfg);

  const auto run_both = [&](const models::Matrix& x) {
    const auto rl =
        las_engine.run_gcn(data, {&cfg, &params, &x}, ExecMode::kSimulateOnly, sim::v100());
    EXPECT_TRUE(rl.status.ok()) << rl.status.to_string();
    const auto rt =
        tuned_engine.run_gcn(data, {&cfg, &params, &x}, ExecMode::kSimulateOnly, sim::v100());
    EXPECT_TRUE(rt.status.ok()) << rt.status.to_string();
    return rt;
  };

  const models::Matrix x1 = models::init_features(data.csr.num_nodes, 32, 6);
  const auto r1 = run_both(x1);
  EXPECT_EQ(las_engine.las_cache_size(), 1u);
  EXPECT_EQ(tuned_engine.tuned_cache_size(), 1u);

  // Reload a structurally different graph into the same Dataset object:
  // `data.csr` keeps its address but now holds different content.
  data.csr = graph::make_dataset(graph::DatasetId::kArxiv, 0.02).csr;
  const models::Matrix x2 = models::init_features(data.csr.num_nodes, 32, 6);
  run_both(x2);
  EXPECT_EQ(las_engine.las_cache_size(), 2u) << "stale LAS order reused for mutated graph";
  EXPECT_EQ(tuned_engine.tuned_cache_size(), 2u) << "stale tuned config reused for mutated graph";

  // And the original graph's entries are still valid: rerunning the first
  // input hits the cache instead of growing it.
  data.csr = graph::make_dataset(graph::DatasetId::kCollab, 0.02).csr;
  const auto r3 = run_both(x1);
  EXPECT_EQ(las_engine.las_cache_size(), 2u);
  EXPECT_EQ(tuned_engine.tuned_cache_size(), 2u);
  EXPECT_DOUBLE_EQ(r1.ms, r3.ms);
}

TEST(AutoTune, TunedConfigCachedAcrossRuns) {
  const graph::Dataset data = graph::make_dataset(graph::DatasetId::kCollab, 0.02);
  models::GcnConfig cfg;
  cfg.dims = {32, 16};
  const models::GcnParams params = models::init_gcn(cfg, 5);
  const models::Matrix x = models::init_features(data.csr.num_nodes, 32, 6);

  EngineConfig ecfg;
  ecfg.auto_tune = true;
  OptimizedEngine e(ecfg);
  const auto r1 = e.run_gcn(data, {&cfg, &params, &x}, ExecMode::kSimulateOnly, sim::v100());
  const auto r2 = e.run_gcn(data, {&cfg, &params, &x}, ExecMode::kSimulateOnly, sim::v100());
  // Deterministic and identical: the cached tuned config is reused.
  EXPECT_DOUBLE_EQ(r1.ms, r2.ms);
}

// Regression: graph::fingerprint hashes topology only, and the tuned-knob
// cache used to be keyed by it alone — so a second model with a different
// feature width on the same graph was served knobs (lane width, LAS bound)
// tuned for the first width. The cache key now carries the aggregated
// feature length (dims[1], the width aggregation actually runs at); same
// graph + new width must retune, and re-running either width must hit its
// own entry.
TEST(AutoTune, SameGraphDifferentFeatureWidthIsRetuned) {
  const graph::Dataset data = graph::make_dataset(graph::DatasetId::kCollab, 0.02);
  EngineConfig ecfg;
  ecfg.auto_tune = true;
  OptimizedEngine e(ecfg);

  const auto run_width = [&](tensor::Index hidden, int seed) {
    models::GcnConfig cfg;
    cfg.dims = {32, hidden};
    const models::GcnParams params = models::init_gcn(cfg, seed);
    const models::Matrix x = models::init_features(data.csr.num_nodes, 32, seed + 1);
    const auto r = e.run_gcn(data, {&cfg, &params, &x}, ExecMode::kSimulateOnly, sim::v100());
    EXPECT_TRUE(r.status.ok()) << r.status.to_string();
    return r;
  };

  const auto r24 = run_width(24, 6);
  EXPECT_EQ(e.tuned_cache_size(), 1u);
  run_width(96, 8);
  EXPECT_EQ(e.tuned_cache_size(), 2u)
      << "feature width ignored: 96-wide run served the 24-wide tuned knobs";
  // Both entries stay live: re-running the first width hits its own cache
  // entry (identical clock) instead of growing or clobbering the table.
  const auto again = run_width(24, 6);
  EXPECT_EQ(e.tuned_cache_size(), 2u);
  EXPECT_DOUBLE_EQ(r24.ms, again.ms);
}

// Regression: once a direct run degraded auto_tune, a thread that had tuned
// the graph earlier kept serving that tune while every other thread got the
// heuristic. The recorded action (tuned_bound->heuristic_bound) must hold
// on every thread.
TEST(AutoTune, DegradedTuneAppliesTheHeuristicOnEveryThread) {
  const graph::Dataset data = graph::make_dataset(graph::DatasetId::kArxiv, 0.05);
  models::GcnConfig cfg;
  cfg.dims = {64, 48};
  const models::GcnParams params = models::init_gcn(cfg, 3);
  models::GcnConfig other = cfg;
  other.dims = {64, 32};
  const models::GcnParams other_params = models::init_gcn(other, 3);
  const models::Matrix x = models::init_features(data.csr.num_nodes, 64, 4);
  const auto cycles = [&](OptimizedEngine& e) {
    const auto r = e.run_gcn(data, {&cfg, &params, &x}, ExecMode::kSimulateOnly, sim::v100());
    EXPECT_TRUE(r.status.ok()) << r.status.to_string();
    return r.stats.total_cycles;
  };

  // Grouping off: the untuned static schedule, which the tuned knobs beat.
  EngineConfig untuned_cfg;
  untuned_cfg.use_neighbor_grouping = false;
  EngineConfig ecfg = untuned_cfg;
  ecfg.auto_tune = true;
  OptimizedEngine e(ecfg);
  cycles(e);  // tunes (arxiv, 48) on this thread
  // A probe fault while tuning another width degrades auto_tune for good.
  ASSERT_TRUE(rt::FaultInjector::instance().set_plan("tuner_probe"));
  const auto degraded =
      e.run_gcn(data, {&other, &other_params, &x}, ExecMode::kSimulateOnly, sim::v100());
  rt::FaultInjector::instance().clear();
  ASSERT_TRUE(degraded.status.ok()) << degraded.status.to_string();
  ASSERT_EQ(e.degraded_knobs(), std::vector<std::string>{"auto_tune"});

  const double this_thread = cycles(e);
  double other_thread = 0.0;
  std::thread([&] { other_thread = cycles(e); }).join();
  OptimizedEngine untuned(untuned_cfg);
  const double heuristic = cycles(untuned);
  EXPECT_DOUBLE_EQ(this_thread, heuristic) << "the tuning thread kept its stale tune";
  EXPECT_DOUBLE_EQ(other_thread, heuristic);
}

// Regression: a tune published by a destroyed engine used to satisfy a new
// engine built at the same address, which then skipped its own tuning.
TEST(AutoTune, EngineRebuiltAtTheSameAddressTunesItself) {
  const graph::Dataset data = graph::make_dataset(graph::DatasetId::kCollab, 0.02);
  models::GcnConfig cfg;
  cfg.dims = {32, 16};
  const models::GcnParams params = models::init_gcn(cfg, 5);
  const models::Matrix x = models::init_features(data.csr.num_nodes, 32, 6);
  EngineConfig ecfg;
  ecfg.auto_tune = true;

  std::optional<OptimizedEngine> e;
  e.emplace(ecfg);
  const OptimizedEngine* first = &*e;
  EXPECT_TRUE(e->run_gcn(data, {&cfg, &params, &x}, ExecMode::kSimulateOnly, sim::v100())
                  .status.ok());
  EXPECT_EQ(e->tuned_cache_size(), 1u);

  e.reset();
  e.emplace(ecfg);
  ASSERT_EQ(&*e, first) << "the rebuilt engine must reuse the storage";
  EXPECT_TRUE(e->run_gcn(data, {&cfg, &params, &x}, ExecMode::kSimulateOnly, sim::v100())
                  .status.ok());
  EXPECT_EQ(e->tuned_cache_size(), 1u) << "the rebuilt engine skipped its own tuning";
}

}  // namespace
}  // namespace gnnbridge
