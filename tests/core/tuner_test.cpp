#include "core/tuner/tuner.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "engine/tune_helper.hpp"
#include "tests/testing/util.hpp"

namespace gnnbridge::core {
namespace {

TEST(Tuner, FindsMinimumOfSyntheticObjective) {
  const Csr g = testing::random_graph(100, 8.0, 1);
  // Synthetic bowl: best at lanes=16, bound=32.
  const TuneResult r = tune_graph_op(g, [](const TuneConfig& cfg) {
    const double lane_term = std::fabs(std::log2(cfg.lanes) - 4.0);
    const double bound_term =
        cfg.group_bound == 0 ? 10.0 : std::fabs(static_cast<double>(cfg.group_bound) - 32.0);
    return 1.0 + lane_term * 100.0 + bound_term;
  });
  EXPECT_EQ(r.best.lanes, 16);
  EXPECT_EQ(r.best.group_bound, 32);
}

TEST(Tuner, RoundsBoundedByConfig) {
  const Csr g = testing::random_graph(100, 20.0, 2);
  TunerOptions opt;
  opt.max_bound_rounds = 5;
  const TuneResult r = tune_graph_op(
      g, [](const TuneConfig&) { return 1.0; }, {}, opt);
  // lanes candidates + <= max_bound_rounds bounds + ungrouped probe.
  EXPECT_LE(r.rounds, static_cast<int>(opt.lane_candidates.size()) + 5 + 1);
}

TEST(Tuner, HistoryRecordsEveryProbe) {
  const Csr g = testing::random_graph(50, 6.0, 3);
  const TuneResult r = tune_graph_op(g, [](const TuneConfig& cfg) {
    return static_cast<double>(cfg.lanes + cfg.group_bound + 1);
  });
  EXPECT_EQ(static_cast<int>(r.history.size()), r.rounds);
  double best = 1e300;
  for (const auto& s : r.history) best = std::min(best, s.cycles);
  EXPECT_DOUBLE_EQ(best, r.best_cycles);
}

TEST(Tuner, PassesThroughLasFlagAndTogglesItLast) {
  const Csr g = testing::random_graph(40, 5.0, 4);
  TuneConfig base;
  base.use_las = true;
  int without_las = 0;
  const TuneResult r = tune_graph_op(g, [&](const TuneConfig& cfg) {
    without_las += cfg.use_las ? 0 : 1;
    return 1.0;
  }, base);
  // All probes honor the base flag except the final toggle probe.
  EXPECT_EQ(without_las, 1);
  EXPECT_FALSE(r.history.back().config.use_las);
}

TEST(Tuner, LasToggleCanWin) {
  const Csr g = testing::random_graph(40, 5.0, 5);
  TuneConfig base;
  base.use_las = true;
  // An objective that hates LAS: the toggle probe must win.
  const TuneResult r = tune_graph_op(
      g, [](const TuneConfig& cfg) { return cfg.use_las ? 100.0 : 1.0; }, base);
  EXPECT_FALSE(r.best.use_las);
}

TEST(Tuner, BrokenProbeAbortsWithStructuredError) {
  const Csr g = testing::random_graph(50, 6.0, 8);
  // A NaN measurement (broken simulator, poisoned counters) must abort the
  // search with a structured error, not poison the comparison chain.
  const TuneResult r =
      tune_graph_op(g, [](const TuneConfig&) { return std::nan(""); });
  EXPECT_FALSE(r.error.ok());
  EXPECT_EQ(r.error.code(), rt::StatusCode::kUnavailable);
  EXPECT_NE(r.error.to_string().find("tune_graph_op"), std::string::npos);
}

TEST(Tuner, NegativeProbeAbortsWithStructuredError) {
  const Csr g = testing::random_graph(50, 6.0, 9);
  const TuneResult r = tune_graph_op(g, [](const TuneConfig&) { return -5.0; });
  EXPECT_FALSE(r.error.ok());
  EXPECT_EQ(r.error.code(), rt::StatusCode::kUnavailable);
}

TEST(Tuner, ProbeFailureMidSearchKeepsLastGoodCandidate) {
  const Csr g = testing::random_graph(50, 6.0, 10);
  // The fourth lane candidate (32) breaks. The failure is keyed on the
  // candidate, not on a call count: the lane probes run in parallel.
  const TuneResult r = tune_graph_op(g, [](const TuneConfig& cfg) {
    return cfg.lanes == 32 ? std::nan("") : cfg.lanes / 4.0;
  });
  EXPECT_FALSE(r.error.ok());
  // The first (cheapest) probe survives as the best seen before the break.
  EXPECT_DOUBLE_EQ(r.best_cycles, 1.0);
  EXPECT_EQ(r.best.lanes, 4);
  EXPECT_EQ(static_cast<int>(r.history.size()), 3);
}

TEST(Tuner, BaseWithoutLasIsNeverToggledOn) {
  const Csr g = testing::random_graph(40, 5.0, 11);
  // An objective that loves LAS: a caller without a LAS order must still
  // never see a LAS candidate.
  const TuneResult r =
      tune_graph_op(g, [](const TuneConfig& cfg) { return cfg.use_las ? 1.0 : 100.0; });
  for (const TuneSample& s : r.history) EXPECT_FALSE(s.config.use_las);
  EXPECT_FALSE(r.best.use_las);
}

TEST(TuneHelper, MeasureAggregationPositiveAndConfigSensitive) {
  const Csr g = testing::random_graph(400, 16.0, 5);
  const sim::DeviceSpec spec = sim::v100();
  TuneConfig a;
  a.lanes = 32;
  a.group_bound = 0;
  TuneConfig b;
  b.lanes = 32;
  b.group_bound = 16;
  const double ca = engine::measure_aggregation(g, 64, a, spec, 1.0);
  const double cb = engine::measure_aggregation(g, 64, b, spec, 1.0);
  EXPECT_GT(ca, 0.0);
  EXPECT_GT(cb, 0.0);
  EXPECT_NE(ca, cb);
}

TEST(TuneHelper, SamplingReducesMeasuredCost) {
  // Needs more blocks than the device has slots, otherwise the makespan is
  // one block's duration either way.
  const Csr g = testing::random_graph(6000, 12.0, 6);
  const sim::DeviceSpec spec = sim::v100();
  TuneConfig cfg;
  const double full = engine::measure_aggregation(g, 32, cfg, spec, 1.0);
  const double sampled = engine::measure_aggregation(g, 32, cfg, spec, 0.25);
  EXPECT_LT(sampled, full);
}

TEST(TuneHelper, EndToEndTuneProducesValidConfig) {
  const Csr g = testing::random_graph(300, 24.0, 7);
  const core::TuneResult r = engine::tune_for(g, 48, sim::v100(), /*las_order=*/nullptr);
  EXPECT_GT(r.best_cycles, 0.0);
  EXPECT_GT(r.rounds, 4);
  EXPECT_TRUE(r.best.lanes == 4 || r.best.lanes == 8 || r.best.lanes == 16 ||
              r.best.lanes == 32 || r.best.lanes == 64);
}

}  // namespace
}  // namespace gnnbridge::core
