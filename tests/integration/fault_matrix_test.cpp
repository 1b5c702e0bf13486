// The fault matrix: every named seam, when armed, must leave the system
// in its documented fallback state — the engine completes the run with
// the responsible knob degraded and a degradations[] event recorded
// (las_cluster, tuner_probe, fusion_pass, sim_launch), write_file retries
// through metrics_write, and dataset_load surfaces a structured error.
//
// FaultInjector and MetricsSink are process singletons; each TEST runs in
// its own process under gtest_discover_tests, so plans cannot leak across
// tests. Every test still installs its plan explicitly and clears on exit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "graph/datasets.hpp"
#include "models/reference.hpp"
#include "par/thread_pool.hpp"
#include "prof/metrics_json.hpp"
#include "rt/fault.hpp"
#include "tests/testing/util.hpp"

namespace gnnbridge {
namespace {

using engine::EngineConfig;
using engine::OptimizedEngine;
using kernels::ExecMode;

struct GcnFixture {
  graph::Dataset data = graph::make_dataset(graph::DatasetId::kCollab, 0.02);
  models::GcnConfig cfg;
  models::GcnParams params;
  models::Matrix x;
  models::Matrix expect;

  GcnFixture() {
    cfg.dims = {16, 8, 4};
    params = models::init_gcn(cfg, 1);
    x = models::init_features(data.csr.num_nodes, 16, 2);
    expect = models::gcn_forward_ref(data.csr, x, cfg, params);
  }
};

// Arms `plan`, runs GCN under `ecfg`, and asserts the documented fallback:
// run completed (ok status), numerics intact, `knob` reported degraded,
// and one injected degradation event recorded against `seam`.
void expect_degraded_but_correct(const std::string& plan, EngineConfig ecfg,
                                 std::string_view seam, std::string_view knob) {
  auto& sink = prof::MetricsSink::instance();
  sink.clear();
  ASSERT_TRUE(rt::FaultInjector::instance().set_plan(plan));

  const GcnFixture f;
  OptimizedEngine e(ecfg);
  const auto r = e.run_gcn(f.data, {&f.cfg, &f.params, &f.x}, ExecMode::kFull, sim::v100());
  rt::FaultInjector::instance().clear();

  ASSERT_TRUE(r.status.ok()) << r.status.to_string();
  EXPECT_TRUE(tensor::allclose(r.output, f.expect, 2e-3f, 2e-4f))
      << "degraded run must still compute the right answer";

  const auto knobs = e.degraded_knobs();
  EXPECT_NE(std::find(knobs.begin(), knobs.end(), std::string(knob)), knobs.end())
      << "expected knob '" << knob << "' in the degraded set";

  ASSERT_GE(sink.degradations().size(), 1u);
  bool found = false;
  for (const auto& ev : sink.degradations()) {
    if (ev.seam == seam && ev.knob == knob) {
      found = true;
      EXPECT_TRUE(ev.injected) << "fault-plan failures must be flagged injected";
      EXPECT_FALSE(ev.action.empty());
      EXPECT_NE(ev.detail.find("FAULT_INJECTED"), std::string::npos);
    }
  }
  EXPECT_TRUE(found) << "no degradation event for seam '" << seam << "'";
  sink.clear();
}

TEST(FaultMatrix, LasClusterFaultFallsBackToNaturalOrder) {
  expect_degraded_but_correct("las_cluster", EngineConfig{}, rt::kSeamLasCluster, "las");
}

TEST(FaultMatrix, TunerProbeFaultFallsBackToHeuristicBound) {
  EngineConfig ecfg;
  ecfg.auto_tune = true;
  expect_degraded_but_correct("tuner_probe", ecfg, rt::kSeamTunerProbe, "auto_tune");
}

TEST(FaultMatrix, FusionPassFaultFallsBackToUnfusedPipeline) {
  expect_degraded_but_correct("fusion_pass", EngineConfig{}, rt::kSeamFusionPass, "adapter");
}

TEST(FaultMatrix, SimLaunchFaultFallsBackToConservativeSchedule) {
  expect_degraded_but_correct("sim_launch", EngineConfig{}, rt::kSeamSimLaunch,
                              "neighbor_grouping");
}

TEST(FaultMatrix, PersistentSimLaunchFaultExhaustsTheLadderCleanly) {
  auto& sink = prof::MetricsSink::instance();
  sink.clear();
  ASSERT_TRUE(rt::FaultInjector::instance().set_plan("sim_launch=*"));
  const GcnFixture f;
  OptimizedEngine e{EngineConfig{}};
  const auto r = e.run_gcn(f.data, {&f.cfg, &f.params, &f.x}, ExecMode::kFull, sim::v100());
  rt::FaultInjector::instance().clear();
  // Every rung tried, then a structured failure — never a crash or throw.
  EXPECT_FALSE(r.status.ok());
  EXPECT_GE(sink.degradations().size(), 2u);
  sink.clear();
}

/// What a faulted run left behind.
struct Outcome {
  std::vector<std::string> knobs;  ///< degraded
  models::Matrix output;
  int launches = 0;
  sim::Cycles cycles = 0.0;
  std::string plan_left;
};

/// Runs `run()` at 1, 2, 3, 4 and 8 host threads and expects the same
/// non-empty degraded knobs, output bytes, launches, cycles and leftover
/// plan at each.
template <typename Run>
void expect_same_at_every_thread_count(const std::string& what, Run&& run) {
  const int thread_counts[] = {1, 2, 3, 4, 8};
  std::vector<Outcome> runs;
  for (int threads : thread_counts) {
    par::set_max_threads(threads);
    runs.push_back(run());
  }
  par::set_max_threads(0);
  const Outcome& one = runs.front();
  EXPECT_FALSE(one.knobs.empty()) << what << ": the plan degraded nothing";
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const Outcome& o = runs[i];
    const std::string at = what + " at " + std::to_string(thread_counts[i]) + " threads";
    EXPECT_EQ(o.knobs, one.knobs) << at;
    ASSERT_EQ(o.output.size(), one.output.size()) << at;
    EXPECT_EQ(std::memcmp(o.output.data(), one.output.data(),
                          static_cast<std::size_t>(one.output.size()) * sizeof(float)),
              0)
        << at;
    EXPECT_EQ(o.launches, one.launches) << at;
    EXPECT_EQ(o.cycles, one.cycles) << at;
    EXPECT_EQ(o.plan_left, one.plan_left) << at;
  }
}

// A process-wide plan whose seam fires inside a parallel region (a
// shard body, the auto-tuner's probes) spends its shots alike at any
// thread count: every task of a region runs even after one throws, inline
// or on the pool. So a direct run degrades the same knobs, launches the
// same kernels and leaves the same plan behind at 1 thread as at 8.
TEST(FaultMatrix, ShotsFiredInParallelRegionsMatchTheOneThreadRun) {
  EngineConfig sharded;
  sharded.shards = 4;
  EngineConfig tuned;
  tuned.auto_tune = true;
  const struct {
    const char* plan;
    EngineConfig ecfg;
  } cases[] = {{"sim_launch=2", sharded}, {"sim_launch=2", tuned}, {"tuner_probe=3", tuned}};
  const GcnFixture f;
  for (const auto& c : cases) {
    expect_same_at_every_thread_count(c.plan, [&] {
      EXPECT_TRUE(rt::FaultInjector::instance().set_plan(c.plan));
      OptimizedEngine e(c.ecfg);
      const auto r = e.run_gcn(f.data, {&f.cfg, &f.params, &f.x}, ExecMode::kFull, sim::v100());
      EXPECT_TRUE(r.status.ok()) << c.plan;
      Outcome o{e.degraded_knobs(), r.output, r.stats.num_launches(), r.stats.total_cycles,
                rt::FaultInjector::instance().plan_string()};
      rt::FaultInjector::instance().clear();
      return o;
    });
  }
}

// A batch of one job runs its nested regions (tuner probes, replays) on
// the job's thread, the only one that sees its fault plan, as every job
// of a larger batch does. So its shots land alike at any thread count; a
// probe on a pool worker would miss the plan, leaving more shots for the
// forward pass at 2 or more threads.
TEST(FaultMatrix, OneJobBatchSpendsItsPlanAlikeAt1_2_3_4_8Threads) {
  const GcnFixture f;
  const baselines::GcnRun run{&f.cfg, &f.params, &f.x};
  OptimizedEngine::BatchJob job;
  job.data = &f.data;
  job.gcn = &run;
  job.mode = ExecMode::kFull;
  job.spec = sim::v100();
  job.max_attempts = 1;
  job.fault_plan = "sim_launch=4";
  EngineConfig tuned;
  tuned.auto_tune = true;
  expect_same_at_every_thread_count(job.fault_plan, [&] {
    prof::MetricsSink::instance().clear();
    OptimizedEngine e(tuned);
    const auto r = e.run_batch({&job, 1}).front();
    EXPECT_TRUE(r.status.ok()) << r.status.to_string();
    Outcome o{{}, r.output, r.stats.num_launches(), r.stats.total_cycles, ""};
    for (const auto& ev : prof::MetricsSink::instance().degradations()) o.knobs.push_back(ev.knob);
    return o;
  });
}

// tuner_probe and sim_launch both fire inside the tuner's parallel probes.
// The tuner_probe shot is drawn for the first candidate before any probe
// runs, so the lowest-index failure is always that one and the run always
// degrades auto-tuning, never neighbor grouping, whichever probe takes the
// sim_launch shot.
TEST(FaultMatrix, TwoSeamsInOneRegionDegradeAutoTuneAtEveryThreadCount) {
  const GcnFixture f;
  EngineConfig tuned;
  tuned.auto_tune = true;
  std::vector<int> thread_counts(50, 8);
  thread_counts.insert(thread_counts.end(), {1, 2, 3, 4});
  for (int threads : thread_counts) {
    par::set_max_threads(threads);
    ASSERT_TRUE(rt::FaultInjector::instance().set_plan("tuner_probe=1,sim_launch=1"));
    OptimizedEngine e(tuned);
    const auto r =
        e.run_gcn(f.data, {&f.cfg, &f.params, &f.x}, ExecMode::kSimulateOnly, sim::v100());
    rt::FaultInjector::instance().clear();
    ASSERT_TRUE(r.status.ok()) << r.status.to_string();
    EXPECT_EQ(e.degraded_knobs(), std::vector<std::string>{"auto_tune"})
        << "at " << threads << " threads";
  }
  par::set_max_threads(0);
  prof::MetricsSink::instance().clear();
}

TEST(FaultMatrix, DatasetLoadFaultIsAStructuredError) {
  ASSERT_TRUE(rt::FaultInjector::instance().set_plan("dataset_load"));
  const auto r = graph::try_make_dataset(graph::DatasetId::kArxiv, 0.02);
  rt::FaultInjector::instance().clear();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), rt::StatusCode::kFaultInjected);
  ASSERT_FALSE(r.status().context().empty());
  EXPECT_NE(r.status().context()[0].find("try_make_dataset"), std::string::npos);
  // The seam is consumed: the next load succeeds.
  EXPECT_TRUE(graph::try_make_dataset(graph::DatasetId::kArxiv, 0.02).ok());
}

TEST(FaultMatrix, MetricsWriteFaultRetriesAndRecordsTheEvent) {
  auto& sink = prof::MetricsSink::instance();
  sink.clear();
  sink.configure("fault_matrix", 1.0);
  ASSERT_TRUE(rt::FaultInjector::instance().set_plan("metrics_write"));
  const std::string path = std::string(::testing::TempDir()) + "/fault_metrics.json";
  const rt::Status s = sink.write_file(path);
  rt::FaultInjector::instance().clear();
  ASSERT_TRUE(s.ok()) << s.to_string();
  EXPECT_EQ(sink.degradations().size(), 1u);
  // The retried write serializes after recording, so the file itself
  // carries the degradation event.
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"knob\":\"metrics_sink\""), std::string::npos);
  EXPECT_NE(buf.str().find("\"action\":\"retry_write\""), std::string::npos);
  std::remove(path.c_str());
  sink.clear();
}

TEST(FaultMatrix, PersistentMetricsWriteFaultSurfacesTheLastError) {
  auto& sink = prof::MetricsSink::instance();
  sink.clear();
  sink.configure("fault_matrix", 1.0);
  ASSERT_TRUE(rt::FaultInjector::instance().set_plan("metrics_write=*"));
  const std::string path = std::string(::testing::TempDir()) + "/never_written.json";
  const rt::Status s = sink.write_file(path);
  rt::FaultInjector::instance().clear();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), rt::StatusCode::kFaultInjected);
  sink.clear();
}

TEST(FaultMatrix, EnginePreflightRejectsCorruptGraph) {
  GcnFixture f;
  f.data.csr.col_idx[0] = f.data.csr.num_nodes + 5;  // out-of-range edge
  OptimizedEngine e{EngineConfig{}};
  const auto r = e.run_gcn(f.data, {&f.cfg, &f.params, &f.x}, ExecMode::kFull, sim::v100());
  EXPECT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), rt::StatusCode::kFailedPrecondition);
}

TEST(FaultMatrix, EnginePreflightRejectsNaNFeatures) {
  GcnFixture f;
  f.x(0, 0) = std::numeric_limits<float>::quiet_NaN();
  OptimizedEngine e{EngineConfig{}};
  const auto r = e.run_gcn(f.data, {&f.cfg, &f.params, &f.x}, ExecMode::kFull, sim::v100());
  EXPECT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), rt::StatusCode::kFailedPrecondition);
  EXPECT_NE(r.status.to_string().find("features"), std::string::npos);
}

TEST(FaultMatrix, EnginePreflightRevalidatesFeaturesWrittenInPlace) {
  GcnFixture f;
  OptimizedEngine e{EngineConfig{}};
  const auto ok = e.run_gcn(f.data, {&f.cfg, &f.params, &f.x}, ExecMode::kFull, sim::v100());
  ASSERT_TRUE(ok.status.ok()) << ok.status.to_string();
  // The same matrix, at the same address, now holds a NaN.
  f.x(0, 0) = std::numeric_limits<float>::quiet_NaN();
  const auto r = e.run_gcn(f.data, {&f.cfg, &f.params, &f.x}, ExecMode::kFull, sim::v100());
  EXPECT_EQ(r.status.code(), rt::StatusCode::kFailedPrecondition);
  EXPECT_NE(r.status.to_string().find("features"), std::string::npos);
}

}  // namespace
}  // namespace gnnbridge
