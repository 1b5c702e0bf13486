// run_batch edge cases and breaker recovery (DESIGN.md §12): an empty job
// list is a successful no-op, duplicate caller-supplied request ids are
// disambiguated with "#n" suffixes in every emitted artifact, and the
// circuit breaker walks open -> half-open probe -> closed under a
// concurrent clean batch.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "graph/datasets.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"
#include "par/thread_pool.hpp"
#include "prof/metrics_json.hpp"

namespace gnnbridge {
namespace {

using engine::EngineConfig;
using engine::OptimizedEngine;

class RunBatchEdge : public ::testing::Test {
 protected:
  void SetUp() override {
    prof::MetricsSink::instance().clear();
    obs::EventJournal::instance().clear();
    obs::EventJournal::instance().set_enabled(true);
  }
  void TearDown() override {
    obs::EventJournal::instance().set_enabled(false);
    obs::EventJournal::instance().clear();
    prof::MetricsSink::instance().clear();
    par::set_max_threads(0);
  }
};

struct Inputs {
  graph::Dataset collab = graph::make_dataset(graph::DatasetId::kCollab, 0.02);
  models::GcnConfig gcn_cfg;
  models::GcnParams gcn_params;
  models::Matrix x;
  baselines::GcnRun gcn;

  Inputs() {
    gcn_cfg.dims = {32, 16};
    gcn_params = models::init_gcn(gcn_cfg, 1);
    x = models::init_features(collab.csr.num_nodes, 32, 4);
    gcn = {&gcn_cfg, &gcn_params, &x};
  }
};

const Inputs& inputs() {
  static const Inputs* in = new Inputs();
  return *in;
}

OptimizedEngine::BatchJob clean_job() {
  const Inputs& in = inputs();
  OptimizedEngine::BatchJob job;
  job.data = &in.collab;
  job.gcn = &in.gcn;
  job.mode = kernels::ExecMode::kSimulateOnly;
  job.spec = sim::v100();
  return job;
}

TEST_F(RunBatchEdge, EmptyJobListIsASuccessfulNoOp) {
  OptimizedEngine eng;
  const std::vector<OptimizedEngine::BatchJob> none;
  const auto results = eng.run_batch(none);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(obs::EventJournal::instance().size(), 0u)
      << "an empty batch must not journal anything";
  // The batch counter is not consumed: the next real batch is batch 0.
  std::vector<OptimizedEngine::BatchJob> one = {clean_job()};
  const auto after = eng.run_batch(one);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_TRUE(after[0].status.ok());
  EXPECT_NE(obs::EventJournal::instance().to_jsonl().find("\"req\":\"req-0-0\""),
            std::string::npos);
}

TEST_F(RunBatchEdge, DuplicateCallerRequestIdsAreDisambiguated) {
  OptimizedEngine eng;
  std::vector<OptimizedEngine::BatchJob> jobs(3, clean_job());
  jobs[0].request_id = "dup";
  jobs[1].request_id = "dup";
  jobs[2].request_id = "dup";
  const auto results = eng.run_batch(jobs);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) EXPECT_TRUE(r.status.ok());
  const std::string jsonl = obs::EventJournal::instance().to_jsonl();
  EXPECT_NE(jsonl.find("\"req\":\"dup\""), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"req\":\"dup#2\""), std::string::npos)
      << "second occurrence must be suffixed:\n" << jsonl;
  EXPECT_NE(jsonl.find("\"req\":\"dup#3\""), std::string::npos)
      << "third occurrence must be suffixed:\n" << jsonl;
}

TEST_F(RunBatchEdge, BreakerRecoversHalfOpenToClosedUnderConcurrentBatch) {
  par::set_max_threads(8);
  EngineConfig cfg;
  cfg.breaker.failure_threshold = 3;  // the default, pinned for the test
  OptimizedEngine eng(cfg);

  // Three consecutive failures on one key (every launch shot faulted, no
  // retry budget) trip the breaker open.
  std::vector<OptimizedEngine::BatchJob> failing(3, clean_job());
  for (auto& job : failing) {
    job.fault_plan = "sim_launch=*";
    job.max_attempts = 1;
  }
  const auto failed = eng.run_batch(failing);
  for (const auto& r : failed) {
    EXPECT_FALSE(r.status.ok()) << "the fault plan must fail every attempt";
  }
  EXPECT_GE(obs::TelemetryRegistry::instance().counter_value("serve.breaker_trips"), 1u);

  // A concurrent clean batch on the same key: the first open admissions
  // run degraded, every probe_interval-th runs as a half-open probe at
  // full optimization, and the probe's success closes the breaker.
  std::vector<OptimizedEngine::BatchJob> clean(8, clean_job());
  const auto probed = eng.run_batch(clean);
  std::set<std::string> states;
  for (const auto& r : probed) {
    EXPECT_TRUE(r.status.ok()) << r.status.to_string();
    states.insert(r.breaker_state);
  }
  EXPECT_TRUE(states.count("open")) << "pre-probe admissions run degraded under an open breaker";
  EXPECT_TRUE(states.count("half_open")) << "a probe admission must appear";
  EXPECT_GE(obs::TelemetryRegistry::instance().counter_value("serve.breaker_recoveries"), 1u)
      << "the successful probe must close the breaker";

  // Fully recovered: the next batch admits closed everywhere.
  const auto recovered = eng.run_batch(clean);
  for (const auto& r : recovered) {
    EXPECT_TRUE(r.status.ok());
    EXPECT_EQ(r.breaker_state, "closed");
  }
}

// Regression: the tuner used to run LAS whatever the job's own knob set
// said, so a job that turned LAS off still hit an armed las_cluster seam
// inside the tuner. With LAS off, nothing in the job may run it.
TEST_F(RunBatchEdge, JobLocalLasDisableReachesTheTuner) {
  for (const bool auto_tune : {false, true}) {
    EngineConfig cfg;
    cfg.auto_tune = auto_tune;
    OptimizedEngine eng(cfg);
    std::vector<OptimizedEngine::BatchJob> jobs = {clean_job()};
    jobs[0].fault_plan = "las_cluster=*";
    jobs[0].disable_knobs = {"las"};
    const auto results = eng.run_batch(jobs);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].status.ok())
        << "auto_tune=" << auto_tune << ": " << results[0].status.to_string();
    EXPECT_TRUE(prof::MetricsSink::instance().degradations().empty());
  }
}

}  // namespace
}  // namespace gnnbridge
