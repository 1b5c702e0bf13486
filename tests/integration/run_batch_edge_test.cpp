// run_batch edge cases (DESIGN.md §12): an empty job list is a successful
// no-op, duplicate caller-supplied request ids are disambiguated with "#n"
// suffixes in every emitted artifact, and a job-local LAS degradation
// reaches the tuner.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "graph/datasets.hpp"
#include "obs/journal.hpp"
#include "par/thread_pool.hpp"
#include "prof/metrics_json.hpp"

namespace gnnbridge {
namespace {

using engine::EngineConfig;
using engine::OptimizedEngine;

class RunBatchEdge : public ::testing::Test {
 protected:
  void SetUp() override { prof::MetricsSink::instance().clear(); }
  void TearDown() override {
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
  obs::EventJournal journal;
  const std::vector<OptimizedEngine::BatchJob> none;
  const auto results = eng.run_batch(none, &journal);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(journal.size(), 0u) << "an empty batch must not journal anything";
  // The batch counter is not consumed: the next real batch is batch 0.
  std::vector<OptimizedEngine::BatchJob> one = {clean_job()};
  const auto after = eng.run_batch(one, &journal);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_TRUE(after[0].status.ok());
  EXPECT_NE(journal.to_jsonl().find("\"req\":\"req-0-0\""), std::string::npos);
}

TEST_F(RunBatchEdge, DuplicateCallerRequestIdsAreDisambiguated) {
  OptimizedEngine eng;
  std::vector<OptimizedEngine::BatchJob> jobs(3, clean_job());
  jobs[0].request_id = "dup";
  jobs[1].request_id = "dup";
  jobs[2].request_id = "dup";
  obs::EventJournal journal;
  const auto results = eng.run_batch(jobs, &journal);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) EXPECT_TRUE(r.status.ok());
  const std::string jsonl = journal.to_jsonl();
  EXPECT_NE(jsonl.find("\"req\":\"dup\""), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"req\":\"dup#2\""), std::string::npos)
      << "second occurrence must be suffixed:\n" << jsonl;
  EXPECT_NE(jsonl.find("\"req\":\"dup#3\""), std::string::npos)
      << "third occurrence must be suffixed:\n" << jsonl;
}

// Regression: the tuner used to run LAS whatever the job's own knob set
// said, so a job whose ladder had turned LAS off still hit an armed
// las_cluster seam inside the tuner. A persistent LAS fault takes the LAS
// rung once; after it nothing in the job may run LAS again, or the fault
// fires again with no rung left and the job fails.
TEST_F(RunBatchEdge, JobLocalLasDisableReachesTheTuner) {
  for (const bool auto_tune : {false, true}) {
    prof::MetricsSink::instance().clear();
    EngineConfig cfg;
    cfg.auto_tune = auto_tune;
    OptimizedEngine eng(cfg);
    std::vector<OptimizedEngine::BatchJob> jobs = {clean_job()};
    jobs[0].fault_plan = "las_cluster=*";
    const auto results = eng.run_batch(jobs);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].status.ok())
        << "auto_tune=" << auto_tune << ": " << results[0].status.to_string();
    const auto degradations = prof::MetricsSink::instance().degradations();
    ASSERT_EQ(degradations.size(), 1u) << "auto_tune=" << auto_tune;
    EXPECT_EQ(degradations[0].knob, "las") << "auto_tune=" << auto_tune;
  }
}

}  // namespace
}  // namespace gnnbridge
