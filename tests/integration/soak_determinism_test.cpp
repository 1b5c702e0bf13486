// Resilient run_batch determinism (DESIGN.md §11 + §12): with per-job
// fault plans, bounded deadlines, retries and the circuit breaker all
// active, the metrics document — kernel counters, degradations AND the
// serving telemetry — must stay byte-identical at 1, 2, 3, 4 and 8 host
// threads.
// Also pins the per-job resilience surface of RunResult (attempts,
// timed_out, breaker_state) for deadline expiry and external cancellation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "graph/datasets.hpp"
#include "obs/registry.hpp"
#include "par/thread_pool.hpp"
#include "prof/metrics_json.hpp"
#include "rt/deadline.hpp"
#include "rt/status.hpp"

namespace gnnbridge {
namespace {

using engine::EngineConfig;
using engine::OptimizedEngine;

class SoakDeterminism : public ::testing::Test {
 protected:
  void TearDown() override { par::set_max_threads(0); }
};

struct Inputs {
  graph::Dataset collab = graph::make_dataset(graph::DatasetId::kCollab, 0.02);
  graph::Dataset arxiv = graph::make_dataset(graph::DatasetId::kArxiv, 0.02);
  models::GcnConfig gcn_cfg;
  models::GatConfig gat_cfg;
  models::GcnParams gcn_params;
  models::GatParams gat_params;
  models::Matrix x_collab, x_arxiv;

  Inputs() {
    gcn_cfg.dims = {32, 16};
    gat_cfg.dims = {32, 16};
    gcn_params = models::init_gcn(gcn_cfg, 1);
    gat_params = models::init_gat(gat_cfg, 2);
    x_collab = models::init_features(collab.csr.num_nodes, 32, 4);
    x_arxiv = models::init_features(arxiv.csr.num_nodes, 32, 4);
  }
};

const Inputs& inputs() {
  static const Inputs* in = new Inputs();
  return *in;
}

// A small soak stream exercising every resilience path that must stay
// deterministic: a tuner-probe burst (degrades auto_tune), a two-shot
// launch fault (absorbed by two ladder rungs), a LAS fault (falls back to
// natural order), and clean jobs sharing the warm caches — all under a
// generous bounded deadline with retry budget.
std::vector<OptimizedEngine::BatchJob> make_stream(const baselines::GcnRun& gcn_collab,
                                                   const baselines::GatRun& gat_collab,
                                                   const baselines::GcnRun& gcn_arxiv) {
  const Inputs& in = inputs();
  const char* plans[] = {"tuner_probe=3", "sim_launch=2", "", "las_cluster"};
  std::vector<OptimizedEngine::BatchJob> jobs(8);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    OptimizedEngine::BatchJob& job = jobs[i];
    switch (i % 4) {
      case 0: job.data = &in.collab; job.gcn = &gcn_collab; break;
      case 1: job.data = &in.collab; job.gat = &gat_collab; break;
      case 2: job.data = &in.arxiv; job.gcn = &gcn_arxiv; break;
      case 3: job.data = &in.collab; job.gat = &gat_collab; break;
    }
    job.spec = sim::v100();
    job.deadline = rt::Deadline::cycles(1e9);
    job.max_attempts = 2;
    job.fault_plan = plans[i % 4];
  }
  return jobs;
}

// One full soak pass through a fresh engine, serialized with pinned meta.
std::string run_soak_and_serialize() {
  const Inputs& in = inputs();
  EngineConfig cfg;
  cfg.auto_tune = true;
  OptimizedEngine eng(cfg);

  prof::MetricsSink& sink = prof::MetricsSink::instance();
  sink.clear();
  sink.configure("soak_determinism", 0.02);
  sink.set_meta(prof::MetaInfo{.git_sha = "fixed",
                               .timestamp = "2026-01-01T00:00:00Z",
                               .hostname = "fixed",
                               .scale_env = "0.02",
                               .threads = 0});

  baselines::GcnRun gcn_collab{&in.gcn_cfg, &in.gcn_params, &in.x_collab};
  baselines::GatRun gat_collab{&in.gat_cfg, &in.gat_params, &in.x_collab};
  baselines::GcnRun gcn_arxiv{&in.gcn_cfg, &in.gcn_params, &in.x_arxiv};
  const auto jobs = make_stream(gcn_collab, gat_collab, gcn_arxiv);
  const std::vector<baselines::RunResult> results = eng.run_batch(jobs);
  EXPECT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].status.ok())
        << "job " << i << ": " << results[i].status.to_string();
    EXPECT_FALSE(results[i].timed_out) << "job " << i;
    EXPECT_EQ(results[i].breaker_state, "closed") << "job " << i;
    sink.record({.label = "job" + std::to_string(i),
                 .model = jobs[i].gcn ? "gcn" : "gat",
                 .backend = "ours",
                 .dataset = jobs[i].data->name,
                 .ms = results[i].ms,
                 .oom = results[i].oom,
                 .stats = results[i].stats,
                 .spec = sim::v100()});
  }
  const obs::TelemetryRegistry& reg = obs::TelemetryRegistry::instance();
  EXPECT_EQ(reg.counter_value("serve.jobs"), jobs.size());
  EXPECT_GE(reg.counter_value("serve.attempts"), jobs.size());
  EXPECT_EQ(reg.counter_value("serve.jobs_deadline"), 0u);
  EXPECT_EQ(reg.counter_value("serve.jobs_cancelled"), 0u);
  std::string doc = sink.to_json();
  sink.clear();
  return doc;
}

TEST_F(SoakDeterminism, FaultedSoakMetricsByteIdenticalAt1_2_3_4_8Threads) {
  par::set_max_threads(1);
  const std::string serial = run_soak_and_serialize();
  ASSERT_FALSE(serial.empty());
  for (int threads : {2, 3, 4, 8}) {
    par::set_max_threads(threads);
    const std::string parallel = run_soak_and_serialize();
    EXPECT_EQ(parallel, serial) << "at " << threads << " threads";
  }
}

TEST_F(SoakDeterminism, DeadlineExpiryMarksTheJobWithoutBlockingHealthyOnes) {
  const Inputs& in = inputs();
  par::set_max_threads(4);
  EngineConfig cfg;
  OptimizedEngine eng(cfg);
  baselines::GcnRun gcn{&in.gcn_cfg, &in.gcn_params, &in.x_collab};
  baselines::GatRun gat{&in.gat_cfg, &in.gat_params, &in.x_collab};

  std::vector<OptimizedEngine::BatchJob> jobs(2);
  jobs[0].data = &in.collab;
  jobs[0].gcn = &gcn;
  jobs[0].spec = sim::v100();
  jobs[0].deadline = rt::Deadline::cycles(10.0);  // expires on the first launch
  jobs[0].max_attempts = 3;
  jobs[1].data = &in.collab;
  jobs[1].gat = &gat;
  jobs[1].spec = sim::v100();

  const auto results = eng.run_batch(jobs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status.code(), rt::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(results[0].timed_out);
  // Deadline expiry is fatal (rt/retry.hpp): the retry budget must not be
  // spent re-running a job whose sim-time budget is gone.
  EXPECT_EQ(results[0].attempts, 1);
  EXPECT_EQ(results[0].breaker_state, "closed");
  EXPECT_TRUE(results[1].status.ok()) << results[1].status.to_string();
  EXPECT_FALSE(results[1].timed_out);

  EXPECT_GE(obs::TelemetryRegistry::instance().counter_value("serve.jobs_deadline"), 1u);
  prof::MetricsSink::instance().clear();
}

TEST_F(SoakDeterminism, CancelledTokenEndsTheJobAsCancelled) {
  const Inputs& in = inputs();
  par::set_max_threads(2);
  OptimizedEngine eng;
  baselines::GcnRun gcn{&in.gcn_cfg, &in.gcn_params, &in.x_collab};

  rt::CancelToken token;
  token.cancel(rt::Status(rt::StatusCode::kCancelled, "caller gave up"));
  std::vector<OptimizedEngine::BatchJob> jobs(1);
  jobs[0].data = &in.collab;
  jobs[0].gcn = &gcn;
  jobs[0].spec = sim::v100();
  jobs[0].cancel = &token;
  jobs[0].max_attempts = 3;

  const auto results = eng.run_batch(jobs);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status.code(), rt::StatusCode::kCancelled);
  EXPECT_FALSE(results[0].timed_out);
  EXPECT_EQ(results[0].attempts, 1);  // kCancelled is fatal: no retries

  EXPECT_GE(obs::TelemetryRegistry::instance().counter_value("serve.jobs_cancelled"), 1u);
  prof::MetricsSink::instance().clear();
}

}  // namespace
}  // namespace gnnbridge
