// Critical-path attribution end to end (DESIGN.md §15): run_batch emits
// per-request phase events (attempt, backoff, outcome, e2e, slo_violation)
// from its sequential job-order fold; the triage analyzer re-derives each
// request's end-to-end total from the phases and checks it against the
// engine's own "e2e" bookkeeping (phase-sum invariant, 1e-6 relative).
// With the SLO tracker armed and the flight recorder pointed at a file,
// the triage table, the metrics-v7 `slo` block and the postmortem dump
// must all stay byte-identical at 1, 2, 3, 4 and 8 host threads.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "graph/datasets.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/journal.hpp"
#include "obs/slo.hpp"
#include "par/thread_pool.hpp"
#include "prof/critical_path.hpp"
#include "prof/metrics_json.hpp"
#include "rt/deadline.hpp"

namespace gnnbridge {
namespace {

using engine::EngineConfig;
using engine::OptimizedEngine;

class CriticalPathBatch : public ::testing::Test {
 protected:
  void SetUp() override {
    unsetenv("GNNBRIDGE_FLIGHT_RECORDER");
    prof::MetricsSink::instance().clear();  // also clears registry + SLO tracker
    obs::EventJournal::instance().clear();
    obs::EventJournal::instance().set_enabled(true);
    obs::FlightRecorder::instance().clear();
  }
  void TearDown() override {
    obs::EventJournal::instance().set_enabled(false);
    obs::EventJournal::instance().clear();
    obs::FlightRecorder::instance().clear();
    prof::MetricsSink::instance().clear();
    par::set_max_threads(0);
  }
};

struct Inputs {
  graph::Dataset collab = graph::make_dataset(graph::DatasetId::kCollab, 0.02);
  models::GcnConfig gcn_cfg;
  models::GatConfig gat_cfg;
  models::GcnParams gcn_params;
  models::GatParams gat_params;
  models::Matrix x;

  Inputs() {
    gcn_cfg.dims = {32, 16};
    gat_cfg.dims = {32, 16};
    gcn_params = models::init_gcn(gcn_cfg, 1);
    gat_params = models::init_gat(gat_cfg, 2);
    x = models::init_features(collab.csr.num_nodes, 32, 4);
  }
};

const Inputs& inputs() {
  static const Inputs* in = new Inputs();
  return *in;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Two tenants, retries in play: a four-shot launch fault exhausts the
// degradation ladder on the first attempt (failed attempt -> backoff ->
// clean retry), so backoff and degraded-overhead phases appear in
// waterfalls while every job still ends ok.
std::vector<OptimizedEngine::BatchJob> make_stream(const baselines::GcnRun& gcn,
                                                   const baselines::GatRun& gat) {
  const Inputs& in = inputs();
  const char* plans[] = {"", "sim_launch=4", "tuner_probe=3", ""};
  std::vector<OptimizedEngine::BatchJob> jobs(6);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    OptimizedEngine::BatchJob& job = jobs[i];
    job.data = &in.collab;
    if (i % 2 == 0) {
      job.gcn = &gcn;
      job.tenant = "t-gcn";
    } else {
      job.gat = &gat;
      job.tenant = "t-gat";
    }
    job.spec = sim::v100();
    job.deadline = rt::Deadline::cycles(1e9);
    job.max_attempts = 2;
    job.fault_plan = plans[i % 4];
    job.request_id = "cp-" + std::to_string(i);
  }
  return jobs;
}

struct Exports {
  std::string metrics;
  std::string journal;
  std::string triage;
  std::string postmortem;
};

Exports run_and_export(const std::string& postmortem_path) {
  const Inputs& in = inputs();
  EngineConfig cfg;
  cfg.auto_tune = true;
  OptimizedEngine eng(cfg);

  prof::MetricsSink& sink = prof::MetricsSink::instance();
  sink.clear();
  obs::EventJournal::instance().clear();
  obs::FlightRecorder::instance().clear();
  obs::FlightRecorder::instance().arm(postmortem_path);
  std::remove(postmortem_path.c_str());

  // A 1-cycle latency objective makes every request a latency violation,
  // and the 0.75 success target exhausts each tenant's budget on its first
  // violation — exercising the slo_violation events and the recorder's
  // slo_budget_exhausted trigger on a stream that still succeeds.
  obs::SloConfig slo_cfg;
  slo_cfg.latency_objective_cycles = 1.0;
  slo_cfg.success_objective = 0.75;
  slo_cfg.window_cycles = 0.0;
  obs::SloTracker::instance().configure(slo_cfg);

  sink.configure("critical_path", 0.02);
  sink.set_meta(prof::MetaInfo{.git_sha = "fixed",
                               .timestamp = "2026-01-01T00:00:00Z",
                               .hostname = "fixed",
                               .scale_env = "0.02",
                               .threads = 0});

  baselines::GcnRun gcn{&in.gcn_cfg, &in.gcn_params, &in.x};
  baselines::GatRun gat{&in.gat_cfg, &in.gat_params, &in.x};
  const auto jobs = make_stream(gcn, gat);
  const auto results = eng.run_batch(jobs);
  EXPECT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].status.ok())
        << "job " << i << ": " << results[i].status.to_string();
  }

  Exports out;
  out.metrics = sink.to_json();
  out.journal = obs::EventJournal::instance().to_jsonl();
  const auto events = prof::parse_journal_jsonl(out.journal);
  EXPECT_TRUE(events.ok()) << events.status().to_string();
  if (events.ok()) {
    out.triage = prof::render_waterfall_table(prof::analyze_critical_path(*events), 3);
  }
  out.postmortem = read_file(postmortem_path);
  std::remove(postmortem_path.c_str());
  sink.clear();
  obs::EventJournal::instance().clear();
  obs::FlightRecorder::instance().clear();
  return out;
}

TEST_F(CriticalPathBatch, PhaseSumMatchesEndToEndWithinTolerance) {
  const Inputs& in = inputs();
  par::set_max_threads(2);
  EngineConfig cfg;
  cfg.auto_tune = true;
  OptimizedEngine eng(cfg);
  baselines::GcnRun gcn{&in.gcn_cfg, &in.gcn_params, &in.x};
  baselines::GatRun gat{&in.gat_cfg, &in.gat_params, &in.x};
  const auto jobs = make_stream(gcn, gat);
  (void)eng.run_batch(jobs);

  const auto events = prof::parse_journal_jsonl(obs::EventJournal::instance().to_jsonl());
  ASSERT_TRUE(events.ok()) << events.status().to_string();
  const prof::CriticalPathReport report = prof::analyze_critical_path(*events);

  ASSERT_EQ(report.requests.size(), jobs.size());
  EXPECT_EQ(report.invariant_checked, jobs.size());
  EXPECT_EQ(report.invariant_violations, 0u);
  EXPECT_LE(report.max_invariant_rel_error, prof::kCriticalPathTolerance);
  bool saw_retry = false;
  for (const prof::RequestWaterfall& req : report.requests) {
    ASSERT_TRUE(req.has_e2e) << req.request_id;
    EXPECT_EQ(req.outcome, "ok") << req.request_id;
    EXPECT_GE(req.attempts, 1u);
    saw_retry = saw_retry || req.attempts > 1;
    const double scale = std::max(std::abs(req.end_to_end_cycles), 1.0);
    EXPECT_LE(std::abs(req.phase_sum() - req.end_to_end_cycles),
              prof::kCriticalPathTolerance * scale)
        << req.request_id << ": phase sum " << req.phase_sum() << " vs e2e "
        << req.end_to_end_cycles;
  }
  EXPECT_TRUE(saw_retry) << "fault plan should force at least one multi-attempt request";
}

TEST_F(CriticalPathBatch, TriageSloAndPostmortemByteIdenticalAt1_2_3_4_8Threads) {
  const std::string path = ::testing::TempDir() + "critical_path_postmortem.json";
  par::set_max_threads(1);
  const Exports serial = run_and_export(path);
  ASSERT_FALSE(serial.metrics.empty());
  ASSERT_FALSE(serial.triage.empty());
  EXPECT_NE(serial.metrics.find("\"slo\":{\"enabled\":true"), std::string::npos);
  EXPECT_NE(serial.metrics.find("\"tenant\":\"t-gat\""), std::string::npos);
  EXPECT_NE(serial.journal.find("\"type\":\"slo_violation\""), std::string::npos);
  EXPECT_NE(serial.triage.find("cp-0"), std::string::npos) << serial.triage;
  EXPECT_NE(serial.triage.find("[slo]"), std::string::npos) << serial.triage;
  ASSERT_FALSE(serial.postmortem.empty())
      << "budget exhaustion must have triggered a postmortem dump";
  EXPECT_NE(serial.postmortem.find("\"kind\":\"slo_budget_exhausted\""), std::string::npos)
      << serial.postmortem;

  for (int threads : {2, 3, 4, 8}) {
    par::set_max_threads(threads);
    const Exports parallel = run_and_export(path);
    EXPECT_EQ(parallel.metrics, serial.metrics) << "metrics at " << threads << " threads";
    EXPECT_EQ(parallel.journal, serial.journal) << "journal at " << threads << " threads";
    EXPECT_EQ(parallel.triage, serial.triage) << "triage at " << threads << " threads";
    EXPECT_EQ(parallel.postmortem, serial.postmortem)
        << "postmortem at " << threads << " threads";
  }
}

}  // namespace
}  // namespace gnnbridge
