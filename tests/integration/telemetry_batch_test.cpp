// Serving telemetry end to end (DESIGN.md §13): run_batch fills the
// telemetry registry and the event journal in its sequential job-order
// fold, so the metrics document (telemetry block included), the JSONL
// event journal and the Prometheus exposition must all stay byte-identical
// at 1, 2, 3, 4 and 8 host threads. Also pins request-id propagation: caller
// IDs and synthesized "req-<batch>-<index>" IDs reach the journal and the
// tracer's span records.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "graph/datasets.hpp"
#include "obs/journal.hpp"
#include "obs/prometheus.hpp"
#include "obs/registry.hpp"
#include "par/thread_pool.hpp"
#include "prof/metrics_json.hpp"
#include "prof/tracer.hpp"
#include "rt/deadline.hpp"

namespace gnnbridge {
namespace {

using engine::EngineConfig;
using engine::OptimizedEngine;

class TelemetryBatch : public ::testing::Test {
 protected:
  void SetUp() override {
    prof::MetricsSink::instance().clear();  // also clears the registry
    obs::EventJournal::instance().clear();
    obs::EventJournal::instance().set_enabled(true);
  }
  void TearDown() override {
    obs::EventJournal::instance().set_enabled(false);
    obs::EventJournal::instance().clear();
    prof::MetricsSink::instance().clear();
    prof::Tracer::instance().set_enabled(false);
    prof::Tracer::instance().clear();
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

// A stream with retries in play so attempt, backoff and degradation events
// all hit the journal: a four-shot launch fault outlasts the ladder's
// rungs, fails the first attempt and is absorbed by the retry.
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
    } else {
      job.gat = &gat;
    }
    job.spec = sim::v100();
    job.deadline = rt::Deadline::cycles(1e9);
    job.max_attempts = 2;
    job.fault_plan = plans[i % 4];
  }
  return jobs;
}

struct Exports {
  std::string metrics;
  std::string journal;
  std::string prometheus;
};

Exports run_and_export() {
  const Inputs& in = inputs();
  EngineConfig cfg;
  cfg.auto_tune = true;
  OptimizedEngine eng(cfg);

  prof::MetricsSink& sink = prof::MetricsSink::instance();
  sink.clear();
  obs::EventJournal::instance().clear();
  sink.configure("telemetry_batch", 0.02);
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
  out.prometheus = obs::render_prometheus(obs::TelemetryRegistry::instance().snapshot());
  sink.clear();
  obs::EventJournal::instance().clear();
  return out;
}

TEST_F(TelemetryBatch, ExportsByteIdenticalAt1_2_3_4_8Threads) {
  par::set_max_threads(1);
  const Exports serial = run_and_export();
  ASSERT_FALSE(serial.metrics.empty());
  ASSERT_FALSE(serial.journal.empty());
  ASSERT_FALSE(serial.prometheus.empty());
  EXPECT_NE(serial.metrics.find("\"telemetry\""), std::string::npos);
  EXPECT_NE(serial.prometheus.find("gnnbridge_serve_job_cycles_count 6"), std::string::npos)
      << serial.prometheus;
  // The stream really retries: a failed attempt, a backoff, another attempt.
  const auto events = [&](const char* type) {
    const std::string needle = std::string("\"type\":\"") + type + "\"";
    std::size_t n = 0;
    for (std::size_t at = serial.journal.find(needle); at != std::string::npos;
         at = serial.journal.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_GE(events("backoff"), 1u) << serial.journal;
  EXPECT_GT(events("attempt"), 6u) << "more attempts than jobs:\n" << serial.journal;
  for (int threads : {2, 3, 4, 8}) {
    par::set_max_threads(threads);
    const Exports parallel = run_and_export();
    EXPECT_EQ(parallel.metrics, serial.metrics) << "metrics at " << threads << " threads";
    EXPECT_EQ(parallel.journal, serial.journal) << "journal at " << threads << " threads";
    EXPECT_EQ(parallel.prometheus, serial.prometheus)
        << "prometheus at " << threads << " threads";
  }
}

TEST_F(TelemetryBatch, JournalCarriesCallerAndSynthesizedRequestIds) {
  const Inputs& in = inputs();
  par::set_max_threads(2);
  OptimizedEngine eng;
  baselines::GcnRun gcn{&in.gcn_cfg, &in.gcn_params, &in.x};

  std::vector<OptimizedEngine::BatchJob> jobs(2);
  jobs[0].data = &in.collab;
  jobs[0].gcn = &gcn;
  jobs[0].spec = sim::v100();
  jobs[0].request_id = "caller-7";
  jobs[1].data = &in.collab;
  jobs[1].gcn = &gcn;
  jobs[1].spec = sim::v100();

  const auto results = eng.run_batch(jobs);
  ASSERT_EQ(results.size(), 2u);
  const std::string jsonl = obs::EventJournal::instance().to_jsonl();
  EXPECT_NE(jsonl.find("\"req\":\"caller-7\""), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"req\":\"req-0-1\""), std::string::npos)
      << "second job must get a synthesized batch-scoped id:\n" << jsonl;
  // A second batch on the same engine advances the batch counter.
  obs::EventJournal::instance().clear();
  (void)eng.run_batch(jobs);
  EXPECT_NE(obs::EventJournal::instance().to_jsonl().find("\"req\":\"req-1-1\""),
            std::string::npos);
}

TEST_F(TelemetryBatch, SpansRecordTheRequestId) {
  const Inputs& in = inputs();
  par::set_max_threads(2);
  prof::Tracer::instance().clear();
  prof::Tracer::instance().set_enabled(true);
  OptimizedEngine eng;
  baselines::GcnRun gcn{&in.gcn_cfg, &in.gcn_params, &in.x};

  std::vector<OptimizedEngine::BatchJob> jobs(1);
  jobs[0].data = &in.collab;
  jobs[0].gcn = &gcn;
  jobs[0].spec = sim::v100();
  jobs[0].request_id = "span-req";
  (void)eng.run_batch(jobs);
  prof::Tracer::instance().set_enabled(false);

  std::size_t stamped = 0;
  for (const prof::SpanRecord& span : prof::Tracer::instance().snapshot()) {
    if (span.request_id == "span-req") ++stamped;
  }
  EXPECT_GT(stamped, 0u) << "no span carried the job's request id";
}

}  // namespace
}  // namespace gnnbridge
