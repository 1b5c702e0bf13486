// Serving telemetry end to end (DESIGN.md §13): run_batch fills the
// metrics sink's telemetry registry and the caller's event journal in its
// sequential job-order fold, so the metrics document (telemetry block
// included), the JSONL event journal and the Prometheus exposition must all
// stay byte-identical at 1, 2, 3, 4 and 8 host threads. Each batch journals
// into the journal its caller passes, and none without one. Also pins
// request-id propagation: caller IDs and synthesized "req-<batch>-<index>"
// IDs reach the journal and the tracer's span records.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "graph/datasets.hpp"
#include "obs/journal.hpp"
#include "obs/prometheus.hpp"
#include "obs/registry.hpp"
#include "par/thread_pool.hpp"
#include "prof/fields.hpp"
#include "prof/metrics_json.hpp"
#include "prof/tracer.hpp"

namespace gnnbridge {
namespace {

using engine::EngineConfig;
using engine::OptimizedEngine;

class TelemetryBatch : public ::testing::Test {
 protected:
  void SetUp() override {
    prof::MetricsSink::instance().clear();  // also clears the registry
  }
  void TearDown() override {
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

// A stream with retries in play so attempt and degradation events both hit
// the journal: a sixteen-shot launch fault outlasts the ladder's three
// rungs (each round's five auto-tuner probes all run and spend five shots),
// fails the first attempt and is absorbed by the retry.
std::vector<OptimizedEngine::BatchJob> make_stream(const baselines::GcnRun& gcn,
                                                   const baselines::GatRun& gat) {
  const Inputs& in = inputs();
  const char* plans[] = {"", "sim_launch=16", "tuner_probe=3", ""};
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

// One run of the stream through a fresh engine, journaled into a fresh
// journal unless `journaled` is false. Every run is recorded in the sink,
// so the metrics document carries the results too.
Exports run_and_export(bool journaled = true) {
  const Inputs& in = inputs();
  EngineConfig cfg;
  cfg.auto_tune = true;
  OptimizedEngine eng(cfg);

  prof::MetricsSink& sink = prof::MetricsSink::instance();
  sink.clear();
  sink.configure("telemetry_batch", 0.02);
  sink.set_meta(prof::MetaInfo{.git_sha = "fixed",
                               .timestamp = "2026-01-01T00:00:00Z",
                               .hostname = "fixed",
                               .scale_env = "0.02",
                               .threads = 0});

  baselines::GcnRun gcn{&in.gcn_cfg, &in.gcn_params, &in.x};
  baselines::GatRun gat{&in.gat_cfg, &in.gat_params, &in.x};
  const auto jobs = make_stream(gcn, gat);
  obs::EventJournal journal;
  const auto results = eng.run_batch(jobs, journaled ? &journal : nullptr);
  EXPECT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].status.ok()) << "job " << i << ": " << results[i].status.to_string();
    sink.record({.label = "job" + std::to_string(i),
                 .model = i % 2 == 0 ? "gcn" : "gat",
                 .backend = "ours",
                 .dataset = in.collab.name,
                 .ms = results[i].ms,
                 .oom = results[i].oom,
                 .stats = results[i].stats,
                 .spec = sim::v100()});
  }

  Exports out;
  out.metrics = sink.to_json();
  out.journal = journal.to_jsonl();
  out.prometheus = obs::render_prometheus(sink.telemetry().snapshot());
  sink.clear();
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
  // The stream really retries: some jobs' first attempts fail, and each
  // such job runs a second attempt.
  std::size_t attempts = 0, failed_first = 0, second = 0;
  std::istringstream lines(serial.journal);
  for (std::string line; std::getline(lines, line);) {
    const auto parsed = prof::parse_json(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string() << "\n" << line;
    obs::JournalEvent ev;
    ASSERT_TRUE(prof::read_record(*parsed, "", ev, obs::journal_event_fields).ok()) << line;
    if (ev.type != "attempt") continue;
    ++attempts;
    if (ev.attempt == 1 && ev.code != "OK") ++failed_first;
    if (ev.attempt == 2) ++second;
  }
  EXPECT_GT(attempts, 6u) << "more attempts than jobs:\n" << serial.journal;
  EXPECT_GE(failed_first, 1u) << serial.journal;
  EXPECT_EQ(second, failed_first) << "every failed first attempt is retried:\n"
                                  << serial.journal;
  for (int threads : {2, 3, 4, 8}) {
    par::set_max_threads(threads);
    const Exports parallel = run_and_export();
    EXPECT_EQ(parallel.metrics, serial.metrics) << "metrics at " << threads << " threads";
    EXPECT_EQ(parallel.journal, serial.journal) << "journal at " << threads << " threads";
    EXPECT_EQ(parallel.prometheus, serial.prometheus)
        << "prometheus at " << threads << " threads";
  }
  // Without a journal the batch records no event and changes no other
  // export: the same runs, degradations and telemetry.
  const Exports silent = run_and_export(/*journaled=*/false);
  EXPECT_TRUE(silent.journal.empty());
  EXPECT_EQ(silent.metrics, serial.metrics);
  EXPECT_EQ(silent.prometheus, serial.prometheus);
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

  obs::EventJournal first;
  const auto results = eng.run_batch(jobs, &first);
  ASSERT_EQ(results.size(), 2u);
  // A second batch on the same engine advances the batch counter. Each
  // journal holds only its own batch's events, numbered from seq 0.
  obs::EventJournal second;
  (void)eng.run_batch(jobs, &second);
  const auto requests = [](const obs::EventJournal& journal) {
    const auto summary = obs::check_journal(journal.to_jsonl());
    EXPECT_TRUE(summary.ok()) << summary.status().to_string();
    return summary.ok() ? summary->requests : std::set<std::string>{};
  };
  EXPECT_EQ(requests(first), (std::set<std::string>{"caller-7", "req-0-1"}))
      << "the second job gets a synthesized batch-scoped id";
  EXPECT_EQ(requests(second), (std::set<std::string>{"caller-7", "req-1-1"}));
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
