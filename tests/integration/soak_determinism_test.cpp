// Resilient run_batch determinism (DESIGN.md §11 + §12): with per-job
// fault plans, job-local ladders and retries all active, the metrics
// document — kernel counters, degradations AND the serving telemetry —,
// the event journal and the stderr "degrading" lines must stay
// byte-identical at 1, 2, 3, 4 and 8 host threads.
#include <gtest/gtest.h>

#include <iterator>
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

class SoakDeterminism : public ::testing::Test {
 protected:
  void TearDown() override { par::set_max_threads(0); }
};

struct Inputs {
  graph::Dataset collab = graph::make_dataset(graph::DatasetId::kCollab, 0.02);
  graph::Dataset arxiv = graph::make_dataset(graph::DatasetId::kArxiv, 0.02);
  models::GcnConfig gcn_cfg;
  models::GatConfig gat_cfg;
  models::SagePoolConfig pool_cfg;
  models::MultiHeadGatConfig mh_cfg;
  models::GcnParams gcn_params;
  models::GatParams gat_params;
  models::SagePoolParams pool_params;
  models::MultiHeadGatParams mh_params;
  models::Matrix x_collab, x_arxiv;

  Inputs() {
    gcn_cfg.dims = {32, 16};
    gat_cfg.dims = {32, 16};
    pool_cfg.in_feat = 32;
    mh_cfg.in_feat = 32;
    gcn_params = models::init_gcn(gcn_cfg, 1);
    gat_params = models::init_gat(gat_cfg, 2);
    pool_params = models::init_sage_pool(pool_cfg, 4);
    mh_params = models::init_multihead_gat(mh_cfg, 5);
    x_collab = models::init_features(collab.csr.num_nodes, 32, 4);
    x_arxiv = models::init_features(arxiv.csr.num_nodes, 32, 4);
  }
};

const Inputs& inputs() {
  static const Inputs* in = new Inputs();
  return *in;
}

// The four model kinds of the CLI soak.
const char* const kKinds[] = {"gcn", "gat", "pool", "mhgat"};

// One run of each model kind over the same input features.
struct KindRuns {
  baselines::GcnRun gcn;
  baselines::GatRun gat;
  baselines::SagePoolRun pool;
  baselines::MultiHeadGatRun mh;

  explicit KindRuns(const models::Matrix* x) {
    const Inputs& in = inputs();
    gcn = {&in.gcn_cfg, &in.gcn_params, x};
    gat = {&in.gat_cfg, &in.gat_params, x};
    pool = {&in.pool_cfg, &in.pool_params, x};
    mh = {&in.mh_cfg, &in.mh_params, x};
  }
};

// A soak stream exercising every resilience path that must stay
// deterministic: each model kind under every survivable plan — no faults,
// a tuner-probe burst (degrades auto_tune), a LAS fault (falls back to
// natural order), a fusion fault (adapter off) and a two-shot launch fault
// (absorbed by two ladder rungs) — with clean jobs sharing the warm
// caches, all with a retry budget. Kinds
// cycle fastest; the dataset alternates job by job, shifted per plan, so
// every (kind, dataset) pair recurs.
std::vector<OptimizedEngine::BatchJob> make_stream(const KindRuns& collab,
                                                   const KindRuns& arxiv) {
  const Inputs& in = inputs();
  const char* plans[] = {"", "tuner_probe=3", "las_cluster", "fusion_pass", "sim_launch=2"};
  std::vector<OptimizedEngine::BatchJob> jobs(4 * std::size(plans));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    OptimizedEngine::BatchJob& job = jobs[i];
    const bool on_collab = (i + i / 4) % 2 == 0;
    const KindRuns& runs = on_collab ? collab : arxiv;
    job.data = on_collab ? &in.collab : &in.arxiv;
    switch (i % 4) {
      case 0: job.gcn = &runs.gcn; break;
      case 1: job.gat = &runs.gat; break;
      case 2: job.sage_pool = &runs.pool; break;
      case 3: job.multihead_gat = &runs.mh; break;
    }
    job.spec = sim::v100();
    job.max_attempts = 2;
    job.fault_plan = plans[i / 4];
  }
  return jobs;
}

// One full soak pass through a fresh engine: the metrics document with
// pinned meta, the event journal and what the batch printed to stderr.
struct SoakArtifacts {
  std::string metrics;
  std::string journal;
  std::string stderr_text;
};

SoakArtifacts run_soak_and_serialize() {
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

  const KindRuns collab(&in.x_collab);
  const KindRuns arxiv(&in.x_arxiv);
  const auto jobs = make_stream(collab, arxiv);
  obs::EventJournal journal;
  ::testing::internal::CaptureStderr();
  const std::vector<baselines::RunResult> results = eng.run_batch(jobs, &journal);
  const std::string stderr_text = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].status.ok())
        << "job " << i << ": " << results[i].status.to_string();
    sink.record({.label = "job" + std::to_string(i),
                 .model = kKinds[i % 4],
                 .backend = "ours",
                 .dataset = jobs[i].data->name,
                 .ms = results[i].ms,
                 .oom = results[i].oom,
                 .stats = results[i].stats,
                 .spec = sim::v100()});
  }
  const obs::TelemetryRegistry& reg = sink.telemetry();
  EXPECT_EQ(reg.counter_value("serve.jobs"), jobs.size());
  EXPECT_GE(reg.counter_value("serve.attempts"), jobs.size());
  EXPECT_EQ(reg.counter_value("serve.jobs_failed"), 0u);
  SoakArtifacts out{sink.to_json(), journal.to_jsonl(), stderr_text};
  EXPECT_GE(journal.size(), jobs.size());
  sink.clear();
  return out;
}

TEST_F(SoakDeterminism, FaultedSoakMetricsByteIdenticalAt1_2_3_4_8Threads) {
  par::set_max_threads(1);
  const SoakArtifacts serial = run_soak_and_serialize();
  ASSERT_FALSE(serial.metrics.empty());
  ASSERT_FALSE(serial.journal.empty());
  EXPECT_NE(serial.stderr_text.find("degrading:"), std::string::npos);
  for (int threads : {2, 3, 4, 8}) {
    par::set_max_threads(threads);
    const SoakArtifacts parallel = run_soak_and_serialize();
    EXPECT_EQ(parallel.metrics, serial.metrics) << "metrics at " << threads << " threads";
    EXPECT_EQ(parallel.journal, serial.journal) << "journal at " << threads << " threads";
    EXPECT_EQ(parallel.stderr_text, serial.stderr_text) << "stderr at " << threads << " threads";
  }
}

}  // namespace
}  // namespace gnnbridge
