// Shard-level failure domains (DESIGN.md §17): a shard-scoped fault must
// be absorbed by re-executing only the failed shard (or redoing the
// exchange), the recovered output must be bit-identical to a fault-free
// run, persistent faults must walk the final ladder rung
// (sharded->unsharded) without the job ever failing, and none of it may
// count against the circuit breaker. The journal carries the recovery
// story (fault_injected / shard_retry / shard_fallback). The chaos sweep
// (engine/chaos.hpp) runs every seam's cells in process, byte-identical at
// any host thread count.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/chaos.hpp"
#include "engine/engine.hpp"
#include "graph/datasets.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"
#include "par/thread_pool.hpp"
#include "prof/metrics_json.hpp"
#include "rt/degrade.hpp"
#include "rt/fault.hpp"
#include "tests/testing/util.hpp"

namespace gnnbridge {
namespace {

using engine::EngineConfig;
using engine::OptimizedEngine;
using kernels::ExecMode;

class ShardRecovery : public ::testing::Test {
 protected:
  void SetUp() override {
    rt::FaultInjector::instance().clear();
    prof::MetricsSink::instance().clear();
    obs::EventJournal::instance().clear();
  }
  void TearDown() override {
    par::set_max_threads(0);
    rt::FaultInjector::instance().clear();
    obs::EventJournal::instance().set_enabled(false);
    obs::EventJournal::instance().clear();
    prof::MetricsSink::instance().clear();
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
    gcn_cfg.dims = {32, 16, 8};
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

const engine::GcnRun& gcn_run() {
  static const engine::GcnRun* run =
      new engine::GcnRun{&inputs().gcn_cfg, &inputs().gcn_params, &inputs().x};
  return *run;
}

EngineConfig sharded_cfg(int k) {
  EngineConfig cfg;
  cfg.shards = k;
  return cfg;
}

OptimizedEngine::BatchJob gcn_job(const Inputs& in, const engine::GcnRun& run,
                                  std::string plan, int max_attempts = 1) {
  OptimizedEngine::BatchJob job;
  job.data = &in.collab;
  job.gcn = &run;
  job.mode = ExecMode::kFull;
  job.spec = sim::v100();
  job.max_attempts = max_attempts;
  job.fault_plan = std::move(plan);
  job.request_id = "recov-0";
  return job;
}

// Fault-free unsharded references (the bit-identity oracle: sharded
// outputs equal unsharded outputs float for float, recovered or not).
const models::Matrix& gcn_reference() {
  static const models::Matrix* ref = [] {
    const Inputs& in = inputs();
    OptimizedEngine plain;
    auto r = plain.run_gcn(in.collab, {&in.gcn_cfg, &in.gcn_params, &in.x}, ExecMode::kFull,
                           sim::v100());
    EXPECT_TRUE(r.status.ok()) << r.status.to_string();
    return new models::Matrix(std::move(r.output));
  }();
  return *ref;
}

const models::Matrix& gat_reference() {
  static const models::Matrix* ref = [] {
    const Inputs& in = inputs();
    OptimizedEngine plain;
    auto r = plain.run_gat(in.collab, {&in.gat_cfg, &in.gat_params, &in.x}, ExecMode::kFull,
                           sim::v100());
    EXPECT_TRUE(r.status.ok()) << r.status.to_string();
    return new models::Matrix(std::move(r.output));
  }();
  return *ref;
}

// ---- In-place recovery: one shard fault, only that shard re-executes,
// the output is bit-identical, and the wasted work is priced.

TEST_F(ShardRecovery, GcnShardComputeRecoversBitIdentical) {
  const Inputs& in = inputs();
  OptimizedEngine e(sharded_cfg(4));
  const auto job = gcn_job(in, gcn_run(), "shard_compute=1");
  const auto results = e.run_batch({&job, 1});
  ASSERT_EQ(results.size(), 1u);
  const auto& r = results[0];
  ASSERT_TRUE(r.status.ok()) << r.status.to_string();
  EXPECT_EQ(r.attempts, 1) << "shard recovery must not consume a batch retry";
  EXPECT_TRUE(r.output == gcn_reference()) << "recovered output drifted from fault-free run";
  EXPECT_EQ(r.stats.shards, 4);
  EXPECT_GE(r.stats.shard_retries, 1u);
  EXPECT_GE(r.stats.shards_reexecuted, 1u);
  EXPECT_EQ(r.stats.fallback_unsharded, 0u);
  EXPECT_GT(r.stats.recovery_wasted_cycles, 0.0) << "failed attempt must be priced";
}

TEST_F(ShardRecovery, GatShardExchangeRecoversBitIdentical) {
  const Inputs& in = inputs();
  OptimizedEngine e(sharded_cfg(4));
  OptimizedEngine::BatchJob job;
  job.data = &in.collab;
  const engine::GatRun run{&in.gat_cfg, &in.gat_params, &in.x};
  job.gat = &run;
  job.mode = ExecMode::kFull;
  job.spec = sim::v100();
  job.fault_plan = "shard_exchange=1";
  const auto results = e.run_batch({&job, 1});
  ASSERT_EQ(results.size(), 1u);
  const auto& r = results[0];
  ASSERT_TRUE(r.status.ok()) << r.status.to_string();
  EXPECT_TRUE(r.output == gat_reference());
  EXPECT_EQ(r.stats.shards, 4);
  // An exchange redo is a retry decision but re-executes no shard body.
  EXPECT_GE(r.stats.shard_retries, 1u);
  EXPECT_EQ(r.stats.shards_reexecuted, 0u);
  EXPECT_GT(r.stats.recovery_wasted_cycles, 0.0);
}

// ---- Ladder exhaustion: a persistent shard fault spends the per-shard
// budget and falls back to the unsharded pipeline — the job still
// succeeds, bit-identical, and the recovery counters say why.

TEST_F(ShardRecovery, PersistentShardComputeFallsBackUnshardedBitIdentical) {
  const Inputs& in = inputs();
  auto& sink = prof::MetricsSink::instance();
  OptimizedEngine e(sharded_cfg(4));
  const auto job = gcn_job(in, gcn_run(), "shard_compute=*");
  const auto results = e.run_batch({&job, 1});
  ASSERT_EQ(results.size(), 1u);
  const auto& r = results[0];
  ASSERT_TRUE(r.status.ok()) << r.status.to_string();
  EXPECT_EQ(r.attempts, 1) << "fallback is a ladder rung, not a batch retry";
  EXPECT_TRUE(r.output == gcn_reference());
  // The successful attempt ran unsharded; its RunStats carry no shard
  // fields. The abandoned sharded attempt's recovery story lives in the
  // registry's recovery counters instead, flushed by the batch fold.
  EXPECT_EQ(r.stats.shards, 1);
  const obs::TelemetryRegistry& reg = obs::TelemetryRegistry::instance();
  EXPECT_GE(reg.counter_value("recovery.shard_retries"), 1u);
  EXPECT_EQ(reg.counter_value("recovery.shard_fallbacks"), 1u);
  EXPECT_GT(reg.histogram_snapshot("recovery.wasted_cycles").sum, 0.0);
  // The rung is a recorded degradation, flagged injected.
  bool found = false;
  for (const auto& ev : sink.degradations()) {
    if (ev.seam == rt::kSeamShardCompute && ev.knob == rt::kKnobSharding) {
      found = true;
      EXPECT_TRUE(ev.injected);
      EXPECT_EQ(ev.action, "sharded->unsharded");
    }
  }
  EXPECT_TRUE(found) << "no sharding degradation event recorded";
}

// ---- A direct run (no run_batch) flushes its recovery at the end of the
// run, into the same counters a batch job's fold uses.

TEST_F(ShardRecovery, DirectRunFlushesRetriesAndFallbackIntoRecoveryCounters) {
  const Inputs& in = inputs();
  const models::Matrix& reference = gcn_reference();  // computed before the plan is armed
  ASSERT_TRUE(rt::FaultInjector::instance().set_plan("shard_compute=*").ok());
  OptimizedEngine e(sharded_cfg(4));
  const auto r = e.run_gcn(in.collab, gcn_run(), ExecMode::kFull, sim::v100());
  rt::FaultInjector::instance().clear();
  ASSERT_TRUE(r.status.ok()) << r.status.to_string();
  EXPECT_TRUE(r.output == reference);
  EXPECT_EQ(r.stats.shards, 1) << "the run must finish on the unsharded rung";
  const obs::TelemetryRegistry& reg = obs::TelemetryRegistry::instance();
  EXPECT_GE(reg.counter_value("recovery.shard_retries"), 1u);
  EXPECT_EQ(reg.counter_value("recovery.shard_fallbacks"), 1u);
  EXPECT_GT(reg.histogram_snapshot("recovery.wasted_cycles").sum, 0.0);
  EXPECT_EQ(reg.counter_value("serve.jobs"), 0u) << "a direct run is not a serving job";
}

// ---- Breaker interplay: shard-level recovery is invisible to the
// circuit breaker. With failure_threshold=1 any recorded failure would
// trip it — so trips==0 proves recovery never counts as one.

TEST_F(ShardRecovery, RecoverySuccessDoesNotCountAsBreakerFailure) {
  const Inputs& in = inputs();
  EngineConfig cfg = sharded_cfg(4);
  cfg.breaker.failure_threshold = 1;
  OptimizedEngine e(cfg);
  const auto job = gcn_job(in, gcn_run(), "shard_compute=1");
  const auto results = e.run_batch({&job, 1});
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status.to_string();
  EXPECT_GE(results[0].stats.shard_retries, 1u);
  EXPECT_EQ(results[0].breaker_state, "closed");
  EXPECT_EQ(e.breaker().counters().trips, 0u);
}

TEST_F(ShardRecovery, FallbackUnshardedKeepsTheBreakerClosed) {
  const Inputs& in = inputs();
  EngineConfig cfg = sharded_cfg(4);
  cfg.breaker.failure_threshold = 1;
  OptimizedEngine e(cfg);
  const auto job = gcn_job(in, gcn_run(), "shard_compute=*");
  const auto results = e.run_batch({&job, 1});
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status.to_string();
  // The job succeeded on the fallback rung, so the breaker records a
  // success: closed state, zero trips, even at threshold 1.
  EXPECT_EQ(results[0].breaker_state, "closed");
  EXPECT_EQ(e.breaker().counters().trips, 0u);
}

// ---- Plan-cache hygiene: a partition computed under an armed
// shard_partition seam must never be memoized — the failed attempt
// leaves the cache empty, and the retry re-partitions cleanly.

TEST_F(ShardRecovery, FaultedPartitionIsNeverCached) {
  const Inputs& in = inputs();
  {
    OptimizedEngine e(sharded_cfg(4));
    const auto job = gcn_job(in, gcn_run(), "shard_partition=1", /*max_attempts=*/1);
    const auto results = e.run_batch({&job, 1});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].status.ok());
    EXPECT_EQ(results[0].status.code(), rt::StatusCode::kFaultInjected);
    EXPECT_EQ(e.shard_plan_cache_size(), 0u)
        << "a fault-injected partition must not be memoized";
  }
  {
    OptimizedEngine e(sharded_cfg(4));
    const auto job = gcn_job(in, gcn_run(), "shard_partition=1", /*max_attempts=*/2);
    const auto results = e.run_batch({&job, 1});
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].status.ok()) << results[0].status.to_string();
    EXPECT_EQ(results[0].attempts, 2);
    EXPECT_TRUE(results[0].output == gcn_reference());
    EXPECT_EQ(e.shard_plan_cache_size(), 1u) << "the clean retry must re-partition and cache";
  }
}

// ---- Journal: the recovery story is observable.

TEST_F(ShardRecovery, JournalCarriesFaultInjectedAndShardRetryEvents) {
  const Inputs& in = inputs();
  auto& journal = obs::EventJournal::instance();
  journal.set_enabled(true);
  OptimizedEngine e(sharded_cfg(4));
  const auto job = gcn_job(in, gcn_run(), "shard_compute=1");
  const auto results = e.run_batch({&job, 1});
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status.to_string();
  std::size_t injected = 0, retries = 0;
  for (const auto& ev : journal.snapshot()) {
    if (ev.type == "fault_injected") {
      ++injected;
      EXPECT_EQ(ev.key, rt::kSeamShardCompute);
      EXPECT_EQ(ev.request_id, "recov-0");
      EXPECT_EQ(ev.attempt, 1u) << "first (and only) armed shot";
    }
    if (ev.type == "shard_retry") {
      ++retries;
      EXPECT_EQ(ev.key, rt::kSeamShardCompute);
      EXPECT_GT(ev.cycles, 0.0) << "retry events carry the wasted cycles";
      EXPECT_NE(ev.detail.find("shard="), std::string::npos) << ev.detail;
    }
  }
  EXPECT_EQ(injected, 1u);
  EXPECT_EQ(retries, results[0].stats.shard_retries);
}

TEST_F(ShardRecovery, FallbackJournalsAShardFallbackEvent) {
  const Inputs& in = inputs();
  auto& journal = obs::EventJournal::instance();
  journal.set_enabled(true);
  OptimizedEngine e(sharded_cfg(4));
  const auto job = gcn_job(in, gcn_run(), "shard_exchange=*");
  const auto results = e.run_batch({&job, 1});
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status.to_string();
  bool fell_back = false;
  for (const auto& ev : journal.snapshot()) {
    if (ev.type == "shard_fallback") {
      fell_back = true;
      EXPECT_EQ(ev.key, rt::kSeamShardExchange);
      EXPECT_EQ(ev.code, rt::kKnobSharding);
      EXPECT_EQ(ev.detail, "sharded->unsharded");
    }
  }
  EXPECT_TRUE(fell_back) << "no shard_fallback journal event";
}

// ---- Thread-count determinism of a recovering batch: the recovery
// counters, degradations and journal fold in job order, so the whole
// metrics document is byte-identical at 1, 2, 3, 4 and 8 host threads.

std::string run_recovering_batch_and_serialize() {
  const Inputs& in = inputs();
  auto& sink = prof::MetricsSink::instance();
  sink.clear();
  sink.configure("shard-recovery", 0.02);
  sink.set_meta(prof::MetaInfo{.git_sha = "fixed",
                               .timestamp = "2026-01-01T00:00:00Z",
                               .hostname = "fixed",
                               .scale_env = "0.02",
                               .threads = 0});
  OptimizedEngine e(sharded_cfg(4));
  std::vector<OptimizedEngine::BatchJob> jobs;
  const engine::GcnRun gcn{&in.gcn_cfg, &in.gcn_params, &in.x};
  const engine::GatRun gat{&in.gat_cfg, &in.gat_params, &in.x};
  for (int j = 0; j < 2; ++j) {
    OptimizedEngine::BatchJob job;
    job.data = &in.collab;
    if (j == 0) {
      job.gcn = &gcn;
      job.fault_plan = "shard_compute=1";
    } else {
      job.gat = &gat;
      job.fault_plan = "shard_exchange=*";
    }
    job.mode = ExecMode::kFull;
    job.spec = sim::v100();
    job.request_id = "recov-batch-" + std::to_string(j);
    jobs.push_back(std::move(job));
  }
  const auto results = e.run_batch(jobs);
  EXPECT_EQ(results.size(), 2u);
  for (const auto& r : results) EXPECT_TRUE(r.status.ok()) << r.status.to_string();
  std::string doc = sink.to_json();
  sink.clear();
  return doc;
}

TEST_F(ShardRecovery, RecoveringBatchMetricsByteIdenticalAt1_2_3_4_8Threads) {
  par::set_max_threads(1);
  const std::string serial = run_recovering_batch_and_serialize();
  ASSERT_FALSE(serial.empty());
  EXPECT_NE(serial.find("\"recovery.shard_retries\""), std::string::npos);
  EXPECT_NE(serial.find("\"recovery.shard_fallbacks\""), std::string::npos);
  for (int threads : {2, 3, 4, 8}) {
    par::set_max_threads(threads);
    const std::string parallel = run_recovering_batch_and_serialize();
    EXPECT_EQ(parallel, serial) << "at " << threads << " threads";
  }
}

// ---- The chaos sweep in process: the graphs `soak --chaos` sweeps
// (collab and citation at scale 0.04) with 32-wide inputs. Every cell and
// both out-of-engine probes must hold the recovery contract, and the
// metrics document and the journal the sweep leaves must be byte-identical
// at 1, 2, 3, 4 and 8 host threads.

struct ChaosInputs {
  struct Set {
    graph::Dataset data;
    models::GcnParams gcn_params;
    models::GatParams gat_params;
    models::Matrix gcn_x;
    models::Matrix gat_x;
    engine::GcnRun gcn;
    engine::GatRun gat;
  };
  static constexpr double kScale = 0.04;
  models::GcnConfig gcn_cfg;
  models::GatConfig gat_cfg;
  Set sets[2];
  engine::ChaosJobSet job_sets[2];

  ChaosInputs() {
    gcn_cfg.dims = {32, 16, 8};
    gat_cfg.dims = {32, 16};
    const graph::DatasetId ids[] = {graph::DatasetId::kCollab, graph::DatasetId::kCitation};
    for (int d = 0; d < 2; ++d) {
      Set& s = sets[d];
      s.data = graph::make_dataset(ids[d], kScale);
      const int n = s.data.csr.num_nodes;
      s.gcn_params = models::init_gcn(gcn_cfg, 1);
      s.gcn_x = models::init_features(n, 32, 1);
      s.gat_params = models::init_gat(gat_cfg, 2);
      s.gat_x = models::init_features(n, 32, 2);
      s.gcn = {&gcn_cfg, &s.gcn_params, &s.gcn_x};
      s.gat = {&gat_cfg, &s.gat_params, &s.gat_x};
      job_sets[d] = {&s.data, &s.gcn, &s.gat};
    }
  }
};

struct ChaosArtifacts {
  std::string metrics;
  std::string journal;
};

ChaosArtifacts run_chaos_and_export() {
  static const ChaosInputs* in = new ChaosInputs();
  auto& sink = prof::MetricsSink::instance();
  auto& journal = obs::EventJournal::instance();
  sink.clear();
  journal.clear();
  sink.configure("chaos-sweep", ChaosInputs::kScale);
  sink.set_meta(prof::MetaInfo{.git_sha = "fixed",
                               .timestamp = "2026-01-01T00:00:00Z",
                               .hostname = "fixed",
                               .scale_env = "",
                               .threads = 0});
  const auto report = engine::run_chaos_sweep(in->job_sets, ChaosInputs::kScale,
                                              /*breaker_threshold=*/3, sim::v100());
  const int threads = par::max_threads();
  EXPECT_TRUE(report.ok()) << report.status().to_string();
  if (!report.ok()) return {};
  EXPECT_EQ(report->cells.size(), 16u);
  EXPECT_EQ(report->jobs_run, 16u * 4u);
  EXPECT_EQ(report->probes.size(), 2u) << "dataset_load and metrics_write probes";
  for (const std::string& v : report->violations) {
    ADD_FAILURE() << "chaos contract at " << threads << " threads: " << v;
  }
  ChaosArtifacts out{sink.to_json(), journal.to_jsonl()};
  sink.clear();
  journal.clear();
  return out;
}

TEST_F(ShardRecovery, ChaosSweepByteIdenticalAt1_2_3_4_8Threads) {
  par::set_max_threads(1);
  const ChaosArtifacts serial = run_chaos_and_export();
  ASSERT_FALSE(serial.metrics.empty());
  ASSERT_FALSE(serial.journal.empty());
  EXPECT_NE(serial.journal.find("\"type\":\"shard_fallback\""), std::string::npos);
  for (int threads : {2, 3, 4, 8}) {
    par::set_max_threads(threads);
    const ChaosArtifacts parallel = run_chaos_and_export();
    EXPECT_EQ(parallel.metrics, serial.metrics) << "metrics at " << threads << " threads";
    EXPECT_EQ(parallel.journal, serial.journal) << "journal at " << threads << " threads";
  }
}

}  // namespace
}  // namespace gnnbridge
