// Overload-safe serving core (DESIGN.md §14): admission decisions as pure
// sim-time functions of the job stream — bounded queue, per-tenant token
// buckets, deadline/memory feasibility, priority-classed shedding behind
// the ladder, weighted-fair dispatch, cost-cache warming — plus the new
// kResourceExhausted/retry-after rejection contract, the journal event
// shapes ("shed" / "quota" / "admission_reject") and byte-identical
// exports at 1/2/3/4/8 host threads.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "graph/datasets.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"
#include "par/thread_pool.hpp"
#include "prof/metrics_json.hpp"
#include "rt/deadline.hpp"
#include "rt/retry.hpp"
#include "serve/admission.hpp"

namespace gnnbridge {
namespace {

using engine::OptimizedEngine;
using serve::AdmissionConfig;
using serve::AdmissionController;
using serve::BatchJob;
using serve::Decision;
using serve::Priority;
using serve::TenantQuota;

class AdmissionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prof::MetricsSink::instance().clear();
    obs::EventJournal::instance().clear();
    obs::EventJournal::instance().set_enabled(false);
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
  models::GatConfig gat_cfg;
  models::GcnParams gcn_params;
  models::GatParams gat_params;
  models::Matrix x;
  baselines::GcnRun gcn;
  baselines::GatRun gat;

  Inputs() {
    gcn_cfg.dims = {32, 16};
    gat_cfg.dims = {32, 16};
    gcn_params = models::init_gcn(gcn_cfg, 1);
    gat_params = models::init_gat(gat_cfg, 2);
    x = models::init_features(collab.csr.num_nodes, 32, 4);
    gcn = {&gcn_cfg, &gcn_params, &x};
    gat = {&gat_cfg, &gat_params, &x};
  }
};

const Inputs& inputs() {
  static const Inputs* in = new Inputs();
  return *in;
}

BatchJob make_job(const char* tenant, Priority prio, double arrival, bool gat = false) {
  const Inputs& in = inputs();
  BatchJob job;
  job.data = &in.collab;
  if (gat) {
    job.gat = &in.gat;
  } else {
    job.gcn = &in.gcn;
  }
  job.mode = kernels::ExecMode::kSimulateOnly;
  job.spec = sim::v100();
  job.tenant = tenant;
  job.priority = static_cast<int>(prio);
  job.arrival_cycles = arrival;
  return job;
}

/// A config whose thresholds/budgets are far out of reach, so individual
/// tests can lower exactly the limit under test.
AdmissionConfig permissive_config() {
  AdmissionConfig cfg;
  cfg.max_queue_depth = 1000;
  cfg.service_rate = 1.0;
  cfg.memory_budget_bytes = 1e18;
  cfg.degrade_backlog_cycles = 1e18;
  cfg.shed_low_backlog_cycles = 1e18;
  cfg.shed_normal_backlog_cycles = 1e18;
  cfg.default_quota = TenantQuota{.rate = 1e9, .burst_cycles = 1e18, .weight = 1.0};
  return cfg;
}

std::string fmt12g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

TEST_F(AdmissionTest, EstimatorsScaleWithModelAndAreDeterministic) {
  const BatchJob gcn = make_job("t", Priority::kNormal, 0.0);
  const BatchJob gat = make_job("t", Priority::kNormal, 0.0, /*gat=*/true);
  const double gcn_cost = serve::estimate_job_cost(gcn);
  const double gat_cost = serve::estimate_job_cost(gat);
  EXPECT_GT(gcn_cost, 0.0);
  EXPECT_GT(gat_cost, gcn_cost) << "attention must cost more than plain aggregation";
  EXPECT_DOUBLE_EQ(serve::estimate_job_cost(gcn), gcn_cost);
  EXPECT_GT(serve::estimate_job_bytes(gcn), 0.0);
  EXPECT_GT(serve::estimate_job_bytes(gat), serve::estimate_job_bytes(gcn))
      << "edge-heavy models hold an extra [E, F] message buffer";
  const BatchJob empty;
  EXPECT_EQ(serve::estimate_job_cost(empty), 0.0);
  EXPECT_EQ(serve::estimate_job_bytes(empty), 0.0);
  EXPECT_TRUE(serve::cost_key(empty).empty());
  EXPECT_EQ(serve::cost_key(gcn).rfind("gcn/", 0), 0u) << serve::cost_key(gcn);
}

TEST_F(AdmissionTest, ParseRetryAfterRoundTrips) {
  EXPECT_DOUBLE_EQ(serve::parse_retry_after("shed (retry_after_cycles=1536.5)"), 1536.5);
  EXPECT_DOUBLE_EQ(serve::parse_retry_after("x (retry_after_cycles=2.5e9)"), 2.5e9);
  EXPECT_LT(serve::parse_retry_after("no hint here"), 0.0);
  EXPECT_LT(serve::parse_retry_after("retry_after_cycles=junk"), 0.0);
}

TEST_F(AdmissionTest, AdmitsEverythingUnderCapacity) {
  OptimizedEngine eng;
  AdmissionController ctl(permissive_config());
  const double est = serve::estimate_job_cost(make_job("t", Priority::kNormal, 0.0));
  std::vector<BatchJob> jobs;
  for (int i = 0; i < 4; ++i) {
    // Spaced at twice the service time: the virtual queue drains between
    // arrivals, so nobody waits.
    jobs.push_back(make_job("t", Priority::kNormal, 2.0 * est * i));
  }
  const serve::ServeResult sr = ctl.serve(eng, jobs);
  ASSERT_EQ(sr.results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(sr.decisions[i].outcome, Decision::Outcome::kAdmitted) << "job " << i;
    EXPECT_TRUE(sr.results[i].status.ok()) << sr.results[i].status.to_string();
    EXPECT_DOUBLE_EQ(sr.decisions[i].queue_wait_cycles, 0.0) << "job " << i;
    EXPECT_EQ(sr.decisions[i].shed_level, 0);
  }
  EXPECT_EQ(sr.stats.submitted, 4u);
  EXPECT_EQ(sr.stats.admitted, 4u);
  EXPECT_EQ(sr.stats.overload_transitions, 0u);
  EXPECT_EQ(ctl.shed_level(), 0);
}

TEST_F(AdmissionTest, ShedsByPriorityClassUnderBacklog) {
  OptimizedEngine eng;
  const double est = serve::estimate_job_cost(make_job("t", Priority::kNormal, 0.0));
  AdmissionConfig cfg = permissive_config();
  cfg.degrade_backlog_cycles = 0.5 * est;
  cfg.shed_low_backlog_cycles = 0.9 * est;
  cfg.shed_normal_backlog_cycles = 100.0 * est;  // level 3 out of reach
  AdmissionController ctl(cfg);

  // All at arrival 0: job 0 builds one job of backlog, so jobs 1..3 see
  // level 2 — low is shed, normal and high still get through.
  std::vector<BatchJob> jobs = {
      make_job("t", Priority::kNormal, 0.0),
      make_job("t", Priority::kLow, 0.0),
      make_job("t", Priority::kNormal, 0.0),
      make_job("t", Priority::kHigh, 0.0),
  };
  const serve::ServeResult sr = ctl.serve(eng, jobs);
  EXPECT_EQ(sr.decisions[0].outcome, Decision::Outcome::kAdmitted);
  ASSERT_EQ(sr.decisions[1].outcome, Decision::Outcome::kShed);
  EXPECT_EQ(sr.decisions[2].outcome, Decision::Outcome::kAdmitted);
  EXPECT_EQ(sr.decisions[3].outcome, Decision::Outcome::kAdmitted);

  const rt::Status& s = sr.results[1].status;
  EXPECT_EQ(s.code(), rt::StatusCode::kResourceExhausted);
  EXPECT_EQ(sr.results[1].attempts, 0);
  EXPECT_GT(sr.decisions[1].retry_after_cycles, 0.0);
  EXPECT_DOUBLE_EQ(serve::parse_retry_after(s.message()), sr.decisions[1].retry_after_cycles)
      << s.message();
  EXPECT_EQ(sr.stats.shed_low, 1u);
  EXPECT_EQ(sr.stats.shed_normal, 0u);
  EXPECT_EQ(sr.stats.shed_high, 0u);
  EXPECT_GE(sr.stats.overload_transitions, 2u) << "0 -> 2 in one arrival";
  EXPECT_GE(ctl.shed_level(), 1);
  // Sustained overload tripped the degradation ladder before shedding
  // escalated: the pre-degrade events reached the metrics sink.
  const std::string doc = prof::MetricsSink::instance().to_json();
  EXPECT_NE(doc.find("admission_overload"), std::string::npos) << doc;
  EXPECT_NE(doc.find("overload_pre_degrade"), std::string::npos) << doc;
}

TEST_F(AdmissionTest, TokenBucketRejectsOverQuotaTenant) {
  OptimizedEngine eng;
  const double est = serve::estimate_job_cost(make_job("t", Priority::kNormal, 0.0));
  AdmissionConfig cfg = permissive_config();
  cfg.quotas["capped"] = TenantQuota{.rate = 1.0, .burst_cycles = 1.5 * est, .weight = 1.0};
  AdmissionController ctl(cfg);

  std::vector<BatchJob> jobs = {
      make_job("capped", Priority::kHigh, 0.0),
      make_job("capped", Priority::kHigh, 0.0),
      make_job("other", Priority::kHigh, 0.0),
  };
  const serve::ServeResult sr = ctl.serve(eng, jobs);
  EXPECT_EQ(sr.decisions[0].outcome, Decision::Outcome::kAdmitted);
  ASSERT_EQ(sr.decisions[1].outcome, Decision::Outcome::kRejectedQuota);
  EXPECT_EQ(sr.decisions[2].outcome, Decision::Outcome::kAdmitted)
      << "quotas are per tenant; 'other' is unaffected";
  // Bucket started at 1.5x est, the first job debited est: the second
  // needs 0.5x est more, at refill rate 1.0.
  EXPECT_DOUBLE_EQ(sr.decisions[1].retry_after_cycles, 0.5 * est);
  EXPECT_EQ(sr.results[1].status.code(), rt::StatusCode::kResourceExhausted);
  EXPECT_NE(sr.results[1].status.message().find("over quota"), std::string::npos);
  EXPECT_EQ(sr.stats.rejected_quota, 1u);

  // Tokens accrue with the arrival clock: after the hinted wait, the same
  // job is admitted.
  std::vector<BatchJob> retry = {
      make_job("capped", Priority::kHigh, sr.decisions[1].retry_after_cycles + 2.0 * est)};
  const serve::ServeResult sr2 = ctl.serve(eng, retry);
  EXPECT_EQ(sr2.decisions[0].outcome, Decision::Outcome::kAdmitted);
}

TEST_F(AdmissionTest, QuotaMaxWaitAdmitsWithAStallInsteadOfRejecting) {
  obs::EventJournal::instance().set_enabled(true);
  OptimizedEngine eng;
  const double est = serve::estimate_job_cost(make_job("t", Priority::kNormal, 0.0));
  AdmissionConfig cfg = permissive_config();
  // Bucket starts at 1.5x est; a refill wait up to 0.6x est is absorbed as
  // a recorded quota stall, anything longer still rejects.
  cfg.quotas["capped"] = TenantQuota{
      .rate = 1.0, .burst_cycles = 1.5 * est, .weight = 1.0, .max_wait_cycles = 0.6 * est};
  AdmissionController ctl(cfg);

  std::vector<BatchJob> jobs = {
      make_job("capped", Priority::kHigh, 0.0),
      make_job("capped", Priority::kHigh, 0.0),
      make_job("capped", Priority::kHigh, 0.0),
  };
  const serve::ServeResult sr = ctl.serve(eng, jobs);
  // Job 0 debits est, leaving 0.5x est. Job 1 needs 0.5x est more — a
  // 0.5x-est wait fits under max_wait_cycles, so it is admitted with the
  // stall priced into the decision and the bucket drained at admit.
  EXPECT_EQ(sr.decisions[0].outcome, Decision::Outcome::kAdmitted);
  EXPECT_DOUBLE_EQ(sr.decisions[0].quota_wait_cycles, 0.0);
  ASSERT_EQ(sr.decisions[1].outcome, Decision::Outcome::kAdmitted);
  EXPECT_DOUBLE_EQ(sr.decisions[1].quota_wait_cycles, 0.5 * est);
  EXPECT_TRUE(sr.results[1].status.ok()) << sr.results[1].status.to_string();
  // Job 2 arrives against an empty bucket that job 1's stall has already
  // committed until 0.5x est: its wait owes that committed remainder plus
  // a full est-cycle refill — 1.5x est, over max_wait_cycles, so the
  // original reject-with-hint semantics apply (and the hint prices the
  // commitment, not just this job's own refill).
  ASSERT_EQ(sr.decisions[2].outcome, Decision::Outcome::kRejectedQuota);
  EXPECT_NE(sr.results[2].status.message().find("over quota"), std::string::npos);
  EXPECT_DOUBLE_EQ(sr.decisions[2].retry_after_cycles, 1.5 * est);

  // The stall is journaled as a "quota_wait" event so the critical-path
  // analyzer can attribute it.
  const std::string jsonl = obs::EventJournal::instance().to_jsonl();
  EXPECT_NE(jsonl.find("\"type\":\"quota_wait\""), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"cycles\":" + fmt12g(0.5 * est)), std::string::npos) << jsonl;
}

TEST_F(AdmissionTest, OverlappingQuotaStallsQueueAfterEachOther) {
  OptimizedEngine eng;
  const double est = serve::estimate_job_cost(make_job("t", Priority::kNormal, 0.0));
  AdmissionConfig cfg = permissive_config();
  cfg.quotas["capped"] = TenantQuota{
      .rate = 1.0, .burst_cycles = 1.5 * est, .weight = 1.0, .max_wait_cycles = 3.0 * est};
  AdmissionController ctl(cfg);

  std::vector<BatchJob> jobs = {
      make_job("capped", Priority::kHigh, 0.0),
      make_job("capped", Priority::kHigh, 0.0),
      make_job("capped", Priority::kHigh, 0.0),
      make_job("capped", Priority::kHigh, 0.0),
  };
  const serve::ServeResult sr = ctl.serve(eng, jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_EQ(sr.decisions[i].outcome, Decision::Outcome::kAdmitted) << "job " << i;
  }
  // Job 0 debits est from the 1.5x-est bucket without stalling. Every
  // later job arrives (at cycle 0) against a bucket already committed
  // until the previous job's ready instant, so the stalls must queue
  // after each other — each exactly one full est-cycle refill longer than
  // the last. If the commitment were ignored, the refill between arrival
  // and the committed instant would be spent twice and jobs 2/3 would
  // understate their waits (1x/1x est instead of 1.5x/2.5x).
  EXPECT_DOUBLE_EQ(sr.decisions[0].quota_wait_cycles, 0.0);
  EXPECT_DOUBLE_EQ(sr.decisions[1].quota_wait_cycles, 0.5 * est);
  EXPECT_DOUBLE_EQ(sr.decisions[2].quota_wait_cycles, 1.5 * est);
  EXPECT_DOUBLE_EQ(sr.decisions[3].quota_wait_cycles, 2.5 * est);
}

TEST_F(AdmissionTest, BoundedQueueRejectsBeyondDepth) {
  OptimizedEngine eng;
  AdmissionConfig cfg = permissive_config();
  cfg.max_queue_depth = 1;
  AdmissionController ctl(cfg);
  std::vector<BatchJob> jobs = {
      make_job("t", Priority::kHigh, 0.0),
      make_job("t", Priority::kHigh, 0.0),
      make_job("t", Priority::kHigh, 0.0),
  };
  const serve::ServeResult sr = ctl.serve(eng, jobs);
  EXPECT_EQ(sr.decisions[0].outcome, Decision::Outcome::kAdmitted);
  EXPECT_EQ(sr.decisions[1].outcome, Decision::Outcome::kRejectedQueueFull);
  EXPECT_EQ(sr.decisions[2].outcome, Decision::Outcome::kRejectedQueueFull);
  EXPECT_GT(sr.decisions[1].retry_after_cycles, 0.0)
      << "hint: wait for the queue head to virtually complete";
  EXPECT_EQ(sr.stats.rejected_queue_full, 2u);
  EXPECT_EQ(sr.stats.peak_queue_depth, 1u);
}

TEST_F(AdmissionTest, InfeasibleDeadlineRejectedBeforeBurningEngineTime) {
  OptimizedEngine eng;
  AdmissionController ctl(permissive_config());
  BatchJob job = make_job("t", Priority::kHigh, 0.0);
  const double est = serve::estimate_job_cost(job);
  job.deadline = rt::Deadline::cycles(0.5 * est);
  const serve::ServeResult sr = ctl.serve(eng, {&job, 1});
  ASSERT_EQ(sr.decisions[0].outcome, Decision::Outcome::kRejectedDeadline);
  EXPECT_DOUBLE_EQ(sr.decisions[0].retry_after_cycles, 0.0)
      << "retrying an infeasible deadline cannot help";
  EXPECT_EQ(sr.results[0].attempts, 0);
  EXPECT_NE(sr.results[0].status.message().find("deadline infeasible"), std::string::npos);
}

TEST_F(AdmissionTest, MemoryBudgetBoundsTheQueuedFootprint) {
  OptimizedEngine eng;
  BatchJob probe = make_job("t", Priority::kHigh, 0.0);
  AdmissionConfig cfg = permissive_config();
  cfg.memory_budget_bytes = 1.5 * serve::estimate_job_bytes(probe);
  AdmissionController ctl(cfg);
  std::vector<BatchJob> jobs = {
      make_job("t", Priority::kHigh, 0.0),
      make_job("t", Priority::kHigh, 0.0),
  };
  const serve::ServeResult sr = ctl.serve(eng, jobs);
  EXPECT_EQ(sr.decisions[0].outcome, Decision::Outcome::kAdmitted);
  ASSERT_EQ(sr.decisions[1].outcome, Decision::Outcome::kRejectedMemory);
  EXPECT_EQ(sr.stats.rejected_memory, 1u);
  EXPECT_NE(sr.results[1].status.message().find("over budget"), std::string::npos);
}

TEST_F(AdmissionTest, CostCacheReplacesAnalyticEstimateWithMeasuredCycles) {
  OptimizedEngine eng;
  AdmissionController ctl(permissive_config());
  const BatchJob job = make_job("t", Priority::kNormal, 0.0);
  const double analytic = ctl.estimate_cost_cycles(job);
  EXPECT_DOUBLE_EQ(analytic, serve::estimate_job_cost(job));
  EXPECT_EQ(ctl.cost_cache_size(), 0u);
  const serve::ServeResult sr = ctl.serve(eng, {&job, 1});
  ASSERT_TRUE(sr.results[0].status.ok());
  EXPECT_EQ(ctl.cost_cache_size(), 1u);
  EXPECT_DOUBLE_EQ(ctl.estimate_cost_cycles(job), sr.results[0].stats.total_cycles)
      << "after one completed wave the fingerprint-keyed measured cost wins";
}

TEST_F(AdmissionTest, WeightedFairDispatchFavorsTheHeavierTenant) {
  obs::EventJournal::instance().set_enabled(true);
  OptimizedEngine eng;
  AdmissionConfig cfg = permissive_config();
  cfg.quotas["light"] = TenantQuota{.rate = 1e9, .burst_cycles = 1e18, .weight = 1.0};
  cfg.quotas["heavy"] = TenantQuota{.rate = 1e9, .burst_cycles = 1e18, .weight = 4.0};
  cfg.wave_size = 4;
  AdmissionController ctl(cfg);
  // Input order: light, light, heavy, heavy — all at arrival 0, equal
  // cost. heavy's virtual finish times are 4x smaller, so it dispatches
  // first despite arriving later in the input.
  std::vector<BatchJob> jobs = {
      make_job("light", Priority::kNormal, 0.0),
      make_job("light", Priority::kNormal, 0.0),
      make_job("heavy", Priority::kNormal, 0.0),
      make_job("heavy", Priority::kNormal, 0.0),
  };
  const serve::ServeResult sr = ctl.serve(eng, jobs);
  for (const auto& r : sr.results) ASSERT_TRUE(r.status.ok());
  std::vector<std::string> dispatch_order;
  for (const obs::JournalEvent& ev : obs::EventJournal::instance().snapshot()) {
    if (ev.type == "admission") dispatch_order.push_back(ev.request_id);
  }
  ASSERT_EQ(dispatch_order.size(), 4u);
  EXPECT_EQ(dispatch_order[0], "req-s0-2");
  EXPECT_EQ(dispatch_order[1], "req-s0-3");
  EXPECT_EQ(dispatch_order[2], "req-s0-0");
  EXPECT_EQ(dispatch_order[3], "req-s0-1");
}

TEST_F(AdmissionTest, RejectionJournalEventShapesAreGolden) {
  obs::EventJournal::instance().set_enabled(true);
  OptimizedEngine eng;
  const double est = serve::estimate_job_cost(make_job("t", Priority::kNormal, 0.0));
  AdmissionConfig cfg = permissive_config();
  cfg.degrade_backlog_cycles = 1.0;  // level 1 from the first queued job on
  cfg.shed_low_backlog_cycles = 0.5 * est;
  cfg.quotas["b"] = TenantQuota{.rate = 1.0, .burst_cycles = 0.25 * est, .weight = 1.0};
  AdmissionController ctl(cfg);
  std::vector<BatchJob> jobs = {
      make_job("a", Priority::kHigh, 0.0),   // admitted, builds backlog
      make_job("b", Priority::kLow, 0.0),    // shed at level 2
      make_job("b", Priority::kHigh, 0.0),   // survives the ladder, dies on quota
  };
  const serve::ServeResult sr = ctl.serve(eng, jobs);
  ASSERT_EQ(sr.decisions[1].outcome, Decision::Outcome::kShed);
  ASSERT_EQ(sr.decisions[2].outcome, Decision::Outcome::kRejectedQuota);

  // Rejections are journaled in arrival order BEFORE any engine wave, so
  // they own the first seq numbers; byte-exact golden lines, rebuilt from
  // the documented formats.
  const double shed_retry = est - cfg.degrade_backlog_cycles;
  const std::string golden_shed =
      "{\"seq\":0,\"req\":\"req-s0-1\",\"type\":\"shed\",\"key\":\"b\","
      "\"code\":\"RESOURCE_EXHAUSTED\",\"detail\":\"shed low-priority job at overload level 2 "
      "(retry_after_cycles=" + fmt12g(shed_retry) + ")\",\"attempt\":0,\"cycles\":" +
      fmt12g(shed_retry) + "}";
  const double quota_retry = est - 0.25 * est;
  const std::string golden_quota =
      "{\"seq\":1,\"req\":\"req-s0-2\",\"type\":\"quota\",\"key\":\"b\","
      "\"code\":\"RESOURCE_EXHAUSTED\",\"detail\":\"tenant 'b' over quota (needs " +
      fmt12g(est) + " cost-cycles, has " + fmt12g(0.25 * est) + ") (retry_after_cycles=" +
      fmt12g(quota_retry) + ")\",\"attempt\":0,\"cycles\":" + fmt12g(quota_retry) + "}";
  const std::string jsonl = obs::EventJournal::instance().to_jsonl();
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < jsonl.size();) {
    const std::size_t nl = jsonl.find('\n', pos);
    lines.push_back(jsonl.substr(pos, nl - pos));
    pos = nl + 1;
  }
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines[0], golden_shed);
  EXPECT_EQ(lines[1], golden_quota);
}

TEST_F(AdmissionTest, QueueFullEventUsesAdmissionRejectType) {
  obs::EventJournal::instance().set_enabled(true);
  OptimizedEngine eng;
  AdmissionConfig cfg = permissive_config();
  cfg.max_queue_depth = 1;
  AdmissionController ctl(cfg);
  std::vector<BatchJob> jobs = {
      make_job("t", Priority::kHigh, 0.0),
      make_job("t", Priority::kHigh, 0.0),
  };
  (void)ctl.serve(eng, jobs);
  const std::string jsonl = obs::EventJournal::instance().to_jsonl();
  EXPECT_NE(jsonl.find("\"type\":\"admission_reject\""), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("admission queue full"), std::string::npos) << jsonl;
}

TEST_F(AdmissionTest, SynthesizedAndDuplicateRequestIds) {
  OptimizedEngine eng;
  AdmissionController ctl(permissive_config());
  std::vector<BatchJob> jobs = {
      make_job("t", Priority::kNormal, 0.0),
      make_job("t", Priority::kNormal, 0.0),
      make_job("t", Priority::kNormal, 0.0),
  };
  jobs[1].request_id = "dup";
  jobs[2].request_id = "dup";
  const serve::ServeResult sr = ctl.serve(eng, jobs);
  EXPECT_EQ(sr.request_ids[0], "req-s0-0");
  EXPECT_EQ(sr.request_ids[1], "dup");
  EXPECT_EQ(sr.request_ids[2], "dup#2");
  // The next serve() call advances the synthesized-id namespace.
  std::vector<BatchJob> more = {make_job("t", Priority::kNormal, 100.0)};
  EXPECT_EQ(ctl.serve(eng, more).request_ids[0], "req-s1-0");
}

TEST_F(AdmissionTest, EmptyStreamAndMalformedJobsPassThrough) {
  OptimizedEngine eng;
  AdmissionController ctl(permissive_config());
  const serve::ServeResult empty = ctl.serve(eng, {});
  EXPECT_TRUE(empty.results.empty());
  EXPECT_EQ(empty.stats.submitted, 0u);

  // A job naming no model bypasses admission so run_batch can tell its
  // own kInvalidArgument story (and it counts as admitted, not shed).
  BatchJob bad;
  bad.tenant = "t";
  const serve::ServeResult sr = ctl.serve(eng, {&bad, 1});
  EXPECT_EQ(sr.decisions[0].outcome, Decision::Outcome::kAdmitted);
  EXPECT_FALSE(sr.results[0].status.ok());
  EXPECT_EQ(sr.results[0].status.code(), rt::StatusCode::kInvalidArgument);
}

TEST_F(AdmissionTest, ResourceExhaustedClassifiesAsRetryable) {
  EXPECT_EQ(rt::classify_for_retry(rt::StatusCode::kResourceExhausted),
            rt::RetryClass::kRetryable)
      << "clients back off for the hint and resubmit";
}

// The §14 determinism contract: one overloaded two-tenant stream, served
// on fresh engine+controller at 1, 2, 3, 4 and 8 host threads — decisions,
// metrics document (admission telemetry included) and journal must match
// byte for byte.
TEST_F(AdmissionTest, OverloadServeByteIdenticalAt1_2_3_4_8Threads) {
  struct Exports {
    std::string metrics;
    std::string journal;
    std::vector<Decision::Outcome> outcomes;
  };
  const auto run = [&]() {
    prof::MetricsSink& sink = prof::MetricsSink::instance();
    sink.clear();
    obs::EventJournal::instance().clear();
    obs::EventJournal::instance().set_enabled(true);
    sink.configure("admission_determinism", 0.02);
    sink.set_meta(prof::MetaInfo{.git_sha = "fixed",
                                 .timestamp = "2026-01-01T00:00:00Z",
                                 .hostname = "fixed",
                                 .scale_env = "",
                                 .threads = 0});
    OptimizedEngine eng;
    const double est = serve::estimate_job_cost(make_job("t", Priority::kNormal, 0.0));
    AdmissionConfig cfg = permissive_config();
    cfg.degrade_backlog_cycles = 1.0 * est;
    cfg.shed_low_backlog_cycles = 2.0 * est;
    cfg.shed_normal_backlog_cycles = 50.0 * est;
    cfg.wave_size = 3;
    AdmissionController ctl(cfg);
    std::vector<BatchJob> jobs;
    for (int i = 0; i < 12; ++i) {
      const bool burst = i % 3 != 0;
      jobs.push_back(make_job(burst ? "t-burst" : "t-steady",
                              burst ? Priority::kLow : Priority::kNormal,
                              0.25 * est * i, /*gat=*/i % 2 == 1));
    }
    const serve::ServeResult sr = ctl.serve(eng, jobs);
    Exports out;
    out.metrics = sink.to_json();
    out.journal = obs::EventJournal::instance().to_jsonl();
    for (const Decision& d : sr.decisions) out.outcomes.push_back(d.outcome);
    sink.clear();
    obs::EventJournal::instance().clear();
    return out;
  };
  par::set_max_threads(1);
  const Exports serial = run();
  EXPECT_NE(serial.metrics.find("{\"name\":\"serve.admission.submitted\",\"value\":12}"),
            std::string::npos)
      << serial.metrics;
  EXPECT_NE(serial.journal.find("\"type\":\"shed\""), std::string::npos)
      << "the stream must actually overload:\n" << serial.journal;
  for (int threads : {2, 3, 4, 8}) {
    par::set_max_threads(threads);
    const Exports parallel = run();
    EXPECT_EQ(parallel.metrics, serial.metrics) << "metrics at " << threads << " threads";
    EXPECT_EQ(parallel.journal, serial.journal) << "journal at " << threads << " threads";
    EXPECT_EQ(parallel.outcomes, serial.outcomes) << "decisions at " << threads << " threads";
  }
}

TEST_F(AdmissionTest, TelemetryCountersAndQueueWaitHistogram) {
  prof::MetricsSink::instance().clear();  // also clears the registry
  OptimizedEngine eng;
  const double est = serve::estimate_job_cost(make_job("t", Priority::kNormal, 0.0));
  AdmissionConfig cfg = permissive_config();
  cfg.shed_low_backlog_cycles = 0.5 * est;
  AdmissionController ctl(cfg);
  std::vector<BatchJob> jobs = {
      make_job("t", Priority::kNormal, 0.0),
      make_job("t", Priority::kNormal, 0.0),  // waits one service time
      make_job("t", Priority::kLow, 0.0),     // shed
  };
  (void)ctl.serve(eng, jobs);
  obs::TelemetryRegistry& reg = obs::TelemetryRegistry::instance();
  const obs::RegistrySnapshot snap = reg.snapshot();
  std::uint64_t submitted = 0, admitted = 0, shed = 0;
  double queue_peak = -1.0;
  for (const auto& [name, value] : snap.counters) {
    if (name == "serve.admission.submitted") submitted = value;
    if (name == "serve.admitted") admitted = value;
    if (name == "serve.shed_low") shed = value;
  }
  for (const auto& [name, value] : snap.gauges) {
    if (name == "serve.admission_queue_peak") queue_peak = value;
  }
  EXPECT_EQ(submitted, 3u);
  EXPECT_EQ(admitted, 2u);
  EXPECT_EQ(shed, 1u);
  EXPECT_GE(queue_peak, 1.0);
  const obs::HistogramSnapshot qw = reg.histogram_snapshot("serve.queue_wait_cycles");
  EXPECT_EQ(qw.count, 2u) << "one observation per admitted job";
  EXPECT_DOUBLE_EQ(qw.max, est / cfg.service_rate)
      << "the second job waits exactly one virtual service time";
}

// Two serve() calls on one controller: eight jobs at one instant, then
// one long after the virtual queue drained. The document's queue-peak
// gauge keeps the first call's peak of 8, not the last call's 1.
TEST_F(AdmissionTest, QueuePeakGaugeKeepsTheMaxAcrossServeCalls) {
  OptimizedEngine eng;
  AdmissionController ctl(permissive_config());
  const std::vector<BatchJob> burst(8, make_job("t", Priority::kNormal, 0.0));
  EXPECT_EQ(ctl.serve(eng, burst).stats.peak_queue_depth, 8u);
  const BatchJob late = make_job("t", Priority::kNormal, 1e15);
  EXPECT_EQ(ctl.serve(eng, {&late, 1}).stats.peak_queue_depth, 1u);
  const std::string doc = prof::MetricsSink::instance().to_json();
  EXPECT_NE(doc.find("{\"name\":\"serve.admission_queue_peak\",\"value\":8}"),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("{\"name\":\"serve.admission.submitted\",\"value\":9}"),
            std::string::npos)
      << doc;
}

}  // namespace
}  // namespace gnnbridge
