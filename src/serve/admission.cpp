#include "serve/admission.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "graph/fingerprint.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"
#include "obs/slo.hpp"
#include "prof/metrics_json.hpp"
#include "rt/degrade.hpp"

namespace gnnbridge::serve {

namespace {

const char* model_name(const BatchJob& job) {
  if (job.gcn) return "gcn";
  if (job.gat) return "gat";
  if (job.sage_lstm) return "sage_lstm";
  if (job.sage_pool) return "sage_pool";
  if (job.multihead_gat) return "multihead_gat";
  return nullptr;
}

/// Relative per-edge work by model kind (attention and sequence models do
/// more neural work per neighbor than plain aggregation).
double model_multiplier(const BatchJob& job) {
  if (job.gcn) return 1.0;
  if (job.gat) return 1.75;
  if (job.sage_pool) return 1.5;
  if (job.multihead_gat) return 2.5;
  if (job.sage_lstm) return 3.0;
  return 1.0;
}

const tensor::Matrix* job_features(const BatchJob& job) {
  if (job.gcn) return job.gcn->features;
  if (job.gat) return job.gat->features;
  if (job.sage_lstm) return job.sage_lstm->features;
  if (job.sage_pool) return job.sage_pool->features;
  if (job.multihead_gat) return job.multihead_gat->features;
  return nullptr;
}

/// Edge tensors materialized per edge-feature element (attention models
/// hold gathered + weighted messages live at once).
bool edge_heavy(const BatchJob& job) {
  return job.gat || job.multihead_gat || job.sage_lstm;
}

/// %.12g, the repo-wide deterministic double rendering (JsonWriter uses
/// the same format), so the retry-after hint embedded in Status messages
/// is byte-stable.
std::string format_cycles(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace

std::string_view priority_name(Priority p) {
  switch (p) {
    case Priority::kLow: return "low";
    case Priority::kNormal: return "normal";
    case Priority::kHigh: return "high";
  }
  return "normal";
}

Priority job_priority(const BatchJob& job) {
  if (job.priority <= 0) return Priority::kLow;
  if (job.priority >= 2) return Priority::kHigh;
  return Priority::kNormal;
}

double estimate_job_cost(const BatchJob& job) {
  if (!job.data || !model_name(job)) return 0.0;
  const double nodes = static_cast<double>(job.data->csr.num_nodes);
  const double edges = static_cast<double>(job.data->csr.num_edges());
  const tensor::Matrix* features = job_features(job);
  const double feat = features && features->cols() > 0
                          ? static_cast<double>(features->cols())
                          : 64.0;
  // Aggregation traffic scales with E*F, dense transforms with N*F; the
  // multiplier folds in per-model neural work. Divided by a nominal 16
  // flops/cycle so the unit is sim-cycles, the same clock deadlines use.
  return (2.0 * edges * feat + 8.0 * nodes * feat) * model_multiplier(job) / 16.0;
}

double estimate_job_bytes(const BatchJob& job) {
  if (!job.data || !model_name(job)) return 0.0;
  const double nodes = static_cast<double>(job.data->csr.num_nodes);
  const double edges = static_cast<double>(job.data->csr.num_edges());
  const tensor::Matrix* features = job_features(job);
  const double feat = features && features->cols() > 0
                          ? static_cast<double>(features->cols())
                          : 64.0;
  // Three live feature-sized activations, CSR index storage, and — for
  // edge-heavy models — one [E, F] message buffer.
  double bytes = 3.0 * nodes * feat * 4.0 + edges * 12.0;
  if (edge_heavy(job)) bytes += edges * feat * 4.0;
  return bytes;
}

std::string cost_key(const BatchJob& job) {
  const char* model = job.data ? model_name(job) : nullptr;
  if (!model) return {};
  const graph::GraphFingerprint fp = graph::fingerprint(job.data->csr);
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(fp.checksum));
  return std::string(model) + "/" + buf;
}

double parse_retry_after(std::string_view message) {
  constexpr std::string_view kTag = "retry_after_cycles=";
  const std::size_t pos = message.find(kTag);
  if (pos == std::string_view::npos) return -1.0;
  const std::string tail(message.substr(pos + kTag.size()));
  char* end = nullptr;
  const double v = std::strtod(tail.c_str(), &end);
  return end == tail.c_str() ? -1.0 : v;
}

AdmissionController::AdmissionController(AdmissionConfig cfg) : cfg_(std::move(cfg)) {}

const TenantQuota& AdmissionController::quota_for(const std::string& tenant) const {
  const auto it = cfg_.quotas.find(tenant);
  return it != cfg_.quotas.end() ? it->second : cfg_.default_quota;
}

double AdmissionController::estimate_cost_cycles(const BatchJob& job) const {
  const std::string key = cost_key(job);
  if (!key.empty()) {
    if (const auto it = cost_cache_.find(key); it != cost_cache_.end()) return it->second;
  }
  return estimate_job_cost(job);
}

ServeResult AdmissionController::serve(engine::OptimizedEngine& eng,
                                       std::span<const BatchJob> jobs) {
  ServeResult out;
  out.results.resize(jobs.size());
  out.decisions.resize(jobs.size());
  out.request_ids.resize(jobs.size());
  const std::uint64_t serve_seq = serve_seq_++;
  if (jobs.empty()) return out;

  // Request IDs first (synthesized "req-s<serve>-<i>" when the caller left
  // them empty, "#n"-suffixed on duplicates): every decision below — and
  // every journal event, rejected jobs included — carries a non-empty id.
  std::map<std::string, std::size_t> id_uses;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::string id = jobs[i].request_id.empty()
                         ? "req-s" + std::to_string(serve_seq) + "-" + std::to_string(i)
                         : jobs[i].request_id;
    const std::size_t uses = ++id_uses[id];
    if (uses > 1) id += "#" + std::to_string(uses);
    out.request_ids[i] = std::move(id);
  }

  // --- Phase A: admission in arrival (input) order against the virtual
  // single-server queue. Pure sim-time bookkeeping; nothing runs yet.
  OverloadStats& stats = out.stats;
  stats.submitted = jobs.size();
  std::vector<rt::DegradationEvent> overload_degradations;
  std::vector<std::size_t> admitted;  // input indices, arrival order
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const BatchJob& job = jobs[i];
    Decision& d = out.decisions[i];
    const double arrival = job.arrival_cycles;
    d.est_cost_cycles = estimate_cost_cycles(job);
    d.est_bytes = estimate_job_bytes(job);

    if (!job.data || !model_name(job)) {
      // Malformed jobs pass straight through; run_batch rejects them with
      // its own kInvalidArgument story.
      admitted.push_back(i);
      ++stats.admitted;
      continue;
    }

    // Age the virtual queue to this arrival: completed entries leave.
    while (!queue_.empty() && queue_.front().completion_cycles <= arrival) {
      queued_bytes_ -= queue_.front().bytes;
      queue_.pop_front();
    }
    if (queue_.empty()) queued_bytes_ = 0.0;  // absorb float drift at idle
    const double backlog_cycles =
        std::max(0.0, busy_until_cycles_ - arrival) * cfg_.service_rate;
    stats.peak_backlog_cycles = std::max(stats.peak_backlog_cycles, backlog_cycles);
    stats.peak_queue_depth =
        std::max(stats.peak_queue_depth, static_cast<std::uint64_t>(queue_.size()));

    // Shed-ladder level: a pure function of the backlog, recomputed per
    // arrival (no hysteresis — determinism beats smoothness here).
    int level = 0;
    if (backlog_cycles >= cfg_.degrade_backlog_cycles) level = 1;
    if (backlog_cycles >= cfg_.shed_low_backlog_cycles) level = 2;
    if (backlog_cycles >= cfg_.shed_normal_backlog_cycles) level = 3;
    if (level > shed_level_) {
      stats.overload_transitions += static_cast<std::uint64_t>(level - shed_level_);
      if (shed_level_ < 1 && level >= 1) {
        // Sustained overload trips the existing degradation ladder before
        // shedding escalates: admitted jobs run without the host-expensive
        // knobs until the backlog drains.
        const rt::Status cause(rt::StatusCode::kResourceExhausted,
                               "admission backlog " + format_cycles(backlog_cycles) +
                                   " cycles crossed the degrade threshold");
        overload_degradations.push_back(rt::make_degradation(
            "admission_overload", rt::kKnobAutoTune, "overload_pre_degrade", cause));
        overload_degradations.push_back(rt::make_degradation(
            "admission_overload", rt::kKnobLas, "overload_pre_degrade", cause));
      }
    }
    shed_level_ = level;
    d.shed_level = level;

    const Priority prio = job_priority(job);
    const auto reject = [&](Decision::Outcome outcome, const std::string& reason,
                            double retry_after) {
      d.outcome = outcome;
      d.retry_after_cycles = retry_after;
      d.status = rt::Status(rt::StatusCode::kResourceExhausted,
                            reason + " (retry_after_cycles=" + format_cycles(retry_after) +
                                ")")
                     .with_context("serve admission");
      out.results[i].status = d.status;
      out.results[i].attempts = 0;
    };

    // 1. Priority-classed shedding.
    const bool shed = (level >= 2 && prio == Priority::kLow) ||
                      (level >= 3 && prio != Priority::kHigh);
    if (shed) {
      const double drain = cfg_.service_rate > 0.0
                               ? std::max(0.0, backlog_cycles - cfg_.degrade_backlog_cycles) /
                                     cfg_.service_rate
                               : 0.0;
      reject(Decision::Outcome::kShed,
             "shed " + std::string(priority_name(prio)) + "-priority job at overload level " +
                 std::to_string(level),
             drain);
      if (prio == Priority::kLow) ++stats.shed_low;
      else if (prio == Priority::kNormal) ++stats.shed_normal;
      else ++stats.shed_high;
      continue;
    }

    // 2. Bounded queue.
    if (queue_.size() >= cfg_.max_queue_depth) {
      const double until_front =
          queue_.empty() ? 0.0 : std::max(0.0, queue_.front().completion_cycles - arrival);
      reject(Decision::Outcome::kRejectedQueueFull,
             "admission queue full (depth " + std::to_string(queue_.size()) + ")",
             until_front);
      ++stats.rejected_queue_full;
      continue;
    }

    // 3. Tenant token bucket.
    const TenantQuota& quota = quota_for(job.tenant);
    Bucket& bucket = buckets_[job.tenant];
    if (!bucket.initialized) {
      bucket.tokens = quota.burst_cycles;
      bucket.last_refill_cycles = arrival;
      bucket.initialized = true;
    }
    if (arrival > bucket.last_refill_cycles) {
      bucket.tokens = std::min(
          quota.burst_cycles,
          bucket.tokens + (arrival - bucket.last_refill_cycles) * quota.rate);
      bucket.last_refill_cycles = arrival;
    }
    if (bucket.tokens < d.est_cost_cycles) {
      // A prior quota stall commits the bucket until `last_refill_cycles`
      // — possibly a *future* instant (the earlier job's ready time).
      // Refill for this job only starts there, so its wait owes the
      // committed remainder on top of its own refill time; ignoring it
      // would spend the refill cycles between arrival and the committed
      // instant twice and over-admit the tenant under overlapping stalls.
      const double committed = std::max(0.0, bucket.last_refill_cycles - arrival);
      const double wait =
          quota.rate > 0.0
              ? committed + (d.est_cost_cycles - bucket.tokens) / quota.rate
              : 0.0;
      if (quota.rate > 0.0 && quota.max_wait_cycles > 0.0 && wait <= quota.max_wait_cycles) {
        // Opt-in quota stall (TenantQuota::max_wait_cycles): hold the job
        // until the bucket refills instead of bouncing it. The stall is
        // recorded — not just absorbed — so the critical-path analyzer can
        // price it as quota-wait time. Bucket state is applied at admit,
        // after the remaining checks, so a later rejection mutates nothing.
        d.quota_wait_cycles = wait;
      } else {
        reject(Decision::Outcome::kRejectedQuota,
               "tenant '" + job.tenant + "' over quota (needs " +
                   format_cycles(d.est_cost_cycles) + " cost-cycles, has " +
                   format_cycles(bucket.tokens) + ")",
               wait);
        ++stats.rejected_quota;
        continue;
      }
    }

    // 4. Deadline feasibility: the estimate alone busts the budget — the
    // job would burn engine time only to expire. Queue wait is not charged
    // against the deadline (it is virtual), so the check is cost vs budget.
    if (job.deadline.bounded() && d.est_cost_cycles > job.deadline.budget_cycles) {
      reject(Decision::Outcome::kRejectedDeadline,
             "deadline infeasible (estimated " + format_cycles(d.est_cost_cycles) +
                 " cycles > budget " + format_cycles(job.deadline.budget_cycles) + ")",
             0.0);
      ++stats.rejected_deadline;
      continue;
    }

    // 5. Memory budget over the virtually queued set.
    if (queued_bytes_ + d.est_bytes > cfg_.memory_budget_bytes) {
      const double until_front =
          queue_.empty() ? 0.0 : std::max(0.0, queue_.front().completion_cycles - arrival);
      reject(Decision::Outcome::kRejectedMemory,
             "estimated footprint " + format_cycles(d.est_bytes) +
                 " bytes over budget (queued " + format_cycles(queued_bytes_) + ")",
             until_front);
      ++stats.rejected_memory;
      continue;
    }

    // Admit: debit the bucket, advance the virtual server. A quota stall
    // means the job only becomes ready once the bucket has refilled to
    // exactly its cost — the debit then empties the bucket at that
    // instant. Because the stall already includes any committed time,
    // `ready` never precedes the bucket's previous commitment, so
    // last_refill_cycles is monotone and refill is never double-spent.
    const double ready = arrival + d.quota_wait_cycles;
    if (d.quota_wait_cycles > 0.0) {
      bucket.tokens = 0.0;
      bucket.last_refill_cycles = ready;
    } else {
      bucket.tokens -= d.est_cost_cycles;
    }
    const double start = std::max(busy_until_cycles_, ready);
    d.queue_wait_cycles = start - ready;
    stats.queue_wait_cycles += d.queue_wait_cycles;
    busy_until_cycles_ =
        start + (cfg_.service_rate > 0.0 ? d.est_cost_cycles / cfg_.service_rate
                                         : d.est_cost_cycles);
    queue_.push_back(QueuedJob{busy_until_cycles_, d.est_bytes});
    queued_bytes_ += d.est_bytes;
    stats.peak_queue_depth =
        std::max(stats.peak_queue_depth, static_cast<std::uint64_t>(queue_.size()));
    admitted.push_back(i);
    ++stats.admitted;
  }

  // --- Sequential journal/SLO fold, arrival order: wait events for
  // admitted jobs and one rejection event per non-admitted job, emitted
  // before any engine wave so the global seq order is (arrival-pass
  // events, then wave 0 events, wave 1 events, ...) — deterministic. A
  // rejected job's serving story ends here, so its SLO outcome (a failure
  // with zero end-to-end cycles) is recorded here too; admitted jobs are
  // scored once, by the engine fold, after their e2e cycles are known.
  obs::EventJournal& journal = obs::EventJournal::instance();
  const bool journal_on =
      journal.enabled() || obs::FlightRecorder::instance().armed();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Decision& d = out.decisions[i];
    if (d.outcome == Decision::Outcome::kAdmitted) {
      if (!journal_on) continue;
      // Chronological within the job: the quota stall happens at arrival,
      // the virtual-queue wait between readiness and dispatch. Zero waits
      // emit nothing, keeping pre-existing journal byte-goldens intact.
      if (d.quota_wait_cycles > 0.0) {
        obs::JournalEvent ev;
        ev.request_id = out.request_ids[i];
        ev.type = "quota_wait";
        ev.key = jobs[i].tenant;
        ev.detail = "token-bucket refill stall";
        ev.cycles = d.quota_wait_cycles;
        journal.append(std::move(ev));
      }
      if (d.queue_wait_cycles > 0.0) {
        obs::JournalEvent ev;
        ev.request_id = out.request_ids[i];
        ev.type = "queue_wait";
        ev.key = jobs[i].tenant;
        ev.detail = "admission virtual-queue wait";
        ev.cycles = d.queue_wait_cycles;
        journal.append(std::move(ev));
      }
      continue;
    }
    if (journal_on) {
      obs::JournalEvent ev;
      ev.request_id = out.request_ids[i];
      ev.type = d.outcome == Decision::Outcome::kShed ? "shed"
                : d.outcome == Decision::Outcome::kRejectedQuota ? "quota"
                                                                 : "admission_reject";
      ev.key = jobs[i].tenant;
      ev.code = "RESOURCE_EXHAUSTED";
      ev.detail = d.status.message();
      ev.cycles = d.retry_after_cycles;
      journal.append(std::move(ev));
    }
    obs::score_slo(out.request_ids[i], jobs[i].tenant, jobs[i].arrival_cycles, 0.0, false,
                   "rejected at admission", 0, journal_on);
  }

  // Overload pre-degradations flush once, after the arrival pass.
  prof::MetricsSink& sink = prof::MetricsSink::instance();
  for (auto& ev : overload_degradations) sink.record_degradation(std::move(ev));

  // --- Phase B: weighted-fair dispatch. Virtual finish times accumulate
  // per tenant (floored at the arrival stamp, so idle tenants cannot hoard
  // credit); dispatch ascends (vft, arrival index) in waves.
  struct DispatchEntry {
    double vft = 0.0;
    std::size_t index = 0;
  };
  std::vector<DispatchEntry> order;
  order.reserve(admitted.size());
  for (const std::size_t i : admitted) {
    const BatchJob& job = jobs[i];
    const TenantQuota& quota = quota_for(job.tenant);
    double& vft = tenant_vft_[job.tenant];
    vft = std::max(vft, job.arrival_cycles) +
          out.decisions[i].est_cost_cycles / std::max(quota.weight, 1e-9);
    order.push_back(DispatchEntry{vft, i});
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const DispatchEntry& a, const DispatchEntry& b) {
                     return a.vft != b.vft ? a.vft < b.vft : a.index < b.index;
                   });

  const std::size_t wave_size = std::max<std::size_t>(1, cfg_.wave_size);
  for (std::size_t start = 0; start < order.size(); start += wave_size) {
    const std::size_t n = std::min(wave_size, order.size() - start);
    std::vector<BatchJob> wave(n);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t i = order[start + j].index;
      wave[j] = jobs[i];
      wave[j].request_id = out.request_ids[i];
      // Stamp the admission-side waits so the engine folds them into the
      // job's end-to-end critical path (journal "e2e", SLO latency).
      wave[j].admission_wait_cycles = out.decisions[i].queue_wait_cycles;
      wave[j].quota_wait_cycles = out.decisions[i].quota_wait_cycles;
      if (out.decisions[i].shed_level >= 1) {
        // Level-1 pre-degradation: run without the host-expensive knobs.
        wave[j].disable_knobs.emplace_back(rt::kKnobAutoTune);
        wave[j].disable_knobs.emplace_back(rt::kKnobLas);
      }
    }
    std::vector<baselines::RunResult> wave_results = eng.run_batch(wave);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t i = order[start + j].index;
      // Warm the cost cache from measured cycles so later admissions use
      // real numbers instead of the analytic estimate. Cycles spent on
      // failed shard attempts (DESIGN.md §17) are excluded: they are
      // priced into this run's clock, but a future fault-free run of the
      // same job costs only the clean work — counting the waste would
      // double-charge every later admission for one unlucky run.
      if (wave_results[j].status.ok()) {
        const std::string key = cost_key(jobs[i]);
        if (!key.empty()) {
          cost_cache_[key] = wave_results[j].stats.total_cycles -
                             wave_results[j].stats.recovery_wasted_cycles;
        }
      }
      out.results[i] = std::move(wave_results[j]);
    }
  }

  // --- Phase C: telemetry in one sequential pass (registry maps are
  // ordered, but emission order still matters for histogram merge order).
  obs::TelemetryRegistry& reg = obs::TelemetryRegistry::instance();
  reg.counter_add("serve.admission.submitted", stats.submitted);
  reg.counter_add("serve.admitted", stats.admitted);
  reg.counter_add("serve.rejected_queue_full", stats.rejected_queue_full);
  reg.counter_add("serve.rejected_quota", stats.rejected_quota);
  reg.counter_add("serve.rejected_deadline", stats.rejected_deadline);
  reg.counter_add("serve.rejected_memory", stats.rejected_memory);
  reg.counter_add("serve.shed_low", stats.shed_low);
  reg.counter_add("serve.shed_normal", stats.shed_normal);
  reg.counter_add("serve.shed_high", stats.shed_high);
  reg.counter_add("serve.overload_transitions", stats.overload_transitions);
  reg.gauge_max("serve.admission_queue_peak", static_cast<double>(stats.peak_queue_depth));
  reg.gauge_max("serve.admission_backlog_peak", stats.peak_backlog_cycles);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (out.decisions[i].outcome == Decision::Outcome::kAdmitted) {
      reg.observe("serve.queue_wait_cycles", out.decisions[i].queue_wait_cycles);
      if (out.decisions[i].quota_wait_cycles > 0.0) {
        reg.observe("serve.quota_wait_cycles", out.decisions[i].quota_wait_cycles);
      }
    }
  }
  return out;
}

}  // namespace gnnbridge::serve
