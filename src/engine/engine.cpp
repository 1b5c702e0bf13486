#include "engine/engine.hpp"

#include <bit>
#include <cstdio>
#include <map>
#include <type_traits>

#include "core/spfetch/step_index.hpp"
#include "engine/engine_internal.hpp"
#include "engine/tune_helper.hpp"
#include "par/thread_pool.hpp"
#include "models/gcn_grad.hpp"
#include "kernels/dense.hpp"
#include "kernels/expand.hpp"
#include "kernels/lstm.hpp"
#include "kernels/spmm.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"
#include "obs/request.hpp"
#include "prof/metrics_json.hpp"
#include "prof/span.hpp"
#include "rt/fault.hpp"
#include "rt/retry.hpp"
#include "rt/validate.hpp"

namespace gnnbridge::engine {

namespace k = gnnbridge::kernels;
namespace pipeline = baselines::pipeline;
using baselines::Matrix;

namespace {
using pipeline::Workspace;

/// The one knob table, in bit order: each detail::Knob bit, its
/// metric-schema name and the fallback the degradation ladder takes when it
/// turns the knob off.
struct KnobInfo {
  unsigned bit;
  std::string_view name;
  std::string_view action;
};
constexpr KnobInfo kKnobTable[] = {
    {detail::kLas, rt::kKnobLas, "las->natural_order"},
    {detail::kAutoTune, rt::kKnobAutoTune, "tuned_bound->heuristic_bound"},
    {detail::kAdapter, rt::kKnobAdapter, "fused->unfused_pipeline"},
    {detail::kNeighborGrouping, rt::kKnobNeighborGrouping, "grouped->one_task_per_node"},
    {detail::kSharding, rt::kKnobSharding, "sharded->unsharded"},
};

const KnobInfo& knob_info(unsigned bit) { return kKnobTable[std::countr_zero(bit)]; }

/// Knob bits for metric-schema names; unknown names are ignored.
unsigned knob_mask(const std::vector<std::string>& names) {
  unsigned mask = 0;
  for (const std::string& name : names) {
    for (const KnobInfo& k : kKnobTable) {
      if (name == k.name) mask |= k.bit;
    }
  }
  return mask;
}

/// Metric-schema names of the knobs in `mask`, in table order.
std::vector<std::string> knob_names(unsigned mask) {
  std::vector<std::string> names;
  for (const KnobInfo& k : kKnobTable) {
    if ((mask & k.bit) != 0) names.emplace_back(k.name);
  }
  return names;
}

/// The knobs the configuration turns on.
unsigned configured_knobs(const EngineConfig& cfg) {
  return (cfg.use_las ? detail::kLas : 0u) | (cfg.auto_tune ? detail::kAutoTune : 0u) |
         (cfg.use_adapter ? detail::kAdapter : 0u) |
         (cfg.use_neighbor_grouping ? detail::kNeighborGrouping : 0u) |
         (cfg.shards > 1 ? detail::kSharding : 0u);
}

/// The untuned grouping bound: the configured one, else the average degree
/// rounded up to a multiple of 16.
EdgeId static_bound(const EngineConfig& cfg, const graph::Csr& csr) {
  if (!cfg.use_neighbor_grouping) return 0;
  if (cfg.group_bound > 0) return cfg.group_bound;
  const double avg = csr.num_nodes > 0
                         ? static_cast<double>(csr.num_edges()) / static_cast<double>(csr.num_nodes)
                         : 0.0;
  return std::max<EdgeId>(16, (static_cast<EdgeId>(avg) + 15) / 16 * 16);
}

/// The width a GCN/GAT forward's first layer aggregates at — the width the
/// tuner probes; -1 for a model without layers.
tensor::Index first_layer_width(const std::vector<models::Index>& dims) {
  return dims.size() > 1 ? dims[1] : -1;
}

/// Records one run's shard recovery (DESIGN.md §17) in the telemetry
/// registry. A run that did not recover records nothing, so fault-free
/// telemetry carries no recovery instruments.
void flush_recovery(const detail::RecoveryTally& r) {
  if (!r.any()) return;
  obs::TelemetryRegistry& reg = obs::TelemetryRegistry::instance();
  reg.counter_add("recovery.shard_retries", r.shard_retries);
  reg.counter_add("recovery.shards_reexecuted", r.shards_reexecuted);
  reg.counter_add("recovery.shard_fallbacks", r.fallback_unsharded);
  if (r.wasted_cycles > 0.0) reg.observe("recovery.wasted_cycles", r.wasted_cycles);
}

/// Runs `body(rc)` as a direct (non-batch) run: the graph is hashed once,
/// and the run's shard recovery flushes when it ends (batch jobs flush
/// theirs in run_batch's job-order fold instead).
template <typename Fn>
auto run_direct(const graph::Csr& csr, Fn&& body) {
  detail::RunContext rc;
  rc.fp = graph::fingerprint(csr);
  auto result = body(rc);
  flush_recovery(rc.recovery);
  return result;
}

/// One unsharded GCN layer over `in`: buffers, transform, aggregation.
pipeline::GcnLayer gcn_layer(sim::SimContext& ctx, Workspace& ws, const k::GraphOnDevice& gdev,
                             const k::FeatureMat& norm, const detail::AttemptPlan& plan,
                             const k::FeatureMat& in, const Matrix& w, const Matrix& b,
                             bool fused, bool relu, ExecMode mode) {
  pipeline::GcnLayer layer = pipeline::gcn_layer_buffers(ctx, ws, in.rows, w, b);
  k::dense_gemm(ctx, {.a = &in, .b = &layer.w, .c = &layer.t, .mode = mode});
  pipeline::gcn_aggregate(ctx, {.graph = &gdev,
                                .tasks = plan.grouped.tasks,
                                .any_split = plan.grouped.any_split,
                                .norm = &norm,
                                .layer = &layer,
                                .fused = fused,
                                .relu = relu,
                                .lanes = plan.lanes,
                                .mode = mode});
  return layer;
}

/// One unsharded GAT layer (or head) over `in` in the plan's variant:
/// buffers, transform, graph ops. Returns the layer output.
k::FeatureMat gat_layer(sim::SimContext& ctx, Workspace& ws, const k::GraphOnDevice& gdev,
                        const detail::AttemptPlan& plan, const k::FeatureMat& in,
                        const Matrix& w, const Matrix& att_l, const Matrix& att_r,
                        float leaky_alpha, bool relu, ExecMode mode) {
  const pipeline::GatGraphOps ops = detail::gat_graph_ops_for(plan);
  pipeline::GatLayer layer = pipeline::gat_layer_buffers(
      ctx, ws, in.rows, static_cast<models::Index>(gdev.csr->num_edges()), w, att_l, att_r, ops);
  k::dense_gemm(ctx, {.a = &in, .b = &layer.w, .c = &layer.t, .mode = mode});
  pipeline::gat_graph_ops(ctx, ops,
                          {.graph = &gdev,
                           .tasks = plan.grouped.tasks,
                           .any_split = plan.grouped.any_split,
                           .layer = &layer,
                           .leaky_alpha = leaky_alpha,
                           .relu = relu,
                           .lanes = plan.lanes,
                           .mode = mode});
  return layer.out;
}
}  // namespace

// ---- Graceful degradation (DESIGN.md §10) -----------------------------

rt::Status OptimizedEngine::preflight(const Dataset& data, const models::Matrix* features,
                                      const graph::GraphFingerprint& fp) const {
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = preflight_cache_.find(fp);
    if (it != preflight_cache_.end() && it->second == features) return rt::OkStatus();
  }
  if (rt::Status s = rt::validate_csr(data.csr); !s.ok()) {
    return std::move(s).with_context("engine preflight");
  }
  if (features) {
    if (rt::Status s = rt::validate_matrix(*features, "features"); !s.ok()) {
      return std::move(s).with_context("engine preflight");
    }
  }
  std::lock_guard<std::mutex> lock(cache_mu_);
  preflight_cache_[fp] = features;
  return rt::OkStatus();
}

bool OptimizedEngine::disable_knob(unsigned knob, std::string_view seam, const rt::Status& cause,
                                   detail::RunContext& rc) const {
  if ((configured_knobs(cfg_) & knob) == 0) return false;
  const KnobInfo& info = knob_info(knob);
  rt::DegradationEvent event = rt::make_degradation(seam, info.name, info.action, cause);
  if (rc.job) {
    // A knob the engine has already degraded globally counts as
    // unavailable here too.
    if (((rc.disabled | degraded_.load(std::memory_order_relaxed)) & knob) != 0) return false;
    rc.disabled |= knob;
    rc.events.push_back(std::move(event));
  } else if ((degraded_.fetch_or(knob) & knob) != 0) {
    return false;
  } else {
    prof::MetricsSink::instance().record_degradation(std::move(event));
  }
  std::fprintf(stderr, "gnnbridge: stage '%s' failed (%s); degrading: %s\n",
               std::string(seam).c_str(), cause.to_string().c_str(),
               std::string(info.action).c_str());
  return true;
}

bool OptimizedEngine::degrade_for(const rt::StageFailure& failure, detail::RunContext& rc) const {
  const std::string& seam = failure.seam();
  const auto disable = [&](unsigned knob) {
    return disable_knob(knob, seam, failure.status(), rc);
  };
  if (seam == rt::kSeamLasCluster) return disable(detail::kLas);
  if (seam == rt::kSeamTunerProbe) return disable(detail::kAutoTune);
  if (seam == rt::kSeamFusionPass) return disable(detail::kAdapter);
  if (seam == rt::kSeamSimLaunch) {
    // A failing launch has no single culprit; walk toward the most
    // conservative configuration one knob at a time.
    return disable(detail::kNeighborGrouping) || disable(detail::kAdapter) ||
           disable(detail::kLas);
  }
  if (seam == rt::kSeamShardCompute || seam == rt::kSeamShardExchange) {
    // The final rung of shard recovery (DESIGN.md §17): the per-shard
    // attempt budget is spent, so the whole run falls back to the
    // unsharded single-device pipeline. The run still succeeds — outputs
    // are bit-identical either way — so the breaker never sees a failure.
    if (!disable(detail::kSharding)) return false;
    ++rc.recovery.fallback_unsharded;
    if (rc.recovery.journal) {
      obs::JournalEvent ev;
      ev.type = "shard_fallback";
      ev.key = seam;
      ev.code = std::string(rt::kKnobSharding);
      ev.detail = std::string(knob_info(detail::kSharding).action);
      rc.recovery.journal->push_back(std::move(ev));
    }
    return true;
  }
  return false;
}

template <typename Fn>
auto OptimizedEngine::run_guarded(const Dataset& data, const models::Matrix* features,
                                  std::string_view what, detail::RunContext& rc, Fn&& attempt)
    -> decltype(attempt()) {
  using R = decltype(attempt());
  const auto fail = [&](rt::Status s) {
    R r{};
    s.with_context("OptimizedEngine::" + std::string(what) + "('" + data.name + "')");
    if constexpr (std::is_same_v<R, RunResult>) {
      r.status = std::move(s);
    } else {
      r.run.status = std::move(s);
    }
    return r;
  };
  if (rt::Status s = preflight(data, features, rc.fp); !s.ok()) return fail(std::move(s));
  // The ladder holds at most five knobs; a few spare rounds absorb fault
  // plans that keep firing while we degrade.
  constexpr int kMaxRounds = 8;
  for (int round = 0; round < kMaxRounds; ++round) {
    // Deadline/cancel checkpoint between ladder rounds: an expired budget
    // ends the job here instead of starting another degraded attempt.
    if (rt::Status s = rt::cancel_checkpoint(); !s.ok()) return fail(std::move(s));
    try {
      return attempt();
    } catch (const rt::StageFailure& failure) {
      const rt::StatusCode code = failure.status().code();
      if (code == rt::StatusCode::kDeadlineExceeded || code == rt::StatusCode::kCancelled) {
        // Terminal: the ladder has no answer to a spent budget.
        return fail(failure.status());
      }
      if (!degrade_for(failure, rc)) return fail(failure.status());
    }
  }
  return fail(rt::Status(rt::StatusCode::kInternal, "degradation retries exhausted"));
}

std::vector<std::string> OptimizedEngine::degraded_knobs() const {
  return knob_names(degraded_.load());
}

// ---- Attempt plans ------------------------------------------------------

detail::AttemptPlan OptimizedEngine::resolve_plan(const graph::Csr& csr, detail::RunContext& rc,
                                                  tensor::Index feat, const sim::DeviceSpec* spec,
                                                  const char* fusion_gate) const {
  detail::AttemptPlan plan;
  const unsigned off = degraded_.load(std::memory_order_relaxed) | rc.disabled;
  plan.knobs = configured_knobs(cfg_) & ~off;
  if (fusion_gate) {
    // Fusion gate: the fused pipeline is only taken when the fusion
    // machinery works; an injected fusion_pass fault degrades to unfused.
    if (plan.on(detail::kAdapter)) rt::raise_if_armed(rt::kSeamFusionPass, fusion_gate);
    if (plan.on(detail::kSharding)) plan.shards = cfg_.shards;
  }
  plan.linear = plan.on(detail::kAdapter) && cfg_.use_linear;

  // Tuned knobs are per (graph, feature width, LAS allowed); cache-isolated
  // jobs re-tune every attempt. The LAS order is resolved once, before the
  // tuner probes it, and only when something will read it.
  const bool tuning = plan.on(detail::kAutoTune) && feat >= 0;
  const TunedKey key{rc.fp, feat, plan.on(detail::kLas)};
  std::optional<core::TuneConfig> tuned;
  if (tuning && !rc.cache_isolated) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (auto it = tuned_cache_.find(key); it != tuned_cache_.end()) tuned = it->second;
  }
  const std::vector<NodeId>* las =
      plan.on(detail::kLas) && (!tuned || tuned->use_las) ? las_order(csr, rc) : nullptr;
  if (tuning && !tuned) {
    tuned = tune(csr, key, *spec, las, rc);
    if (!tuned) plan.knobs &= ~detail::kAutoTune;
  }
  plan.las = tuned && !tuned->use_las ? nullptr : las;
  plan.lanes = tuned ? tuned->lanes : cfg_.lanes;
  plan.bound = (off & detail::kNeighborGrouping) != 0 ? 0
               : tuned                                ? tuned->group_bound
                                                      : static_bound(cfg_, csr);
  if (plan.shards == 1) {
    prof::Span span("neighbor_grouping", "engine");
    plan.grouped = core::neighbor_group_tasks(
        csr, plan.bound,
        plan.las ? std::span<const NodeId>(*plan.las) : std::span<const NodeId>());
    span.arg("tasks", static_cast<double>(plan.grouped.tasks.size()));
  }
  return plan;
}

const std::vector<NodeId>* OptimizedEngine::las_order(const graph::Csr& csr,
                                                      const detail::RunContext& rc) const {
  if (cfg_.las_order) return cfg_.las_order;
  // Cache-isolated jobs skip the warm-hit shortcut (but still insert: the
  // computed order is a pure function of the graph, so the entry is
  // value-identical however it got there).
  if (!rc.cache_isolated) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = las_cache_.find(rc.fp);
    if (it != las_cache_.end()) return it->second.get();
  }
  // Compute outside the lock (clustering is the expensive part); two
  // concurrent jobs missing on the same graph compute identical orders and
  // the first insert wins. Entries are never erased, so the returned raw
  // pointer stays valid for the engine's lifetime.
  prof::Span span("las_schedule", "engine");
  auto order = std::make_shared<const std::vector<NodeId>>(core::locality_aware_schedule(csr).order);
  span.arg("nodes", static_cast<double>(csr.num_nodes));
  std::lock_guard<std::mutex> lock(cache_mu_);
  return las_cache_.try_emplace(rc.fp, std::move(order)).first->second.get();
}

std::optional<core::TuneConfig> OptimizedEngine::tune(
    const graph::Csr& csr, const TunedKey& key, const sim::DeviceSpec& spec,
    const std::vector<NodeId>* las, detail::RunContext& rc) const {
  prof::Span span("auto_tune", "engine");
  span.arg("feat_len", static_cast<double>(key.feat));
  // Probe launches run outside the job's cancel scope: tuning is engine-
  // internal cache-amortized work, and which job reaches the cold cache
  // first depends on thread timing — charging it to that job's deadline or
  // checkpoint count would break the §11 byte-identical-metrics contract.
  core::TuneResult tuned;
  {
    rt::AdoptScope neutral{rt::ScopeHandle{}};
    tuned = tune_for(csr, key.feat, spec, las);
  }
  if (!tuned.error.ok()) {
    // A poisoned probe measurement must not pick the configuration: fall
    // back to the heuristic knobs — job-locally inside a batch job (the
    // engine stays trusted for other jobs), for good otherwise.
    disable_knob(detail::kAutoTune, rt::kSeamTunerProbe, tuned.error, rc);
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(cache_mu_);
  return tuned_cache_.try_emplace(key, tuned.best).first->second;
}

core::GroupedTasks OptimizedEngine::build_tasks(const graph::Csr& csr) const {
  detail::RunContext rc;
  rc.fp = graph::fingerprint(csr);
  return resolve_plan(csr, rc).grouped;
}

std::size_t OptimizedEngine::las_cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return las_cache_.size();
}

std::size_t OptimizedEngine::tuned_cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return tuned_cache_.size();
}

namespace {
/// Model tag for the breaker key; nullptr when the job names no model.
const char* batch_model_name(const OptimizedEngine::BatchJob& job) {
  if (job.gcn) return "gcn";
  if (job.gat) return "gat";
  if (job.sage_lstm) return "sage_lstm";
  if (job.sage_pool) return "sage_pool";
  if (job.multihead_gat) return "multihead_gat";
  return nullptr;
}

/// Per-job resilience bookkeeping, filled inside the parallel wave and
/// folded sequentially in job order afterwards.
struct JobTally {
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;
  bool ran = false;        ///< the job was valid enough to attempt
  bool success = false;
  bool timed_out = false;
  bool cancelled = false;
  double backoff_cycles = 0.0;
  std::uint64_t cancel_points = 0;
  std::vector<obs::JournalEvent> journal;  ///< buffered attempt/backoff events
  /// The job's ladder, cache isolation, buffered degradations and
  /// shard-recovery counters (§17).
  detail::RunContext run;
};
}  // namespace

std::vector<RunResult> OptimizedEngine::run_batch(std::span<const BatchJob> jobs) {
  std::vector<RunResult> results(jobs.size());
  if (jobs.empty()) return results;

  // --- Sequential admission pre-pass: breaker decisions in job order, so
  // which job trips/probes/opens the breaker is independent of how the
  // wave below is scheduled across threads. Each job's graph is hashed
  // here, once; every attempt of the job reuses the fingerprint.
  std::vector<std::string> keys(jobs.size());
  std::vector<rt::BreakerDecision> admissions(jobs.size());
  std::vector<JobTally> tallies(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const char* model = jobs[i].data ? batch_model_name(jobs[i]) : nullptr;
    if (!model) continue;
    const graph::GraphFingerprint fp = graph::fingerprint(jobs[i].data->csr);
    tallies[i].run.fp = fp;
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(fp.checksum));
    keys[i] = std::string(model) + "/" + buf;
    admissions[i] = breaker_.admit(keys[i]);
  }

  // Request IDs (DESIGN.md §13): caller-supplied or synthesized from this
  // engine's batch counter — fixed before the wave so spans and journal
  // events carry the same ID at any thread count.
  const std::uint64_t batch_seq = batch_seq_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::string> req_ids(jobs.size());
  std::map<std::string, std::size_t> id_uses;  // duplicate caller IDs, in job order
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    req_ids[i] = jobs[i].request_id.empty()
                     ? "req-" + std::to_string(batch_seq) + "-" + std::to_string(i)
                     : jobs[i].request_id;
    // Duplicate caller-supplied IDs within the batch would merge unrelated
    // jobs' spans/journal events under one name; disambiguate occurrences
    // after the first with a "#<n>" suffix (the first keeps the bare ID).
    const std::size_t uses = ++id_uses[req_ids[i]];
    if (uses > 1) req_ids[i] += "#" + std::to_string(uses);
  }
  // Journal gating is sampled once per batch: events are buffered per job
  // in the wave and appended (seq assignment) in the sequential fold.
  const bool journal_on = obs::EventJournal::instance().enabled();

  // --- Parallel wave. Jobs are independent (model, dataset) configs; each
  // runs its whole pipeline inline on one pool worker (nested parallel
  // regions detect the worker and stay serial) under its own deadline
  // scope, fault plan, and job-local degradation ladder. Shared
  // memoization is fingerprint-keyed and mutex-guarded, so results land in
  // job order and match a sequential loop exactly; a failing, retrying, or
  // expiring job never blocks a healthy one.
  const auto run_job = [&](std::size_t i) {
    const BatchJob& job = jobs[i];
    RunResult& out = results[i];
    JobTally& tally = tallies[i];
    // Thread-local request ID: every prof::Span opened below (and any
    // nested instrumentation) stamps this ID into its record.
    obs::RequestScope req_scope(req_ids[i]);
    if (!job.data) {
      out.status = rt::Status(rt::StatusCode::kInvalidArgument, "batch job has no dataset");
      out.attempts = 0;
      return;
    }
    if (!batch_model_name(job)) {
      out.status = rt::Status(rt::StatusCode::kInvalidArgument, "batch job has no run request");
      out.attempts = 0;
      return;
    }
    tally.ran = true;
    rt::CancelScope scope(job.deadline, job.cancel);
    // Per-job fault plan: thread-confined shot counters, so concurrent
    // jobs see deterministic fault schedules (the process-wide plan is
    // suppressed for the job's duration either way).
    rt::FaultInjector::ScopedJobPlan plan(job.fault_plan);
    if (!plan.status().ok()) {
      out.status = rt::Status(plan.status().code(), plan.status().message())
                       .with_context("batch job fault plan");
      out.attempts = 0;
      tally.cancel_points = scope.checkpoints();
      return;
    }
    // The job-local ladder starts from the breaker's admission rung (an
    // open breaker routes the job straight to the last-known-good degraded
    // knob set) plus the knobs the job itself forces off.
    detail::RunContext& rc = tally.run;
    rc.job = true;
    rc.disabled = knob_mask(admissions[i].disabled_knobs) | knob_mask(job.disable_knobs);
    rc.cache_isolated = !job.fault_plan.empty();
    // Shard-recovery journal events (DESIGN.md §17) are buffered alongside
    // the attempt events so the sequential fold interleaves them in
    // emission order. The fire listener additionally records every
    // armed-seam shot as a "fault_injected" event — the per-job plan is
    // thread-confined, so every fire lands on this worker.
    rc.recovery.journal = journal_on ? &tally.journal : nullptr;
    const rt::FaultFireListener on_fire = +[](void* ctx, std::string_view seam, int shot) {
      auto* buffered = static_cast<std::vector<obs::JournalEvent>*>(ctx);
      obs::JournalEvent ev;
      ev.type = "fault_injected";
      ev.key = std::string(seam);
      ev.code = rt::status_code_name(rt::StatusCode::kFaultInjected);
      ev.attempt = static_cast<std::uint64_t>(shot) + 1;
      buffered->push_back(std::move(ev));
    };
    rt::ScopedFireListener fire_listener(journal_on ? on_fire : nullptr,
                                         journal_on ? &tally.journal : nullptr);
    const int max_attempts = std::max(1, job.max_attempts);
    for (int attempt = 1;; ++attempt) {
      ++tally.attempts;
      out = run_request(job, rc);
      if (journal_on) {
        obs::JournalEvent ev;
        ev.type = "attempt";
        ev.key = keys[i];
        ev.code = rt::status_code_name(out.status.code());
        if (!out.status.ok()) ev.detail = out.status.message();
        ev.attempt = tally.attempts;
        ev.cycles = out.stats.total_cycles;
        tally.journal.push_back(std::move(ev));
      }
      if (out.status.ok()) {
        tally.success = true;
        break;
      }
      const rt::StatusCode code = out.status.code();
      if (code == rt::StatusCode::kDeadlineExceeded) {
        tally.timed_out = true;
        break;
      }
      if (code == rt::StatusCode::kCancelled) {
        tally.cancelled = true;
        break;
      }
      if (!rt::retryable(out.status) || attempt >= max_attempts) break;
      // Deterministic backoff before the retry, charged in sim-time
      // against the job's own deadline (never a wall-clock sleep).
      const double backoff = rt::backoff_cycles(attempt);
      tally.backoff_cycles += backoff;
      if (journal_on) {
        obs::JournalEvent ev;
        ev.type = "backoff";
        ev.key = keys[i];
        ev.attempt = tally.attempts;
        ev.cycles = backoff;
        tally.journal.push_back(std::move(ev));
      }
      rt::charge_sim_cycles(backoff);
      if (rt::Status s = rt::cancel_checkpoint(); !s.ok()) {
        const bool deadline = s.code() == rt::StatusCode::kDeadlineExceeded;
        out.status = std::move(s).with_context("run_batch retry backoff");
        (deadline ? tally.timed_out : tally.cancelled) = true;
        break;
      }
      ++tally.retries;
    }
    out.attempts = static_cast<int>(tally.attempts);
    out.timed_out = tally.timed_out;
    tally.cancel_points = scope.checkpoints();
  };
  par::parallel_chunks(jobs.size(), /*grain=*/1,
                       [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) run_job(i);
                       });

  // --- Sequential fold in job order: degradation events flush to the sink
  // in a deterministic sequence, breaker outcomes apply in job order, and
  // the telemetry story — journal seq numbers and registry instruments —
  // lands in job order, so every export is byte-identical at any host
  // thread count.
  prof::MetricsSink& sink = prof::MetricsSink::instance();
  obs::EventJournal& journal = obs::EventJournal::instance();
  obs::TelemetryRegistry& reg = obs::TelemetryRegistry::instance();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    JobTally& tally = tallies[i];
    if (journal_on && tally.ran && !keys[i].empty()) {
      obs::JournalEvent ev;
      ev.request_id = req_ids[i];
      ev.type = "admission";
      ev.key = keys[i];
      ev.code = rt::breaker_state_name(admissions[i].state);
      if (admissions[i].probe) ev.detail = "half_open_probe";
      journal.append(std::move(ev));
    }
    if (journal_on) {
      for (obs::JournalEvent& ev : tally.journal) {
        ev.request_id = req_ids[i];
        journal.append(std::move(ev));
      }
    }
    for (rt::DegradationEvent& ev : tally.run.events) {
      if (journal_on) {
        obs::JournalEvent jev;
        jev.request_id = req_ids[i];
        jev.type = "degradation";
        jev.key = ev.seam;
        jev.code = ev.knob;
        jev.detail = ev.action;
        journal.append(std::move(jev));
      }
      sink.record_degradation(std::move(ev));
    }
    const bool failed = !tally.success && !tally.timed_out && !tally.cancelled;
    reg.counter_add("serve.jobs", 1);
    reg.counter_add("serve.jobs_ok", tally.success ? 1 : 0);
    reg.counter_add("serve.jobs_deadline", tally.timed_out ? 1 : 0);
    reg.counter_add("serve.jobs_cancelled", tally.cancelled ? 1 : 0);
    reg.counter_add("serve.jobs_failed", failed ? 1 : 0);
    reg.counter_add("serve.attempts", tally.attempts);
    reg.counter_add("serve.retries", tally.retries);
    reg.counter_add("serve.cancel_points", tally.cancel_points);
    if (tally.backoff_cycles > 0.0) reg.observe("serve.backoff_cycles", tally.backoff_cycles);
    flush_recovery(tally.run.recovery);
    if (journal_on) {
      obs::JournalEvent ev;
      ev.request_id = req_ids[i];
      ev.type = "outcome";
      ev.key = keys[i];
      ev.code = rt::status_code_name(results[i].status.code());
      ev.detail = !tally.ran       ? "rejected"
                  : tally.success  ? "ok"
                  : tally.timed_out ? "timed_out"
                  : tally.cancelled ? "cancelled"
                                    : "failed";
      ev.attempt = tally.attempts;
      ev.cycles = results[i].stats.total_cycles;
      journal.append(std::move(ev));
    }
    if (tally.ran) reg.observe("serve.job_attempts", static_cast<double>(tally.attempts));
    if (tally.success) reg.observe("serve.job_cycles", results[i].stats.total_cycles);
    if (!tally.ran || keys[i].empty()) continue;
    results[i].breaker_state = std::string(rt::breaker_state_name(admissions[i].state));
    reg.counter_add("serve.breaker_open_admissions",
                    admissions[i].state != rt::BreakerState::kClosed ? 1 : 0);
    reg.counter_add("serve.breaker_half_open_probes", admissions[i].probe ? 1 : 0);
    const rt::CircuitBreaker::OutcomeEffect effect =
        breaker_.record(keys[i], admissions[i], tally.success, knob_names(tally.run.disabled));
    reg.counter_add("serve.breaker_trips", effect.tripped ? 1 : 0);
    reg.counter_add("serve.breaker_recoveries", effect.recovered ? 1 : 0);
    if (journal_on && (effect.tripped || effect.recovered)) {
      obs::JournalEvent ev;
      ev.request_id = req_ids[i];
      ev.type = "breaker";
      ev.key = keys[i];
      ev.code = effect.tripped ? "open" : "closed";
      ev.detail = effect.tripped ? "tripped" : "recovered";
      journal.append(std::move(ev));
    }
  }
  reg.observe("serve.batch_jobs", static_cast<double>(jobs.size()));
  return results;
}

RunResult OptimizedEngine::run_request(const BatchJob& job, detail::RunContext& rc) {
  const Dataset& data = *job.data;
  const auto guarded = [&](const models::Matrix* features, std::string_view what, auto&& attempt) {
    return run_guarded(data, features, what, rc, attempt);
  };
  if (job.gcn) {
    return guarded(job.gcn->features, "run_gcn",
                   [&] { return gcn_attempt(data, *job.gcn, job.mode, job.spec, rc); });
  }
  if (job.gat) {
    return guarded(job.gat->features, "run_gat",
                   [&] { return gat_attempt(data, *job.gat, job.mode, job.spec, rc); });
  }
  if (job.sage_lstm) {
    return guarded(job.sage_lstm->features, "run_sage_lstm",
                   [&] { return sage_lstm_attempt(data, *job.sage_lstm, job.mode, job.spec); });
  }
  if (job.sage_pool) {
    return guarded(job.sage_pool->features, "run_sage_pool",
                   [&] { return sage_pool_attempt(data, *job.sage_pool, job.mode, job.spec, rc); });
  }
  return guarded(job.multihead_gat->features, "run_multihead_gat", [&] {
    return multihead_gat_attempt(data, *job.multihead_gat, job.mode, job.spec, rc);
  });
}

RunResult OptimizedEngine::run_gcn(const Dataset& data, const GcnRun& run, ExecMode mode,
                                   const sim::DeviceSpec& spec) {
  return run_direct(data.csr, [&](detail::RunContext& rc) {
    return run_request({.data = &data, .gcn = &run, .mode = mode, .spec = spec}, rc);
  });
}

RunResult OptimizedEngine::gcn_attempt(const Dataset& data, const GcnRun& run, ExecMode mode,
                                       const sim::DeviceSpec& spec, detail::RunContext& rc) {
  const detail::AttemptPlan plan = resolve_plan(data.csr, rc, first_layer_width(run.cfg->dims),
                                                &spec, "run_gcn fusion gate");
  if (plan.shards > 1) return gcn_attempt_sharded(data, run, mode, spec, plan, rc);
  prof::Span span("OptimizedEngine::run_gcn", "engine");
  sim::SimContext ctx(pipeline::with_overhead(spec, detail::kEngineOverheadCycles));
  Workspace ws(mode);
  const auto gdev = k::device_graph(ctx, data.csr, "csr");
  const auto norm = ws.from_vec(ctx, models::gcn_edge_norm(data.csr), "gcn_norm");

  k::FeatureMat h = ws.from(ctx, *run.features, "x");
  for (std::size_t l = 0; l < run.params->weight.size(); ++l) {
    h = gcn_layer(ctx, ws, gdev, norm, plan, h, run.params->weight[l], run.params->bias[l],
                  plan.on(detail::kAdapter), l + 1 != run.params->weight.size(), mode)
            .out;
  }
  return pipeline::finish(ctx, spec, mode == ExecMode::kFull ? *h.host : Matrix());
}

OptimizedEngine::TrainResult OptimizedEngine::train_gcn_step(
    const Dataset& data, const models::GcnConfig& cfg, models::GcnParams& params,
    const models::Matrix& x, const models::Matrix& target, float lr, ExecMode mode,
    const sim::DeviceSpec& spec, models::GcnGrads* grads_out) {
  (void)cfg;
  return run_direct(data.csr, [&](detail::RunContext& rc) {
    return run_guarded(data, &x, "train_gcn_step", rc, [&] {
      return train_gcn_attempt(data, params, x, target, lr, mode, spec, grads_out, rc);
    });
  });
}

OptimizedEngine::TrainResult OptimizedEngine::train_gcn_attempt(
    const Dataset& data, models::GcnParams& params, const models::Matrix& x,
    const models::Matrix& target, float lr, ExecMode mode, const sim::DeviceSpec& spec,
    models::GcnGrads* grads_out, detail::RunContext& rc) {
  // Training tunes at the first layer's output width, like the forward
  // entry point; the tuned knobs are cached per width.
  const detail::AttemptPlan plan =
      resolve_plan(data.csr, rc, params.weight.empty() ? -1 : params.weight[0].cols(), &spec);
  prof::Span span("OptimizedEngine::train_gcn_step", "engine");
  sim::SimContext ctx(pipeline::with_overhead(spec, detail::kEngineOverheadCycles));
  Workspace ws(mode);
  const auto gdev = k::device_graph(ctx, data.csr, "csr");
  const auto norm = ws.from_vec(ctx, models::gcn_edge_norm(data.csr), "gcn_norm");
  const bool full = mode == ExecMode::kFull;
  const std::size_t layers = params.weight.size();

  // ---- Forward, caching per-layer activations for backward. Training
  // has no unfused variant: the aggregation is fused whatever the adapter
  // knob says.
  std::vector<k::FeatureMat> hs;       // hs[l] = h_l (hs[0] = x)
  std::vector<k::FeatureMat> ws_dev;   // device weights
  std::vector<k::FeatureMat> bs_dev;   // device biases
  hs.push_back(ws.from(ctx, x, "x"));
  for (std::size_t l = 0; l < layers; ++l) {
    const pipeline::GcnLayer layer = gcn_layer(ctx, ws, gdev, norm, plan, hs.back(),
                                               params.weight[l], params.bias[l], /*fused=*/true,
                                               l + 1 != layers, mode);
    ws_dev.push_back(layer.w);
    bs_dev.push_back(layer.b);
    hs.push_back(layer.out);
  }

  TrainResult result;
  // ---- Loss gradient (host; the loss itself is a scalar reduction whose
  // simulated cost is negligible next to the layers).
  auto d_h = ws.mat(ctx, hs.back().rows, hs.back().cols, "d_out");
  if (full) {
    result.loss = models::mse_loss(*hs.back().host, target);
    *d_h.host = models::mse_loss_grad(*hs.back().host, target);
  }

  // ---- Backward.
  models::GcnGrads grads;
  grads.weight.resize(layers);
  grads.bias.resize(layers);
  for (std::size_t li = layers; li-- > 0;) {
    const bool last = li + 1 == layers;
    // Mask through the activation: ReLU passes gradient where out > 0.
    if (!last) {
      k::dense_binary(ctx, {.a = &d_h,
                            .b = &hs[li + 1],
                            .out = &d_h,
                            .fn = [](float g, float o) { return o > 0.0f ? g : 0.0f; },
                            .flops_per_elem = 1.0,
                            .mode = mode,
                            .name = "relu_backward",
                            .phase = "backward"});
    }
    // Bias gradient.
    auto d_b = ws.mat(ctx, bs_dev[li].rows, 1, "d_b");
    k::col_sum(ctx, {.in = &d_h, .out = &d_b, .mode = mode});
    // d_t = A d_pre — the same aggregation kernel, same task schedule.
    auto d_t = ws.mat(ctx, d_h.rows, d_h.cols, "d_t");
    k::spmm_node(ctx, {.graph = &gdev,
                       .tasks = plan.grouped.tasks,
                       .src = &d_h,
                       .edge_weight = &norm,
                       .out = &d_t,
                       .lanes = plan.lanes,
                       .atomic_merge = plan.grouped.any_split,
                       .mode = mode,
                       .name = "aggregate_backward",
                       .phase = "backward"});
    // d_W = h^T d_t.
    auto h_t = ws.mat(ctx, hs[li].cols, hs[li].rows, "hT");
    k::dense_transpose(ctx, {.in = &hs[li], .out = &h_t, .mode = mode, .phase = "backward"});
    auto d_w = ws.mat(ctx, h_t.rows, d_t.cols, "d_w");
    k::dense_gemm(ctx, {.a = &h_t, .b = &d_t, .c = &d_w, .mode = mode, .name = "gemm_dw",
                        .phase = "backward"});
    // d_h_{l} = d_t W^T.
    auto w_t = ws.mat(ctx, ws_dev[li].cols, ws_dev[li].rows, "wT");
    k::dense_transpose(ctx, {.in = &ws_dev[li], .out = &w_t, .mode = mode,
                             .phase = "backward"});
    auto d_h_prev = ws.mat(ctx, d_t.rows, w_t.cols, "d_h");
    k::dense_gemm(ctx, {.a = &d_t, .b = &w_t, .c = &d_h_prev, .mode = mode,
                        .name = "gemm_dh", .phase = "backward"});

    // SGD update, fused elementwise kernels.
    k::dense_binary(ctx, {.a = &ws_dev[li],
                          .b = &d_w,
                          .out = &ws_dev[li],
                          .fn = [lr](float w, float g) { return w - lr * g; },
                          .flops_per_elem = 2.0,
                          .mode = mode,
                          .name = "sgd_w",
                          .phase = "backward"});
    k::dense_binary(ctx, {.a = &bs_dev[li],
                          .b = &d_b,
                          .out = &bs_dev[li],
                          .fn = [lr](float b, float g) { return b - lr * g; },
                          .flops_per_elem = 2.0,
                          .mode = mode,
                          .name = "sgd_b",
                          .phase = "backward"});
    if (full) {
      grads.weight[li] = *d_w.host;
      grads.bias[li] = *d_b.host;
    }
    d_h = d_h_prev;
  }
  if (full) {
    grads.input = *d_h.host;
    // Publish the updated parameters back to the caller.
    for (std::size_t l = 0; l < layers; ++l) {
      params.weight[l] = *ws_dev[l].host;
      params.bias[l] = *bs_dev[l].host;
    }
    if (grads_out) *grads_out = std::move(grads);
  }
  result.run = pipeline::finish(ctx, spec, full ? *hs.back().host : Matrix());
  return result;
}

RunResult OptimizedEngine::run_gat(const Dataset& data, const GatRun& run, ExecMode mode,
                                   const sim::DeviceSpec& spec) {
  return run_direct(data.csr, [&](detail::RunContext& rc) {
    return run_request({.data = &data, .gat = &run, .mode = mode, .spec = spec}, rc);
  });
}

RunResult OptimizedEngine::gat_attempt(const Dataset& data, const GatRun& run, ExecMode mode,
                                       const sim::DeviceSpec& spec, detail::RunContext& rc) {
  const detail::AttemptPlan plan = resolve_plan(data.csr, rc, first_layer_width(run.cfg->dims),
                                                &spec, "run_gat fusion gate");
  if (plan.shards > 1) return gat_attempt_sharded(data, run, mode, spec, plan, rc);
  prof::Span span("OptimizedEngine::run_gat", "engine");
  sim::SimContext ctx(pipeline::with_overhead(spec, detail::kEngineOverheadCycles));
  Workspace ws(mode);
  const auto gdev = k::device_graph(ctx, data.csr, "csr");

  k::FeatureMat h = ws.from(ctx, *run.features, "x");
  for (std::size_t l = 0; l < run.params->weight.size(); ++l) {
    h = gat_layer(ctx, ws, gdev, plan, h, run.params->weight[l], run.params->att_l[l],
                  run.params->att_r[l], run.cfg->leaky_alpha, l + 1 != run.params->weight.size(),
                  mode);
  }
  return pipeline::finish(ctx, spec, mode == ExecMode::kFull ? *h.host : Matrix());
}

RunResult OptimizedEngine::run_multihead_gat(const Dataset& data,
                                             const baselines::MultiHeadGatRun& run,
                                             ExecMode mode, const sim::DeviceSpec& spec) {
  return run_direct(data.csr, [&](detail::RunContext& rc) {
    return run_request({.data = &data, .multihead_gat = &run, .mode = mode, .spec = spec}, rc);
  });
}

RunResult OptimizedEngine::multihead_gat_attempt(const Dataset& data,
                                                 const baselines::MultiHeadGatRun& run,
                                                 ExecMode mode, const sim::DeviceSpec& spec,
                                                 detail::RunContext& rc) {
  const detail::AttemptPlan plan = resolve_plan(data.csr, rc, run.cfg->head_dim, &spec);
  prof::Span span("OptimizedEngine::run_multihead_gat", "engine");
  sim::SimContext ctx(pipeline::with_overhead(spec, detail::kEngineOverheadCycles));
  Workspace ws(mode);
  const auto gdev = k::device_graph(ctx, data.csr, "csr");
  const auto head = [&](const k::FeatureMat& x, std::size_t h) {
    return gat_layer(ctx, ws, gdev, plan, x, run.params->weight[h], run.params->att_l[h],
                     run.params->att_r[h], run.cfg->leaky_alpha, /*relu=*/false, mode);
  };
  return pipeline::finish(ctx, spec, pipeline::multihead_gat(ctx, ws, run, mode, head));
}

RunResult OptimizedEngine::run_sage_pool(const Dataset& data, const baselines::SagePoolRun& run,
                                         ExecMode mode, const sim::DeviceSpec& spec) {
  return run_direct(data.csr, [&](detail::RunContext& rc) {
    return run_request({.data = &data, .sage_pool = &run, .mode = mode, .spec = spec}, rc);
  });
}

RunResult OptimizedEngine::sage_pool_attempt(const Dataset& data,
                                             const baselines::SagePoolRun& run, ExecMode mode,
                                             const sim::DeviceSpec& spec, detail::RunContext& rc) {
  const detail::AttemptPlan plan = resolve_plan(data.csr, rc, run.cfg->pool_dim, &spec);
  prof::Span span("OptimizedEngine::run_sage_pool", "engine");
  sim::SimContext ctx(pipeline::with_overhead(spec, detail::kEngineOverheadCycles));
  Workspace ws(mode);
  const auto gdev = k::device_graph(ctx, data.csr, "csr");
  const k::FeatureMat out = pipeline::sage_pool(ctx, ws, gdev, plan.grouped.tasks,
                                                plan.grouped.any_split, plan.lanes, run, mode);
  return pipeline::finish(ctx, spec, mode == ExecMode::kFull ? *out.host : Matrix());
}

RunResult OptimizedEngine::run_sage_lstm(const Dataset& data, const SageLstmRun& run,
                                         ExecMode mode, const sim::DeviceSpec& spec) {
  return run_direct(data.csr, [&](detail::RunContext& rc) {
    return run_request({.data = &data, .sage_lstm = &run, .mode = mode, .spec = spec}, rc);
  });
}

RunResult OptimizedEngine::sage_lstm_attempt(const Dataset& data, const SageLstmRun& run,
                                             ExecMode mode, const sim::DeviceSpec& spec) {
  prof::Span span("OptimizedEngine::run_sage_lstm", "engine");
  sim::SimContext ctx(pipeline::with_overhead(spec, detail::kEngineOverheadCycles));
  Workspace ws(mode);
  const auto gdev = k::device_graph(ctx, data.csr, "csr");
  const models::Index n = data.csr.num_nodes;
  const models::Index hidden = run.cfg->hidden;

  auto x = ws.from(ctx, *run.features, "x");
  auto w = ws.from(ctx, run.params->w, "w");
  auto rmat = ws.from(ctx, run.params->r, "r");
  auto bias = ws.from(ctx, run.params->bias, "bias");
  auto hstate = ws.mat(ctx, n, hidden, "h");
  auto cstate = ws.mat(ctx, n, hidden, "c");
  auto g_in = ws.mat(ctx, n, 4 * hidden, "gates_in");
  auto g_rec = ws.mat(ctx, n, 4 * hidden, "gates_rec");
  auto gates = ws.mat(ctx, n, 4 * hidden, "gates");

  const core::StepIndexSet steps = core::build_step_indices(ctx, data.csr, run.cfg->steps);

  k::FeatureMat xw;  // pre-transformed features (redundancy bypassing)
  if (cfg_.sage_level == SageOptLevel::kSparseFetchBypass) {
    xw = ws.mat(ctx, n, 4 * hidden, "xw_pre");
    // One transformation for the whole unroll: O(N) instead of O(E).
    k::dense_gemm(ctx, {.a = &x, .b = &w, .c = &xw, .mode = mode, .name = "pre_transform",
                        .phase = "transformation"});
  }
  auto x_t = ws.mat(ctx, n, run.cfg->in_feat, "x_t");

  for (int t = 0; t < run.cfg->steps; ++t) {
    switch (cfg_.sage_level) {
      case SageOptLevel::kBase:
        k::step_gather(ctx, {.graph = &gdev, .step = t, .feat = &x, .out = &x_t, .mode = mode});
        k::dense_gemm(ctx, {.a = &x_t, .b = &w, .c = &g_in, .mode = mode,
                            .phase = "transformation"});
        break;
      case SageOptLevel::kSparseFetch:
        // The gather rides inside the GEMM's loads — no expansion kernel,
        // no [N, F] intermediate; the transformation is still per-step.
        k::sparse_fetch_gemm(ctx, {.feat = &x,
                                   .row_index = steps.index[static_cast<std::size_t>(t)],
                                   .index_buf = steps.buf[static_cast<std::size_t>(t)],
                                   .b = &w,
                                   .c = &g_in,
                                   .mode = mode,
                                   .phase = "transformation"});
        break;
      case SageOptLevel::kSparseFetchBypass:
        break;  // handled below: fetch pre-transformed rows directly
    }
    k::dense_gemm(ctx, {.a = &hstate, .b = &rmat, .c = &g_rec, .mode = mode,
                        .phase = "recurrent"});
    if (cfg_.sage_level == SageOptLevel::kSparseFetchBypass) {
      // gates = XW[neighbor_t(v)] + hR — sparse fetch of the
      // pre-transformed row fused into the gate addition.
      k::indexed_binary(ctx, {.a = &xw,
                              .row_index = steps.index[static_cast<std::size_t>(t)],
                              .index_buf = steps.buf[static_cast<std::size_t>(t)],
                              .b = &g_rec,
                              .out = &gates,
                              .fn = [](float a, float b) { return a + b; },
                              .flops_per_elem = 1.0,
                              .mode = mode,
                              .name = "spfetch_gates_add",
                              .phase = "lstm_cell"});
    } else {
      k::dense_binary(ctx, {.a = &g_in,
                            .b = &g_rec,
                            .out = &gates,
                            .fn = [](float a, float b) { return a + b; },
                            .flops_per_elem = 1.0,
                            .mode = mode,
                            .name = "gates_add",
                            .phase = "lstm_cell"});
    }
    k::lstm_pointwise(ctx, {.gates = &gates, .bias = &bias, .c = &cstate, .h = &hstate,
                            .mode = mode});
  }
  auto outw = ws.from(ctx, run.params->out_w, "out_w");
  auto out = ws.mat(ctx, n, hidden, "out");
  k::dense_gemm(ctx, {.a = &hstate, .b = &outw, .c = &out, .mode = mode, .phase = "projection"});

  return pipeline::finish(ctx, spec, mode == ExecMode::kFull ? *out.host : Matrix());
}

}  // namespace gnnbridge::engine
