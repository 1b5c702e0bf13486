#include "engine/engine.hpp"

#include <bit>
#include <cstdio>
#include <map>
#include <type_traits>

#include "core/balance/neighbor_grouping.hpp"
#include "core/locality/schedule.hpp"
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
/// metric-schema name, the fallback the degradation ladder takes when it
/// turns the knob off, and the fault seam whose failure turns off this knob
/// alone (degrade_for). Neighbor grouping and sharding have no such seam:
/// only sim_launch's walk and the shard fallback turn them off.
struct KnobInfo {
  unsigned bit;
  std::string_view name;
  std::string_view action;
  std::string_view seam;
};
constexpr KnobInfo kKnobTable[] = {
    {detail::kLas, "las", "las->natural_order", rt::kSeamLasCluster},
    {detail::kAutoTune, "auto_tune", "tuned_bound->heuristic_bound", rt::kSeamTunerProbe},
    {detail::kAdapter, "adapter", "fused->unfused_pipeline", rt::kSeamFusionPass},
    {detail::kNeighborGrouping, "neighbor_grouping", "grouped->one_task_per_node", {}},
    {detail::kSharding, "sharding", "sharded->unsharded", {}},
};

const KnobInfo& knob_info(unsigned bit) { return kKnobTable[std::countr_zero(bit)]; }

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

/// The untuned grouping bound: core::default_group_bound, 0 without
/// neighbor grouping.
EdgeId static_bound(const EngineConfig& cfg, const graph::Csr& csr) {
  return cfg.use_neighbor_grouping ? core::default_group_bound(csr) : 0;
}

/// The width a GCN/GAT forward's first layer aggregates at — the width the
/// tuner probes; -1 for a model without layers.
tensor::Index first_layer_width(const std::vector<models::Index>& dims) {
  return dims.size() > 1 ? dims[1] : -1;
}

/// One unsharded GCN layer over `in`: buffers, transform, aggregation.
pipeline::GcnLayer gcn_layer(sim::SimContext& ctx, Workspace& ws, const k::GraphOnDevice& gdev,
                             const k::FeatureMat& norm, const detail::AttemptPlan& plan,
                             const k::FeatureMat& in, const Matrix& w, const Matrix& b,
                             bool fused, bool relu) {
  pipeline::GcnLayer layer = pipeline::gcn_layer_buffers(ctx, ws, in.rows, w, b);
  k::dense_gemm(ctx, {.a = &in, .b = &layer.w, .c = &layer.t});
  pipeline::gcn_aggregate(ctx, {.graph = &gdev,
                                .tasks = plan.grouped.tasks,
                                .any_split = plan.grouped.any_split,
                                .norm = &norm,
                                .layer = &layer,
                                .fused = fused,
                                .relu = relu,
                                .lanes = plan.lanes});
  return layer;
}

/// One unsharded GAT layer (or head) over `in` in the plan's variant:
/// buffers, transform, graph ops. Returns the layer output.
k::FeatureMat gat_layer(sim::SimContext& ctx, Workspace& ws, const k::GraphOnDevice& gdev,
                        const detail::AttemptPlan& plan, const k::FeatureMat& in,
                        const Matrix& w, const Matrix& att_l, const Matrix& att_r,
                        float leaky_alpha, bool relu) {
  const pipeline::GatGraphOps ops = detail::gat_graph_ops_for(plan);
  pipeline::GatLayer layer = pipeline::gat_layer_buffers(
      ctx, ws, in.rows, static_cast<models::Index>(gdev.csr->num_edges()), w, att_l, att_r, ops);
  k::dense_gemm(ctx, {.a = &in, .b = &layer.w, .c = &layer.t});
  pipeline::gat_graph_ops(ctx, ops,
                          {.graph = &gdev,
                           .tasks = plan.grouped.tasks,
                           .any_split = plan.grouped.any_split,
                           .layer = &layer,
                           .leaky_alpha = leaky_alpha,
                           .relu = relu,
                           .lanes = plan.lanes});
  return layer.out;
}
}  // namespace

// ---- Graceful degradation (DESIGN.md §10) -----------------------------

rt::Status OptimizedEngine::preflight(const Dataset& data, const models::Matrix* features,
                                      const graph::GraphFingerprint& fp) const {
  bool csr_validated = false;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = memo_.find(fp);
    csr_validated = it != memo_.end() && it->second.csr_validated;
  }
  if (!csr_validated) {
    if (rt::Status s = rt::validate_csr(data.csr); !s.ok()) {
      return std::move(s).with_context("engine preflight");
    }
    std::lock_guard<std::mutex> lock(cache_mu_);
    memo_[fp].csr_validated = true;
  }
  if (features) {
    if (rt::Status s = rt::validate_matrix(*features, "features"); !s.ok()) {
      return std::move(s).with_context("engine preflight");
    }
  }
  return rt::OkStatus();
}

bool OptimizedEngine::disable_knob(unsigned knob, std::string_view seam, const rt::Status& cause,
                                   detail::RunContext& rc) const {
  if ((configured_knobs(cfg_) & knob) == 0) return false;
  if (((rc.disabled | degraded_.load(std::memory_order_relaxed)) & knob) != 0) return false;
  const KnobInfo& info = knob_info(knob);
  rc.disabled |= knob;
  rc.degradations.push_back(rt::make_degradation(seam, info.name, info.action, cause));
  return true;
}

void OptimizedEngine::publish(detail::RunContext& rc, obs::EventJournal* journal,
                              const std::string& request_id) {
  if (!rc.job) degraded_.fetch_or(rc.disabled);
  if (journal) {
    for (obs::JournalEvent& ev : rc.events) {
      ev.request_id = request_id;
      journal->append(std::move(ev));
    }
  }
  prof::MetricsSink& sink = prof::MetricsSink::instance();
  for (rt::DegradationEvent& ev : rc.degradations) {
    std::fprintf(stderr, "gnnbridge: stage '%s' failed (%s); degrading: %s\n", ev.seam.c_str(),
                 ev.detail.c_str(), ev.action.c_str());
    if (journal) {
      obs::JournalEvent jev;
      jev.request_id = request_id;
      jev.type = "degradation";
      jev.key = ev.seam;
      jev.code = ev.knob;
      jev.detail = ev.action;
      journal->append(std::move(jev));
    }
    sink.record_degradation(std::move(ev));
  }
  // Shard recovery (DESIGN.md §17). A run that did not recover records
  // nothing, so fault-free telemetry carries no recovery instruments.
  const sim::RecoveryStats& r = rc.recovery;
  if (r.shard_retries == 0 && r.shard_fallbacks == 0) return;
  obs::TelemetryRegistry& reg = sink.telemetry();
  reg.counter_add("recovery.shard_retries", r.shard_retries);
  reg.counter_add("recovery.shards_reexecuted", r.shards_reexecuted);
  reg.counter_add("recovery.shard_fallbacks", r.shard_fallbacks);
  if (r.wasted_cycles > 0.0) reg.observe("recovery.wasted_cycles", r.wasted_cycles);
}

bool OptimizedEngine::degrade_for(const rt::StageFailure& failure, detail::RunContext& rc) const {
  const std::string& seam = failure.seam();
  const auto disable = [&](unsigned knob) {
    return disable_knob(knob, seam, failure.status(), rc);
  };
  for (const KnobInfo& k : kKnobTable) {
    if (seam == k.seam) return disable(k.bit);
  }
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
    // are bit-identical either way — so the job never counts as failed.
    if (!disable(detail::kSharding)) return false;
    ++rc.recovery.shard_fallbacks;
    const KnobInfo& info = knob_info(detail::kSharding);
    obs::JournalEvent ev;
    ev.type = "shard_fallback";
    ev.key = seam;
    ev.code = std::string(info.name);
    ev.detail = std::string(info.action);
    rc.events.push_back(std::move(ev));
    return true;
  }
  return false;
}

template <typename Fn>
auto OptimizedEngine::run_guarded(const Dataset& data, const models::Matrix* features,
                                  std::string_view what, detail::RunContext& rc, Fn&& attempt)
    -> decltype(attempt()) {
  using R = decltype(attempt());
  const auto run_of = [](R& r) -> RunResult& {
    if constexpr (std::is_same_v<R, RunResult>) {
      return r;
    } else {
      return r.run;
    }
  };
  const auto fail = [&](rt::Status s) {
    R r{};
    s.with_context("OptimizedEngine::" + std::string(what) + "('" + data.name + "')");
    run_of(r).status = std::move(s);
    return r;
  };
  if (rt::Status s = preflight(data, features, rc.fp); !s.ok()) return fail(std::move(s));
  // The ladder holds at most five knobs; a few spare rounds absorb fault
  // plans that keep firing while we degrade.
  constexpr int kMaxRounds = 8;
  for (int round = 0; round < kMaxRounds; ++round) {
    try {
      R r = attempt();
      run_of(r).stats.recovery = rc.recovery;
      return r;
    } catch (const rt::StageFailure& failure) {
      if (!degrade_for(failure, rc)) return fail(failure.status());
    }
  }
  return fail(rt::Status(rt::StatusCode::kInternal, "degradation retries exhausted"));
}

template <typename Fn>
auto OptimizedEngine::run_direct(const graph::Csr& csr, Fn&& body) {
  detail::RunContext rc;
  rc.fp = graph::fingerprint(csr);
  auto result = body(rc);
  publish(rc);
  return result;
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
    // Adapter gate: an injected fusion_pass fault degrades the attempt to
    // the unfused pipeline.
    if (plan.on(detail::kAdapter)) rt::raise_if_armed(rt::kSeamFusionPass, fusion_gate);
    if (plan.on(detail::kSharding)) plan.shards = cfg_.shards;
  }
  plan.linear = plan.on(detail::kAdapter) && cfg_.use_linear;

  // Tuned knobs are per (graph, feature width, LAS allowed); cache-isolated
  // jobs re-tune every attempt. The LAS order is resolved once, before the
  // tuner probes it, and only when something will read it.
  const bool tuning = plan.on(detail::kAutoTune) && feat >= 0;
  std::optional<core::TuneConfig> tuned;
  if (tuning && !rc.cache_isolated) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (auto m = memo_.find(rc.fp); m != memo_.end()) {
      auto it = m->second.tuned.find({feat, plan.on(detail::kLas)});
      if (it != m->second.tuned.end()) tuned = it->second;
    }
  }
  const std::vector<NodeId>* las =
      plan.on(detail::kLas) && (!tuned || tuned->use_las) ? las_order(csr, rc) : nullptr;
  if (tuning && !tuned) {
    tuned = tune(csr, feat, *spec, las, rc);
    if (!tuned) plan.knobs &= ~detail::kAutoTune;
  }
  plan.las = tuned && !tuned->use_las ? nullptr : las;
  plan.lanes = tuned ? tuned->lanes : detail::kUntunedLanes;
  plan.bound = (off & detail::kNeighborGrouping) != 0 ? 0
               : tuned                                ? tuned->group_bound
                                                      : static_bound(cfg_, csr);
  if (plan.shards == 1) {
    prof::Span span("neighbor_grouping", "engine");
    plan.grouped = k::neighbor_group_tasks(
        csr, plan.bound,
        plan.las ? std::span<const NodeId>(*plan.las) : std::span<const NodeId>());
    span.arg("tasks", static_cast<double>(plan.grouped.tasks.size()));
  }
  return plan;
}

const std::vector<NodeId>* OptimizedEngine::las_order(const graph::Csr& csr,
                                                      const detail::RunContext& rc) const {
  // Cache-isolated jobs skip the warm-hit shortcut (but still insert: the
  // computed order is a pure function of the graph, so the entry is
  // value-identical however it got there).
  if (!rc.cache_isolated) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = memo_.find(rc.fp);
    if (it != memo_.end() && it->second.las) return it->second.las.get();
  }
  // Compute outside the lock (clustering is the expensive part); two
  // concurrent jobs missing on the same graph compute identical orders and
  // the first insert wins. Entries are never erased, so the returned raw
  // pointer stays valid for the engine's lifetime.
  prof::Span span("las_schedule", "engine");
  auto order = std::make_shared<const std::vector<NodeId>>(core::locality_aware_schedule(csr).order);
  span.arg("nodes", static_cast<double>(csr.num_nodes));
  std::lock_guard<std::mutex> lock(cache_mu_);
  std::shared_ptr<const std::vector<NodeId>>& slot = memo_[rc.fp].las;
  if (!slot) slot = std::move(order);
  return slot.get();
}

std::optional<core::TuneConfig> OptimizedEngine::tune(
    const graph::Csr& csr, tensor::Index feat, const sim::DeviceSpec& spec,
    const std::vector<NodeId>* las, detail::RunContext& rc) const {
  prof::Span span("auto_tune", "engine");
  span.arg("feat_len", static_cast<double>(feat));
  const core::TuneResult tuned = tune_for(csr, feat, spec, las);
  if (!tuned.error.ok()) {
    // A poisoned probe measurement must not pick the configuration: fall
    // back to the heuristic knobs — job-locally inside a batch job (the
    // engine stays trusted for other jobs), for good otherwise.
    disable_knob(detail::kAutoTune, rt::kSeamTunerProbe, tuned.error, rc);
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(cache_mu_);
  return memo_[rc.fp].tuned.try_emplace({feat, las != nullptr}, tuned.best).first->second;
}

k::GroupedTasks OptimizedEngine::build_tasks(const graph::Csr& csr) const {
  detail::RunContext rc;
  rc.fp = graph::fingerprint(csr);
  return resolve_plan(csr, rc).grouped;
}

std::size_t OptimizedEngine::las_cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  std::size_t n = 0;
  for (const auto& [fp, m] : memo_) n += m.las ? 1 : 0;
  return n;
}

std::size_t OptimizedEngine::tuned_cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  std::size_t n = 0;
  for (const auto& [fp, m] : memo_) n += m.tuned.size();
  return n;
}

std::size_t OptimizedEngine::shard_plan_cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  std::size_t n = 0;
  for (const auto& [fp, m] : memo_) n += m.shard_plans.size();
  return n;
}

namespace {
/// Model tag for the journal key; nullptr when the job names no model.
const char* batch_model_name(const OptimizedEngine::BatchJob& job) {
  if (job.gcn) return "gcn";
  if (job.gat) return "gat";
  if (job.sage_lstm) return "sage_lstm";
  if (job.sage_pool) return "sage_pool";
  if (job.multihead_gat) return "multihead_gat";
  return nullptr;
}
}  // namespace

std::vector<RunResult> OptimizedEngine::run_batch(std::span<const BatchJob> jobs,
                                                  obs::EventJournal* journal) {
  std::vector<RunResult> results(jobs.size());
  if (jobs.empty()) return results;

  // --- Sequential pre-pass: each job's graph is hashed here, once; every
  // attempt of the job reuses the fingerprint, and its journal events are
  // keyed by (model, fingerprint).
  std::vector<std::string> keys(jobs.size());
  std::vector<detail::RunContext> runs(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    runs[i].job = true;
    const char* model = jobs[i].data ? batch_model_name(jobs[i]) : nullptr;
    if (!model) continue;
    const graph::GraphFingerprint fp = graph::fingerprint(jobs[i].data->csr);
    runs[i].fp = fp;
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(fp.checksum));
    keys[i] = std::string(model) + "/" + buf;
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

  // --- Parallel wave. Jobs are independent (model, dataset) configs; each
  // runs its whole pipeline inline on one thread (its nested parallel
  // regions stay serial) under its own fault plan
  // and job-local degradation ladder. Shared memoization is
  // fingerprint-keyed and mutex-guarded, so results land in job order and
  // match a sequential loop exactly; a failing or retrying job never
  // blocks a healthy one.
  const auto run_job = [&](std::size_t i) {
    const BatchJob& job = jobs[i];
    RunResult& out = results[i];
    detail::RunContext& rc = runs[i];
    // Thread-local request ID: every prof::Span opened below (and any
    // nested instrumentation) stamps this ID into its record.
    obs::RequestScope req_scope(req_ids[i]);
    // The job's shard bodies, tuner probes and replays run inline on this
    // thread, which alone sees its fault plan and its listener — also in a
    // batch of one job, whose one-task region runs it outside any region.
    const par::InlineScope inline_scope;
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
    // Per-job fault plan: thread-confined shot counters, so concurrent
    // jobs see deterministic fault schedules (the process-wide plan is
    // suppressed for the job's duration either way). The plan's listener
    // records every shot as a "fault_injected" event of the run.
    const rt::FaultFireListener on_fire = +[](void* ctx, std::string_view seam, int shot) {
      obs::JournalEvent ev;
      ev.type = "fault_injected";
      ev.key = std::string(seam);
      ev.code = rt::status_code_name(rt::StatusCode::kFaultInjected);
      ev.attempt = static_cast<std::uint64_t>(shot) + 1;
      static_cast<std::vector<obs::JournalEvent>*>(ctx)->push_back(std::move(ev));
    };
    rt::FaultInjector::ScopedJobPlan plan(job.fault_plan, on_fire, &rc.events);
    if (!plan.status().ok()) {
      out.status = rt::Status(plan.status().code(), plan.status().message())
                       .with_context("batch job fault plan");
      out.attempts = 0;
      return;
    }
    rc.cache_isolated = !job.fault_plan.empty();
    const int max_attempts = std::max(1, job.max_attempts);
    for (int attempt = 1;; ++attempt) {
      out = run_request(job, rc);
      out.attempts = attempt;
      obs::JournalEvent ev;
      ev.type = "attempt";
      ev.key = keys[i];
      ev.code = rt::status_code_name(out.status.code());
      if (!out.status.ok()) ev.detail = out.status.message();
      ev.attempt = static_cast<std::uint64_t>(attempt);
      ev.cycles = out.stats.total_cycles;
      rc.events.push_back(std::move(ev));
      if (out.status.ok() || !rt::retryable(out.status) || attempt >= max_attempts) break;
    }
  };
  par::parallel_chunks(jobs.size(), /*grain=*/1,
                       [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) run_job(i);
                       });

  // --- Sequential fold in job order: each job's record is published —
  // stderr lines, degradations, journal seq numbers and registry
  // instruments in a deterministic sequence — then its serving counters
  // and outcome land, so every export is byte-identical at any host thread
  // count.
  obs::TelemetryRegistry& reg = prof::MetricsSink::instance().telemetry();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    publish(runs[i], journal, req_ids[i]);
    const RunResult& r = results[i];
    // The pre-pass keyed exactly the jobs that name a dataset and a model:
    // the ones that ran (a malformed fault plan still counts, with 0
    // attempts).
    const bool ran = !keys[i].empty();
    const bool ok = r.status.ok();
    const auto attempts = static_cast<std::uint64_t>(r.attempts);
    reg.counter_add("serve.jobs", 1);
    reg.counter_add("serve.jobs_ok", ok ? 1 : 0);
    reg.counter_add("serve.jobs_failed", ok ? 0 : 1);
    reg.counter_add("serve.attempts", attempts);
    reg.counter_add("serve.retries", attempts > 0 ? attempts - 1 : 0);
    if (journal) {
      obs::JournalEvent ev;
      ev.request_id = req_ids[i];
      ev.type = "outcome";
      ev.key = keys[i];
      ev.code = rt::status_code_name(r.status.code());
      ev.detail = !ran ? "rejected" : ok ? "ok" : "failed";
      ev.attempt = attempts;
      ev.cycles = r.stats.total_cycles;
      journal->append(std::move(ev));
    }
    if (ran) reg.observe("serve.job_attempts", static_cast<double>(attempts));
    if (ok) reg.observe("serve.job_cycles", r.stats.total_cycles);
  }
  reg.observe("serve.batch_jobs", static_cast<double>(jobs.size()));
  return results;
}

RunResult OptimizedEngine::run_request(const BatchJob& job, detail::RunContext& rc) {
  const Dataset& data = *job.data;
  const auto guarded = [&](const models::Matrix* features, std::string_view what, auto&& attempt) {
    return run_guarded(data, job.mode == ExecMode::kFull ? features : nullptr, what, rc, attempt);
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
                  plan.on(detail::kAdapter), l + 1 != run.params->weight.size())
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
    return run_guarded(data, mode == ExecMode::kFull ? &x : nullptr, "train_gcn_step", rc, [&] {
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
                                               l + 1 != layers);
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
                            .name = "relu_backward",
                            .phase = "backward"});
    }
    // Bias gradient.
    auto d_b = ws.mat(ctx, bs_dev[li].rows, 1, "d_b");
    k::col_sum(ctx, {.in = &d_h, .out = &d_b});
    // d_t = A d_pre — the same aggregation kernel, same task schedule.
    auto d_t = ws.mat(ctx, d_h.rows, d_h.cols, "d_t");
    k::spmm_node(ctx, {.graph = &gdev,
                       .tasks = plan.grouped.tasks,
                       .src = &d_h,
                       .edge_weight = &norm,
                       .out = &d_t,
                       .lanes = plan.lanes,
                       .atomic_merge = plan.grouped.any_split,
                       .name = "aggregate_backward",
                       .phase = "backward"});
    // d_W = h^T d_t.
    auto h_t = ws.mat(ctx, hs[li].cols, hs[li].rows, "hT");
    k::dense_transpose(ctx, {.in = &hs[li], .out = &h_t, .phase = "backward"});
    auto d_w = ws.mat(ctx, h_t.rows, d_t.cols, "d_w");
    k::dense_gemm(ctx, {.a = &h_t, .b = &d_t, .c = &d_w, .name = "gemm_dw", .phase = "backward"});
    // d_h_{l} = d_t W^T.
    auto w_t = ws.mat(ctx, ws_dev[li].cols, ws_dev[li].rows, "wT");
    k::dense_transpose(ctx, {.in = &ws_dev[li], .out = &w_t, .phase = "backward"});
    auto d_h_prev = ws.mat(ctx, d_t.rows, w_t.cols, "d_h");
    k::dense_gemm(ctx, {.a = &d_t, .b = &w_t, .c = &d_h_prev, .name = "gemm_dh",
                        .phase = "backward"});

    // SGD update, fused elementwise kernels.
    k::dense_binary(ctx, {.a = &ws_dev[li],
                          .b = &d_w,
                          .out = &ws_dev[li],
                          .fn = [lr](float w, float g) { return w - lr * g; },
                          .flops_per_elem = 2.0,
                          .name = "sgd_w",
                          .phase = "backward"});
    k::dense_binary(ctx, {.a = &bs_dev[li],
                          .b = &d_b,
                          .out = &bs_dev[li],
                          .fn = [lr](float b, float g) { return b - lr * g; },
                          .flops_per_elem = 2.0,
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
                  run.params->att_r[l], run.cfg->leaky_alpha, l + 1 != run.params->weight.size());
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
                     run.params->att_r[h], run.cfg->leaky_alpha, /*relu=*/false);
  };
  return pipeline::finish(ctx, spec, pipeline::multihead_gat(ctx, ws, run, head));
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
                                                plan.grouped.any_split, plan.lanes, run);
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
    k::dense_gemm(ctx, {.a = &x, .b = &w, .c = &xw, .name = "pre_transform",
                        .phase = "transformation"});
  }
  auto x_t = ws.mat(ctx, n, run.cfg->in_feat, "x_t");

  for (int t = 0; t < run.cfg->steps; ++t) {
    switch (cfg_.sage_level) {
      case SageOptLevel::kBase:
        k::step_gather(ctx, {.graph = &gdev, .step = t, .feat = &x, .out = &x_t});
        k::dense_gemm(ctx, {.a = &x_t, .b = &w, .c = &g_in, .phase = "transformation"});
        break;
      case SageOptLevel::kSparseFetch:
        // The gather rides inside the GEMM's loads — no expansion kernel,
        // no [N, F] intermediate; the transformation is still per-step.
        k::sparse_fetch_gemm(ctx, {.feat = &x,
                                   .row_index = steps.index[static_cast<std::size_t>(t)],
                                   .index_buf = steps.buf[static_cast<std::size_t>(t)],
                                   .b = &w,
                                   .c = &g_in,
                                   .phase = "transformation"});
        break;
      case SageOptLevel::kSparseFetchBypass:
        break;  // handled below: fetch pre-transformed rows directly
    }
    k::dense_gemm(ctx, {.a = &hstate, .b = &rmat, .c = &g_rec, .phase = "recurrent"});
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
                              .name = "spfetch_gates_add",
                              .phase = "lstm_cell"});
    } else {
      k::dense_binary(ctx, {.a = &g_in,
                            .b = &g_rec,
                            .out = &gates,
                            .fn = [](float a, float b) { return a + b; },
                            .flops_per_elem = 1.0,
                            .name = "gates_add",
                            .phase = "lstm_cell"});
    }
    k::lstm_pointwise(ctx, {.gates = &gates, .bias = &bias, .c = &cstate, .h = &hstate});
  }
  auto outw = ws.from(ctx, run.params->out_w, "out_w");
  auto out = ws.mat(ctx, n, hidden, "out");
  k::dense_gemm(ctx, {.a = &hstate, .b = &outw, .c = &out, .phase = "projection"});

  return pipeline::finish(ctx, spec, mode == ExecMode::kFull ? *out.host : Matrix());
}

}  // namespace gnnbridge::engine
