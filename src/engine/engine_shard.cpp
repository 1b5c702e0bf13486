// Partitioned (multi-shard) execution for the optimized engine
// (DESIGN.md §16).
//
// The graph is split into K edge-cut shards (shard::partition_graph); each
// shard runs on its own simulated device (one SimContext per shard, warm
// L2 across layers) and the shards execute concurrently as host pool jobs.
// A GNN layer becomes three steps:
//
//   Phase A  (parallel)  dense transform of the shard's *owned* rows;
//   Exchange (barrier)   ghost rows of the transformed features are copied
//                        from their owning shard and priced against the
//                        inter-shard link (DeviceSpec::exchange_*);
//   Phase B  (parallel)  aggregation over the shard-local CSR — owned rows
//                        read local + freshly-exchanged ghost rows.
//
// Correctness contract: outputs are bit-identical to the unsharded engine.
// Every kernel here accumulates per output row in within-row CSR edge
// order, the shard-local CSR preserves exactly that order (only column ids
// are remapped), dense ops are row-independent, and the exchange copies
// identical float bytes — so each owned row sees the same additions in the
// same order as the single-device run.
//
// Accounting contract: the merged RunStats advance the clock by the
// *slowest shard* per phase (shards run concurrently) plus the exchange
// cost; per-shard kernel records are appended in shard order, so the
// metrics surface is byte-identical at any host thread count. Shard bodies
// run under a neutral cancel scope — the parent charges the phase makespan
// and checks cancellation at the (deterministic) barriers, keeping
// deadline behaviour independent of how pool workers interleave.
//
// Recovery contract (DESIGN.md §17): each shard is a failure domain. The
// shard_compute seam fires inside one shard's per-layer phase body and the
// shard_exchange seam in the per-layer ghost exchange; decisions are drawn
// on the parent thread in shard order, so the fault schedule is a function
// of the plan alone, never of pool scheduling. A failed shard is
// re-executed in place — phase bodies fully overwrite their outputs from
// inputs the phase never mutates, so a redo is bit-identical to a clean
// run — up to kShardAttemptBudget attempts per shard per phase; the failed
// attempts' cycles stay priced into the clock (wasted work is real work).
// A spent budget raises StageFailure(seam) and the degradation ladder
// falls back to the unsharded pipeline, whose output is bit-identical too.
//
// Scope: GCN and GAT inference. Training, GraphSAGE and multi-head GAT
// run unsharded regardless of the shard count.
#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/balance/neighbor_grouping.hpp"
#include "engine/engine.hpp"
#include "engine/engine_internal.hpp"
#include "kernels/dense.hpp"
#include "models/common.hpp"
#include "par/thread_pool.hpp"
#include "prof/span.hpp"
#include "rt/fault.hpp"
#include "rt/retry.hpp"
#include "shard/partition.hpp"

namespace gnnbridge::engine {

namespace k = gnnbridge::kernels;
namespace pipeline = baselines::pipeline;
using baselines::Matrix;

namespace {

/// Per-shard execution state, persistent across layers (one simulated
/// device each; the L2 stays warm layer to layer, like the unsharded
/// engine's single context).
struct ShardExec {
  ShardExec(const shard::Shard& shard, const sim::DeviceSpec& spec, ExecMode mode)
      : sh(&shard),
        ctx(std::make_unique<sim::SimContext>(
            pipeline::with_overhead(spec, detail::kEngineOverheadCycles))),
        ws(mode) {}

  const shard::Shard* sh = nullptr;
  std::unique_ptr<sim::SimContext> ctx;
  pipeline::Workspace ws;  ///< in the run's mode: host rows exist in kFull only
  k::GraphOnDevice gdev;
  core::GroupedTasks grouped;
  k::FeatureMat norm;  ///< GCN only: local gather of the global edge norm
  k::FeatureMat h;     ///< activations, [num_local, F]
  sim::Cycles last_total = 0.0;
};

/// Runs `body(s)` for every shard concurrently on the host pool. Bodies
/// adopt a neutral cancel scope: they only touch their own shard's
/// SimContext, and the *parent* charges the phase makespan at the barrier
/// (pool workers neither own the caller's deadline scope nor may charge
/// it). Exceptions (e.g. injected sim_launch faults) surface as the
/// lowest shard index's failure, matching a sequential loop.
template <typename Body>
void parallel_shards(std::size_t shard_count, Body&& body) {
  par::parallel_chunks(shard_count, /*grain=*/1,
                       [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
                         rt::AdoptScope neutral{rt::ScopeHandle{}};
                         for (std::size_t s = begin; s < end; ++s) body(s);
                       });
}

// ---- Shard-level recovery (DESIGN.md §17) -----------------------------

/// Attempts one shard phase body (or one exchange) may take before the
/// ladder falls back to unsharded execution: the initial execution plus
/// two retries.
constexpr int kShardAttemptBudget = 3;

/// Prices one failed shard attempt: its cycles are already in the shard's
/// own SimContext (and thus the phase makespan), so they only need to be
/// tagged as recovery waste in the run's stats and the run's tally.
void note_wasted(sim::RunStats& accum, detail::RecoveryTally& tally, sim::Cycles wasted) {
  accum.recovery_wasted_cycles += wasted;
  tally.wasted_cycles += static_cast<double>(wasted);
}

/// Records one granted retry decision (a shard re-execution or an exchange
/// redo) in the run's stats and the run's tally, buffering a "shard_retry"
/// journal event for batch jobs. `attempt` is the 1-based index of the
/// attempt that just failed; `wasted` its priced cycles.
void note_retry(sim::RunStats& accum, detail::RecoveryTally& tally, std::string_view seam,
                std::string what, int attempt, sim::Cycles wasted, bool reexecution) {
  ++accum.shard_retries;
  ++tally.shard_retries;
  if (reexecution) {
    ++accum.shards_reexecuted;
    ++tally.shards_reexecuted;
  }
  if (tally.journal) {
    obs::JournalEvent ev;
    ev.type = "shard_retry";
    ev.key = std::string(seam);
    ev.detail = std::move(what);
    ev.attempt = static_cast<std::uint64_t>(attempt);
    ev.cycles = static_cast<double>(wasted);
    tally.journal->push_back(std::move(ev));
  }
}

/// One parallel phase with shard-level recovery. shard_compute decisions
/// are pre-drawn on the parent in shard order — deterministic at any host
/// thread count — and every body runs regardless (a doomed shard's work is
/// wasted-but-priced, like a real mid-kernel fault). Failed shards are
/// then re-executed sequentially on the parent, in shard order, under a
/// neutral cancel scope (the caller charges the phase makespan at the
/// barrier); bodies fully overwrite their outputs from inputs the phase
/// never mutates, so a redo is bit-identical to a clean run. A
/// non-retryable failure or a spent attempt budget raises StageFailure so
/// the ladder can fall back to unsharded execution.
template <typename Body>
void phase_with_recovery(std::vector<ShardExec>& se, std::size_t layer, const char* phase_name,
                         sim::RunStats& accum, detail::RecoveryTally& tally, Body&& body) {
  const std::size_t nshards = se.size();
  std::vector<std::optional<rt::Status>> fail(nshards);
  std::vector<sim::Cycles> start(nshards);
  for (std::size_t s = 0; s < nshards; ++s) {
    fail[s] = rt::fire_fault(rt::kSeamShardCompute);
    start[s] = se[s].ctx->stats().total_cycles;
  }
  parallel_shards(nshards, body);
  for (std::size_t s = 0; s < nshards; ++s) {
    for (int attempt = 1; fail[s]; ++attempt) {
      const sim::Cycles wasted = se[s].ctx->stats().total_cycles - start[s];
      note_wasted(accum, tally, wasted);
      const std::string what = "layer=" + std::to_string(layer) + " phase=" + phase_name +
                               " shard=" + std::to_string(s);
      if (!rt::retryable(*fail[s]) || attempt >= kShardAttemptBudget) {
        throw rt::StageFailure(
            std::string(rt::kSeamShardCompute),
            std::move(*fail[s]).with_context(what + ": shard attempt budget spent"));
      }
      note_retry(accum, tally, rt::kSeamShardCompute, what, attempt, wasted, /*reexecution=*/true);
      start[s] = se[s].ctx->stats().total_cycles;
      fail[s] = rt::fire_fault(rt::kSeamShardCompute);
      rt::AdoptScope neutral{rt::ScopeHandle{}};
      body(s);
    }
  }
}

/// Shard-local LAS order: the global order filtered to the shard's owned
/// rows (mapped to local ids), with ghost rows appended in ascending order
/// — neighbor_group_tasks requires a full permutation of the local rows.
std::vector<graph::NodeId> local_order(const shard::Partition& p, int s,
                                       const std::vector<graph::NodeId>& owned_local,
                                       const std::vector<graph::NodeId>& global_order) {
  const shard::Shard& sh = p.shards[static_cast<std::size_t>(s)];
  std::vector<graph::NodeId> order;
  order.reserve(static_cast<std::size_t>(sh.local.num_nodes));
  for (const graph::NodeId v : global_order) {
    if (p.assign[static_cast<std::size_t>(v)] == s) {
      order.push_back(owned_local[static_cast<std::size_t>(v)]);
    }
  }
  for (graph::NodeId g = sh.num_owned(); g < sh.local.num_nodes; ++g) order.push_back(g);
  return order;
}

/// Drops the zero-size tasks neighbor grouping emits for ghost rows:
/// ghosts are read, never aggregated, so their epilogue writes would be
/// pure overhead the unsharded run does not pay. Owned zero-degree rows
/// keep their (zero-size) tasks — the unsharded task list has them too.
void drop_ghost_tasks(core::GroupedTasks& grouped, graph::NodeId num_owned) {
  grouped.tasks.erase(std::remove_if(grouped.tasks.begin(), grouped.tasks.end(),
                                     [num_owned](const k::Task& t) { return t.v >= num_owned; }),
                      grouped.tasks.end());
}

/// A FeatureMat view restricted to the first `rows` rows of `m` (same
/// buffer, same host matrix). Kernels size their traces from the view;
/// host math that consumes the backing Matrix wholesale (dense_gemm) still
/// sees every row, which is exactly what the transform wants: the sim
/// prices owned rows only, while ghost rows of the host product are
/// computed as a side effect and then overwritten by the exchange.
k::FeatureMat top_rows(const k::FeatureMat& m, tensor::Index rows) {
  k::FeatureMat v = m;
  v.rows = rows;
  return v;
}

/// Ghost-exchange pricing for one layer: every shard pulls its ghost rows
/// (`row_bytes` each) from the owners over the inter-shard link, then all
/// shards rendezvous once.
sim::Cycles exchange_cost(const sim::DeviceSpec& spec, std::uint64_t ghost_rows,
                          std::uint64_t row_bytes) {
  const auto line = static_cast<std::uint64_t>(spec.line_bytes);
  const std::uint64_t lines_per_row = line > 0 ? (row_bytes + line - 1) / line : 0;
  return spec.exchange_sync_cycles +
         static_cast<double>(ghost_rows * lines_per_row) * spec.exchange_cycles_per_line;
}

/// Copies each shard's ghost rows of the per-shard matrices `mats` from
/// the owning shard's owned rows (host values; kFull only — traces are
/// value-independent).
void exchange_ghosts(const shard::Partition& p, std::vector<k::FeatureMat>& mats) {
  for (std::size_t s = 0; s < p.shards.size(); ++s) {
    const shard::Shard& sh = p.shards[s];
    const graph::NodeId own = sh.num_owned();
    for (std::size_t gi = 0; gi < sh.ghosts.size(); ++gi) {
      const auto owner = static_cast<std::size_t>(sh.ghost_owner[gi]);
      const auto src = mats[owner].host->row(sh.ghost_owner_row[gi]);
      auto dst = mats[s].host->row(own + static_cast<graph::NodeId>(gi));
      std::copy(src.begin(), src.end(), dst.begin());
    }
  }
}

/// One layer's ghost exchange with recovery. The shard_exchange seam fires
/// on the parent (the exchange is a barrier; the parent owns it); a failed
/// attempt prices a full exchange — the rendezvous happened and the
/// payload moved before it was found torn — and the copy is withheld until
/// an attempt succeeds (the copies themselves are idempotent either way).
/// Budget exhaustion raises StageFailure(shard_exchange) for the ladder.
void exchange_with_recovery(const shard::Partition& p, std::vector<k::FeatureMat>& mats,
                            bool full, const sim::DeviceSpec& spec, std::uint64_t row_bytes,
                            std::size_t layer, sim::RunStats& accum, detail::RecoveryTally& tally,
                            sim::Cycles& total) {
  const auto ghost_rows = static_cast<std::uint64_t>(p.total_ghosts);
  const sim::Cycles xcyc = exchange_cost(spec, ghost_rows, row_bytes);
  for (int attempt = 1;; ++attempt) {
    std::optional<rt::Status> fault = rt::fire_fault(rt::kSeamShardExchange);
    total += xcyc;
    accum.exchange_cycles += xcyc;
    accum.exchange_syncs += 1;
    accum.ghost_bytes += ghost_rows * row_bytes;
    rt::charge_sim_cycles(xcyc);
    if (!fault) break;
    note_wasted(accum, tally, xcyc);
    const std::string what = "layer=" + std::to_string(layer) + " exchange";
    if (!rt::retryable(*fault) || attempt >= kShardAttemptBudget) {
      throw rt::StageFailure(std::string(rt::kSeamShardExchange),
                             std::move(*fault).with_context(what + ": exchange retry budget spent"));
    }
    note_retry(accum, tally, rt::kSeamShardExchange, what, attempt, xcyc, /*reexecution=*/false);
  }
  if (full) exchange_ghosts(p, mats);
}

/// Per-shard device/task setup shared by GCN and GAT: context, local CSR,
/// task list (the plan's grouping bound + LAS order restricted to the
/// shard, ghost tasks dropped), and the initial activations. In kFull the
/// input features are copied to the owned rows and replicated to the ghost
/// rows (so layer 0 needs no extra exchange for them); trace-only runs
/// have no host rows to fill.
std::vector<ShardExec> init_shards(const shard::Partition& p, const detail::AttemptPlan& plan,
                                   const sim::DeviceSpec& spec, const Matrix& x, ExecMode mode) {
  // Owned-local row of every global node (the owned lists partition the
  // node set, so one vector serves all shards).
  std::vector<graph::NodeId> owned_local(p.assign.size(), 0);
  for (const shard::Shard& sh : p.shards) {
    for (std::size_t r = 0; r < sh.owned.size(); ++r) {
      owned_local[static_cast<std::size_t>(sh.owned[r])] = static_cast<graph::NodeId>(r);
    }
  }
  std::vector<ShardExec> shards;
  shards.reserve(p.shards.size());
  for (std::size_t s = 0; s < p.shards.size(); ++s) {
    const shard::Shard& sh = p.shards[s];
    ShardExec& se = shards.emplace_back(sh, spec, mode);
    se.gdev = k::device_graph(*se.ctx, sh.local, "csr");
    if (plan.las) {
      const std::vector<graph::NodeId> order =
          local_order(p, static_cast<int>(s), owned_local, *plan.las);
      se.grouped = core::neighbor_group_tasks(sh.local, plan.bound, order);
    } else {
      se.grouped = core::neighbor_group_tasks(sh.local, plan.bound);
    }
    drop_ghost_tasks(se.grouped, sh.num_owned());
    se.h = se.ws.mat(*se.ctx, sh.local.num_nodes, x.cols(), "x");
    if (mode != ExecMode::kFull) continue;
    for (graph::NodeId r = 0; r < sh.num_owned(); ++r) {
      const auto src = x.row(sh.owned[static_cast<std::size_t>(r)]);
      auto dst = se.h.host->row(r);
      std::copy(src.begin(), src.end(), dst.begin());
    }
    for (std::size_t gi = 0; gi < sh.ghosts.size(); ++gi) {
      const auto src = x.row(sh.ghosts[gi]);
      auto dst = se.h.host->row(sh.num_owned() + static_cast<graph::NodeId>(gi));
      std::copy(src.begin(), src.end(), dst.begin());
    }
  }
  return shards;
}

/// Gathers the owned rows of every shard's final activations back into
/// global row order.
Matrix gather_output(const std::vector<ShardExec>& shards, graph::NodeId num_nodes) {
  Matrix out(num_nodes, shards[0].h.cols);
  for (const ShardExec& se : shards) {
    const shard::Shard& sh = *se.sh;
    for (graph::NodeId r = 0; r < sh.num_owned(); ++r) {
      const auto src = se.h.host->row(r);
      auto dst = out.row(sh.owned[static_cast<std::size_t>(r)]);
      std::copy(src.begin(), src.end(), dst.begin());
    }
  }
  return out;
}

/// Merges per-shard counters into the final run stats: kernel records
/// append in shard order (deterministic at any thread count), sync counts
/// add, exchange rendezvous count as global syncs, and the clock is the
/// phase-makespan sum accumulated by the caller.
RunResult merge_shards(std::vector<ShardExec>& shards, const sim::DeviceSpec& spec,
                       sim::RunStats accum, sim::Cycles total, Matrix output) {
  for (const ShardExec& se : shards) {
    const sim::RunStats& st = se.ctx->stats();
    accum.kernels.insert(accum.kernels.end(), st.kernels.begin(), st.kernels.end());
    accum.global_syncs += st.global_syncs;
  }
  accum.global_syncs += accum.exchange_syncs;
  accum.total_cycles = total;
  accum.shards = static_cast<int>(shards.size());
  RunResult r;
  r.stats = std::move(accum);
  r.ms = spec.millis(r.stats.total_cycles);
  r.output = std::move(output);
  return r;
}

/// Ends one parallel phase at its barrier. The shards ran concurrently, so
/// the merged clock and the run's deadline advance by the phase makespan:
/// the most cycles any shard accrued since the last barrier. Then
/// cancellation is checked.
void end_phase(std::vector<ShardExec>& shards, sim::Cycles& total, const std::string& where) {
  sim::Cycles span = 0.0;
  for (ShardExec& se : shards) {
    const sim::Cycles cur = se.ctx->stats().total_cycles;
    span = std::max(span, cur - se.last_total);
    se.last_total = cur;
  }
  total += span;
  rt::charge_sim_cycles(span);
  rt::throw_if_cancelled(where);
}

/// The layer loop both sharded models share. Per layer, `alloc(s, l)`
/// returns shard s's buffers, allocated on the parent thread in the
/// model's own order (SimContext/Workspace are single-threaded; only
/// kernel launches run inside the parallel phases). Phase A transforms the
/// owned rows through `.w` into `.t`, the exchange ships `.t`'s ghost
/// rows, and `aggregate(s, buffers, last)` is phase B, writing `.out` —
/// the next layer's input.
template <typename Alloc, typename Aggregate>
RunResult sharded_layers(std::vector<ShardExec>& se, const shard::Partition& p,
                         std::size_t layers, ExecMode mode, const sim::DeviceSpec& spec,
                         detail::RecoveryTally& tally, const std::string& name, Alloc&& alloc,
                         Aggregate&& aggregate) {
  const bool full = mode == ExecMode::kFull;
  sim::RunStats accum;
  sim::Cycles total = 0.0;
  for (std::size_t l = 0; l < layers; ++l) {
    std::vector<decltype(alloc(std::size_t{0}, l))> buf;
    for (std::size_t s = 0; s < se.size(); ++s) buf.push_back(alloc(s, l));

    // ---- Phase A: transform the owned rows. The gemm's A and C are
    // owned-row views: each device transforms only the nodes it owns;
    // ghost rows of the transformed features arrive via the exchange.
    phase_with_recovery(se, l, "transform", accum, tally, [&](std::size_t s) {
      k::FeatureMat hview = top_rows(se[s].h, se[s].sh->num_owned());
      k::FeatureMat tview = top_rows(buf[s].t, se[s].sh->num_owned());
      k::dense_gemm(*se[s].ctx, {.a = &hview, .b = &buf[s].w, .c = &tview, .mode = mode});
    });
    end_phase(se, total, name + " transform");

    // ---- Exchange: ghost rows of the transformed features (views share
    // the host matrices, so the copy lands in each shard's `.t`).
    std::vector<k::FeatureMat> tloc;
    for (const auto& b : buf) tloc.push_back(b.t);
    const auto row_bytes = static_cast<std::uint64_t>(buf[0].t.cols) * 4;
    exchange_with_recovery(p, tloc, full, spec, row_bytes, l, accum, tally, total);
    rt::throw_if_cancelled(name + " exchange");

    // ---- Phase B: the model's layer body over the shard-local graph.
    const bool last = l + 1 == layers;
    phase_with_recovery(se, l, "aggregate", accum, tally,
                        [&](std::size_t s) { aggregate(s, buf[s], last); });
    end_phase(se, total, name + " aggregate");

    for (std::size_t s = 0; s < se.size(); ++s) se[s].h = buf[s].out;
  }
  const auto num_nodes = static_cast<graph::NodeId>(p.assign.size());
  return merge_shards(se, spec, std::move(accum), total,
                      full ? gather_output(se, num_nodes) : Matrix());
}

}  // namespace

std::shared_ptr<const shard::Partition> OptimizedEngine::shard_plan_for(
    const graph::Csr& csr, int k, const detail::RunContext& rc) const {
  const ShardPlanKey key{rc.fp, k};
  // Cache-isolated jobs (any job with a fault plan) skip the warm-hit
  // shortcut: an armed shard_partition seam must fire on *this* attempt's
  // partition instead of being absorbed by a neighbor's memoized plan. A
  // fault-injected partition is never cached — the seam raises below,
  // before the insert — so the cache only ever holds clean plans.
  if (!rc.cache_isolated) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = shard_cache_.find(key);
    if (it != shard_cache_.end()) return it->second;
  }
  // Compute outside the lock (mirrors las_order): the partition is a
  // pure function of (graph, k), so concurrent misses compute identical
  // plans and the first insert wins.
  prof::Span span("shard_partition", "engine");
  rt::raise_if_armed(rt::kSeamShardPartition, "shard_plan_for");
  shard::PartitionConfig pcfg;
  pcfg.shards = k;
  rt::Result<shard::Partition> part = shard::partition_graph(csr, pcfg);
  if (!part.ok()) {
    throw rt::StageFailure(std::string(rt::kSeamShardPartition),
                           rt::Status(part.status()).with_context("shard_plan_for"));
  }
  span.arg("shards", static_cast<double>(part->k));
  span.arg("cut_edges", static_cast<double>(part->cut_edges));
  span.arg("ghosts", static_cast<double>(part->total_ghosts));
  auto plan = std::make_shared<const shard::Partition>(*std::move(part));
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto [it, inserted] = shard_cache_.try_emplace(key, std::move(plan));
  return it->second;
}

std::size_t OptimizedEngine::shard_plan_cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return shard_cache_.size();
}

RunResult OptimizedEngine::gcn_attempt_sharded(const Dataset& data, const GcnRun& run,
                                               ExecMode mode, const sim::DeviceSpec& spec,
                                               const detail::AttemptPlan& plan,
                                               detail::RunContext& rc) {
  prof::Span span("OptimizedEngine::run_gcn_sharded", "engine");
  span.arg("shards", static_cast<double>(plan.shards));
  const std::shared_ptr<const shard::Partition> part = shard_plan_for(data.csr, plan.shards, rc);
  std::vector<ShardExec> se = init_shards(*part, plan, spec, *run.features, mode);
  // The GCN edge norm uses *global* degrees; gather it through the local
  // edge -> global edge map so every local edge carries the exact float the
  // unsharded run multiplies with.
  const std::vector<float> norm_global = models::gcn_edge_norm(data.csr);
  for (ShardExec& x : se) {
    std::vector<float> norm_loc(x.sh->edge_origin.size());
    for (std::size_t i = 0; i < norm_loc.size(); ++i) {
      norm_loc[i] = norm_global[static_cast<std::size_t>(x.sh->edge_origin[i])];
    }
    x.norm = x.ws.from_vec(*x.ctx, norm_loc, "gcn_norm");
  }

  const auto alloc = [&](std::size_t s, std::size_t l) {
    return pipeline::gcn_layer_buffers(*se[s].ctx, se[s].ws, se[s].sh->local.num_nodes,
                                       run.params->weight[l], run.params->bias[l]);
  };
  const auto aggregate = [&](std::size_t s, pipeline::GcnLayer& layer, bool last) {
    pipeline::gcn_aggregate(*se[s].ctx, {.graph = &se[s].gdev,
                                         .tasks = se[s].grouped.tasks,
                                         .any_split = se[s].grouped.any_split,
                                         .norm = &se[s].norm,
                                         .layer = &layer,
                                         .fused = plan.on(detail::kAdapter),
                                         .relu = !last,
                                         .lanes = plan.lanes,
                                         .mode = mode});
  };
  return sharded_layers(se, *part, run.params->weight.size(), mode, spec, rc.recovery,
                        "sharded gcn", alloc, aggregate);
}

RunResult OptimizedEngine::gat_attempt_sharded(const Dataset& data, const GatRun& run,
                                               ExecMode mode, const sim::DeviceSpec& spec,
                                               const detail::AttemptPlan& plan,
                                               detail::RunContext& rc) {
  prof::Span span("OptimizedEngine::run_gat_sharded", "engine");
  span.arg("shards", static_cast<double>(plan.shards));
  const std::shared_ptr<const shard::Partition> part = shard_plan_for(data.csr, plan.shards, rc);
  std::vector<ShardExec> se = init_shards(*part, plan, spec, *run.features, mode);

  // The per-node attention scalars are recomputed locally over ghost rows
  // (gat_graph_ops' row_dot runs on all local rows): row_dot is
  // row-independent, so the replicated compute is bit-identical to the
  // owner's — and the exchange ships one F-float row per ghost instead of
  // F + 2 scalars.
  const pipeline::GatGraphOps ops = detail::gat_graph_ops_for(plan);
  const auto alloc = [&](std::size_t s, std::size_t l) {
    const shard::Shard& sh = *se[s].sh;
    return pipeline::gat_layer_buffers(*se[s].ctx, se[s].ws, sh.local.num_nodes,
                                       static_cast<models::Index>(sh.local.num_edges()),
                                       run.params->weight[l], run.params->att_l[l],
                                       run.params->att_r[l], ops);
  };
  const auto aggregate = [&](std::size_t s, pipeline::GatLayer& layer, bool last) {
    pipeline::gat_graph_ops(*se[s].ctx, ops,
                            {.graph = &se[s].gdev,
                             .tasks = se[s].grouped.tasks,
                             .any_split = se[s].grouped.any_split,
                             .layer = &layer,
                             .leaky_alpha = run.cfg->leaky_alpha,
                             .relu = !last,
                             .lanes = plan.lanes,
                             .mode = mode});
  };
  return sharded_layers(se, *part, run.params->weight.size(), mode, spec, rc.recovery,
                        "sharded gat", alloc, aggregate);
}

}  // namespace gnnbridge::engine
