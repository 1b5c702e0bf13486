// Per-tenant SLO tracker (DESIGN.md §15).
//
// Tracks two objectives per tenant against the serving path's end-to-end
// sim-cycle latencies: a latency objective (a request is late when its
// end-to-end cycles exceed `latency_objective_cycles`) and a success-rate
// objective (`success_objective`, the fraction of requests per window that
// must finish well and on time). Violations consume the window's error
// budget — the `(1 - success_objective)` fraction of its requests — and
// the burn rate reports how fast: burn 1.0 means the budget is being
// consumed exactly as fast as it accrues, > 1.0 means the tenant is over
// budget and `budget_exhausted` latches for the window.
//
// Windows are deterministic tumbling sim-time windows: a request lands in
// window `floor(arrival_cycles / window_cycles)` (window 0 holds
// everything when `window_cycles` is 0). Window membership is a pure
// function of the request's arrival stamp — never of wall time or the
// host thread count — and all recording happens from the sequential
// job-order folds (engine::run_batch for served requests,
// serve::AdmissionController for rejected ones), so the tracker's state
// and every export derived from it are byte-identical at any thread
// count.
//
// The tracker is inactive by default: the metrics v7 `slo` block is
// always present but empty until `configure()` arms it (the soak CLI's
// --slo-ms flag, or a test). `prof::MetricsSink::clear()` clears this
// tracker too, keeping in-process determinism byte-compares valid.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace gnnbridge::prof {
class JsonWriter;
}

namespace gnnbridge::obs {

/// Objectives shared by every tenant. Cycles, not wall time.
struct SloConfig {
  /// End-to-end sim-cycle latency objective; 0 disables the latency
  /// objective (only failures then violate).
  double latency_objective_cycles = 0.0;
  /// Target good fraction per window; the error budget is the remaining
  /// `1 - success_objective` fraction of the window's requests.
  double success_objective = 0.99;
  /// Tumbling-window width in sim-cycles; 0 = one all-time window.
  double window_cycles = 0.0;
};

/// What one record() did: which objective the request violated, and
/// whether it was the request that pushed its window over budget.
struct SloOutcome {
  bool latency_violation = false;
  bool failure_violation = false;
  bool budget_exhausted_now = false;
  std::uint64_t window_index = 0;
};

/// Snapshot row for one tenant: lifetime totals plus the current
/// (highest-index) window's budget state.
struct TenantSlo {
  std::string tenant;
  std::uint64_t requests = 0;
  std::uint64_t good = 0;
  std::uint64_t latency_violations = 0;
  std::uint64_t failure_violations = 0;
  std::uint64_t windows = 0;            ///< distinct windows that saw traffic
  std::uint64_t window_index = 0;       ///< current (latest) window
  std::uint64_t window_requests = 0;
  std::uint64_t window_violations = 0;
  /// Current-window budget consumption rate: violations divided by the
  /// window's error budget so far ((1 - success_objective) * requests).
  /// With a zero budget (success_objective >= 1), any violation reports
  /// the raw violation count — finite, and >= 1 exactly when exhausted.
  double burn_rate = 0.0;
  bool budget_exhausted = false;        ///< current window over budget
};

struct SloSnapshot {
  bool enabled = false;
  SloConfig config;
  std::vector<TenantSlo> tenants;       ///< lexicographic tenant order
};

/// Process-wide singleton. Thread-safe, but the serving folds only call
/// record() sequentially — that ordering is what makes the
/// `budget_exhausted_now` edge (fired once per window, on the crossing
/// request) deterministic.
class SloTracker {
 public:
  static SloTracker& instance();

  bool enabled() const;
  /// Arms the tracker with the given objectives (and resets nothing:
  /// configure an already-armed tracker to retarget mid-stream).
  void configure(const SloConfig& config);
  void set_enabled(bool on);
  SloConfig config() const;

  /// Scores one finished (or rejected) request. `success` means the
  /// request reached a good final state; a successful request is late
  /// when `e2e_cycles` exceeds the latency objective. Violations are
  /// disjoint: a failed request counts as a failure violation only.
  SloOutcome record(const std::string& tenant, double arrival_cycles, double e2e_cycles,
                    bool success);

  SloSnapshot snapshot() const;

  /// Drops all tenant state and disarms (back to the inactive default).
  void clear();

 private:
  struct Window {
    std::uint64_t requests = 0;
    std::uint64_t violations = 0;
    bool exhausted = false;             ///< latched once signaled
  };
  struct TenantState {
    std::uint64_t requests = 0;
    std::uint64_t good = 0;
    std::uint64_t latency_violations = 0;
    std::uint64_t failure_violations = 0;
    std::map<std::uint64_t, Window> windows;
  };

  SloTracker() = default;
  mutable std::mutex mu_;
  bool enabled_ = false;
  SloConfig cfg_;
  std::map<std::string, TenantState> tenants_;
};

/// Scores one finished (or rejected) request on the process tracker and,
/// when `journal` is set, journals what the score means: one
/// "slo_violation" event for a latency or failure violation
/// (`failure_detail` says how a failed request ended) and one more for the
/// request that exhausted its window's error budget. Both serving folds
/// (run_batch for served requests, serve() for rejected ones) call this in
/// their sequential order. Does nothing while the tracker is disabled.
void score_slo(const std::string& request_id, const std::string& tenant, double arrival_cycles,
               double e2e_cycles, bool success, const std::string& failure_detail,
               std::uint64_t attempts, bool journal);

/// Serializes a snapshot as the metrics schema v7 `slo` block (the value
/// only; the caller writes the key).
void write_slo_json(prof::JsonWriter& w, const SloSnapshot& snap);

}  // namespace gnnbridge::obs
