// Empirical tuner (paper §4.4).
//
// Chooses the running configuration — SIMD lanes per feature row (the
// thread mapping) and the neighbor-grouping bound — for a given graph and
// feature length. The search mirrors the paper's strategy: first exhaust
// GPU resources by adjusting the thread mapping, then sweep the grouping
// bound (multiples of 16 up to 10x the average degree, at most 20 rounds).
// Measurement is delegated to an objective callback so the tuner can run
// against the simulator on a sampled subset of tasks (the paper's
// "less than half an epoch" online overhead).
#pragma once

#include <functional>
#include <vector>

#include "core/balance/neighbor_grouping.hpp"
#include "rt/status.hpp"

namespace gnnbridge::core {

/// A runnable configuration for graph-operation kernels.
struct TuneConfig {
  /// SIMD lanes mapped to each feature row.
  int lanes = 32;
  /// Neighbor-grouping bound; 0 disables grouping.
  EdgeId group_bound = 0;
  /// Whether the offline locality-aware schedule is applied.
  bool use_las = false;
};

/// Search options.
struct TunerOptions {
  std::vector<int> lane_candidates = {4, 8, 16, 32, 64};
  /// Cap on grouping-bound rounds (paper: never exceeded 20).
  int max_bound_rounds = 20;
};

/// A (configuration, measured cost) sample.
struct TuneSample {
  TuneConfig config;
  double cycles = 0.0;
};

/// Search outcome.
struct TuneResult {
  TuneConfig best;
  double best_cycles = 0.0;
  int rounds = 0;
  std::vector<TuneSample> history;
  /// Non-ok when the search aborted — e.g. a probe measurement came back
  /// non-finite or negative (broken or fault-injected objective). `best`
  /// then holds the last good candidate, or `base` if no probe succeeded;
  /// callers should fall back to their heuristic configuration.
  rt::Status error;
};

/// Cost callback: simulated cycles of the kernel(s) under `config`. It
/// must be pure and thread-safe: tune_graph_op measures the candidates of
/// one phase in parallel, in no fixed order, so an objective that keeps
/// state across calls (a call counter, say) races and sees a thread-
/// dependent sequence. Key any deliberate behaviour on the candidate.
using TuneObjective = std::function<double(const TuneConfig&)>;

/// One-factor-at-a-time search: lanes first (with grouping at the graph's
/// average degree rounded to 16 as a neutral setting), then the grouping
/// bound, keeping the best lanes. `base.use_las` is passed through to
/// every candidate; when it is set, a last probe tries the winner without
/// LAS. A base without LAS is never toggled on: the caller has no LAS
/// order to run it with.
TuneResult tune_graph_op(const Csr& g, const TuneObjective& measure, TuneConfig base = {},
                         const TunerOptions& options = {});

}  // namespace gnnbridge::core
