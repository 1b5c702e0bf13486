#include "core/tuner/tuner.hpp"

#include <algorithm>
#include <cmath>

#include "par/thread_pool.hpp"

namespace gnnbridge::core {

TuneResult tune_graph_op(const Csr& g, const TuneObjective& measure, TuneConfig base,
                         const TunerOptions& options) {
  TuneResult result;
  result.best = base;

  // Neutral grouping bound while searching lanes: the average degree
  // rounded up to a multiple of 16.
  const double avg = g.num_nodes > 0
                         ? static_cast<double>(g.num_edges()) / static_cast<double>(g.num_nodes)
                         : 0.0;
  const EdgeId neutral_bound = std::max<EdgeId>(16, (static_cast<EdgeId>(avg) + 15) / 16 * 16);

  // Candidates within a phase are independent, so their measurements run
  // in parallel (each probe builds its own simulation context). The
  // results are then folded strictly in candidate order — round counting,
  // the first-strictly-lower-wins tie-break and the stop-at-first-bad-
  // probe semantics are all identical to the sequential search.
  auto measure_all = [&](const std::vector<TuneConfig>& cfgs) {
    std::vector<double> cycles(cfgs.size(), 0.0);
    par::parallel_chunks(cfgs.size(), /*grain=*/1,
                         [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
                           for (std::size_t i = begin; i < end; ++i) cycles[i] = measure(cfgs[i]);
                         });
    return cycles;
  };

  // Folds one measured probe. Returns false when the measurement is
  // unusable (non-finite or negative); the search stops there and reports
  // through result.error so a broken objective cannot poison the chosen
  // configuration.
  auto fold = [&](const TuneConfig& cfg, double cycles) {
    ++result.rounds;
    if (!std::isfinite(cycles) || cycles < 0.0) {
      result.error =
          rt::Status(rt::StatusCode::kUnavailable,
                     "probe measurement came back " +
                         (std::isfinite(cycles) ? std::to_string(cycles) : "non-finite") +
                         " cycles at round " + std::to_string(result.rounds))
              .with_context("tune_graph_op");
      return false;
    }
    result.history.push_back({cfg, cycles});
    if (result.best_cycles == 0.0 || cycles < result.best_cycles) {
      result.best_cycles = cycles;
      result.best = cfg;
    }
    return true;
  };

  auto run_phase = [&](const std::vector<TuneConfig>& cfgs) {
    const std::vector<double> cycles = measure_all(cfgs);
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      if (!fold(cfgs[i], cycles[i])) return false;
    }
    return true;
  };

  // Phase 1: thread mapping.
  std::vector<TuneConfig> lane_cfgs;
  lane_cfgs.reserve(options.lane_candidates.size());
  for (int lanes : options.lane_candidates) {
    TuneConfig cfg = base;
    cfg.lanes = lanes;
    cfg.group_bound = neutral_bound;
    lane_cfgs.push_back(cfg);
  }
  if (!run_phase(lane_cfgs)) return result;
  const int best_lanes = result.best.lanes;

  // Phase 2: grouping bound, best lanes fixed.
  const std::vector<EdgeId> bounds = candidate_group_bounds(g, options.max_bound_rounds);
  std::vector<TuneConfig> bound_cfgs;
  bound_cfgs.reserve(bounds.size() + 1);
  for (EdgeId bound : bounds) {
    if (bound == neutral_bound) continue;  // already measured
    TuneConfig cfg = base;
    cfg.lanes = best_lanes;
    cfg.group_bound = bound;
    bound_cfgs.push_back(cfg);
  }
  // Also consider no grouping at all.
  TuneConfig ungrouped = base;
  ungrouped.lanes = best_lanes;
  ungrouped.group_bound = 0;
  bound_cfgs.push_back(ungrouped);
  if (!run_phase(bound_cfgs)) return result;

  // Phase 3: try the winner without the offline schedule — on graphs whose
  // natural order is already clustered (or whose hubs cluster badly), the
  // reorder can lose (paper: protein/ddi in Figure 9). Depends on the
  // phase-2 winner, so it cannot overlap the earlier phases.
  if (!base.use_las) return result;
  TuneConfig toggled = result.best;
  toggled.use_las = false;
  if (!run_phase({toggled})) return result;

  return result;
}

}  // namespace gnnbridge::core
