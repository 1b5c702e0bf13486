#include "core/tuner/tuner.hpp"

#include <cmath>
#include <exception>

#include "par/thread_pool.hpp"
#include "rt/fault.hpp"

namespace gnnbridge::core {

TuneResult tune_graph_op(const Csr& g, const TuneObjective& measure, TuneConfig base) {
  TuneResult result;
  result.best = base;

  // Neutral grouping bound while searching lanes.
  const EdgeId neutral_bound = default_group_bound(g);

  // Candidates within a phase are independent, so their measurements run
  // in parallel (each probe builds its own simulation context). The
  // tuner_probe seam is drawn first, here, in candidate order, so which
  // probe a shot hits never depends on the thread count, even beside a
  // second seam (a probe's sim_launch); the lowest-index failure, drawn or
  // thrown, is rethrown after the region. The results are folded strictly
  // in candidate order — round counting, the first-strictly-lower-wins
  // tie-break and the stop-at-first-bad-probe semantics are all identical
  // to the sequential search.
  auto measure_all = [&](const std::vector<TuneConfig>& cfgs) {
    std::vector<std::exception_ptr> failed(cfgs.size());
    for (std::exception_ptr& f : failed) {
      try {
        // Named after the probe the shot stands in for: the engine's and
        // the benches' objective is engine::measure_aggregation.
        rt::raise_if_armed(rt::kSeamTunerProbe, "measure_aggregation");
      } catch (const rt::StageFailure&) {
        f = std::current_exception();
      }
    }
    std::vector<double> cycles(cfgs.size(), 0.0);
    par::parallel_chunks(cfgs.size(), /*grain=*/1,
                         [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
                           for (std::size_t i = begin; i < end; ++i) {
                             if (failed[i]) continue;
                             try {
                               cycles[i] = measure(cfgs[i]);
                             } catch (...) {
                               failed[i] = std::current_exception();
                             }
                           }
                         });
    for (const std::exception_ptr& f : failed) {
      if (f) std::rethrow_exception(f);
    }
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
  lane_cfgs.reserve(kLaneCandidates.size());
  for (int lanes : kLaneCandidates) {
    TuneConfig cfg = base;
    cfg.lanes = lanes;
    cfg.group_bound = neutral_bound;
    lane_cfgs.push_back(cfg);
  }
  if (!run_phase(lane_cfgs)) return result;
  const int best_lanes = result.best.lanes;

  // Phase 2: grouping bound, best lanes fixed.
  const std::vector<EdgeId> bounds = candidate_group_bounds(g);
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
