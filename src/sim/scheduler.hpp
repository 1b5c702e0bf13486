// Thread-block scheduler.
//
// Models the GPU's greedy block dispatcher: blocks launch in order, each
// taking the first block slot that frees up (the device offers
// num_sms * max_blocks_per_sm slots). Produces the kernel makespan, the
// perfectly-balanced lower bound (total work / min(slots, blocks) — the
// "Balanced" bars of Figure 8), and the active-block occupancy timeline
// (Table 4).
#pragma once

#include <span>

#include "sim/device.hpp"
#include "sim/timeline.hpp"

namespace gnnbridge::sim {

/// Outcome of scheduling one kernel's blocks.
struct ScheduleResult {
  /// Wall-clock cycles from first dispatch to last completion.
  Cycles makespan = 0.0;
  /// sum(durations) / min(slots, durations.size()) — the
  /// perfect-load-balance execution time over the occupiable slots.
  Cycles balanced = 0.0;
  /// Active-block count over time.
  Timeline timeline;
};

/// Schedules blocks with the given nonnegative `durations` (in launch
/// order) onto `slots` block slots. Deterministic: a block starts at the
/// earliest time any slot frees up.
ScheduleResult schedule_blocks(std::span<const Cycles> durations, int slots);

}  // namespace gnnbridge::sim
