#include "sim/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <queue>
#include <vector>

namespace gnnbridge::sim {

ScheduleResult schedule_blocks(std::span<const Cycles> durations, int slots) {
  ScheduleResult result;
  if (durations.empty() || slots <= 0) return result;

  // Min-heap of slot free times. Only the times matter, never which slot
  // holds them, and a kernel occupies at most one slot per block.
  const std::size_t n = durations.size();
  const std::size_t active_slots = std::min(static_cast<std::size_t>(slots), n);
  std::priority_queue<Cycles, std::vector<Cycles>, std::greater<>> free_at;
  for (std::size_t s = 0; s < active_slots; ++s) free_at.push(0.0);

  // Every pushed free time is at least the time just popped, so the pops
  // come out in nondecreasing order: the first n are the block start times,
  // and after the initial zeros every pop (draining the heap at the end) is
  // a block end time, so those are the end times sorted.
  std::vector<Cycles> popped;
  popped.reserve(n + active_slots);
  Cycles total = 0.0;
  for (const Cycles d : durations) {
    assert(d >= 0.0 && "block durations are nonnegative");
    const Cycles t = free_at.top();
    free_at.pop();
    popped.push_back(t);
    total += d;
    free_at.push(t + d);
  }
  while (!free_at.empty()) {
    popped.push_back(free_at.top());
    free_at.pop();
  }
  const std::span<const Cycles> starts(popped.data(), n);
  const std::span<const Cycles> ends(popped.data() + active_slots, n);
  result.makespan = ends.back();
  // Perfect-balance lower bound over the slots the kernel can actually
  // occupy: a launch with fewer blocks than slots cannot spread its work
  // over idle slots, so dividing by all `slots` would understate the bound
  // (and overstate Figure 8's imbalance headroom).
  result.balanced = total / static_cast<double>(active_slots);

  // Sweep the merged start/end times into piecewise-constant occupancy
  // intervals. Ends go before starts at equal times so back-to-back blocks
  // on one slot do not double-count.
  int active = 0;
  Cycles prev = 0.0;
  std::size_t i = 0, j = 0;
  while (i < n || j < n) {
    const bool end = i == n || (j < n && ends[j] <= starts[i]);
    const Cycles t = end ? ends[j++] : starts[i++];
    if (t > prev) {
      result.timeline.add_interval(prev, t, active);
      prev = t;
    }
    active += end ? -1 : 1;
  }
  return result;
}

}  // namespace gnnbridge::sim
