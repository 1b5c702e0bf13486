#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

#include "tensor/rng.hpp"

namespace gnnbridge::sim {
namespace {

/// The sort-based schedule the merged sweep replaced: a min-heap of (free
/// time, slot) over every slot, then all 2n start/end events sorted by
/// time, ends before starts at equal times.
ScheduleResult sorted_sweep_oracle(const std::vector<Cycles>& durations, int slots) {
  ScheduleResult result;
  if (durations.empty() || slots <= 0) return result;
  using Slot = std::pair<Cycles, int>;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> free_at;
  for (int s = 0; s < slots; ++s) free_at.push({0.0, s});
  std::vector<std::pair<Cycles, int>> events;
  Cycles total = 0.0;
  for (const Cycles d : durations) {
    const auto [t, s] = free_at.top();
    free_at.pop();
    events.push_back({t, +1});
    events.push_back({t + d, -1});
    result.makespan = std::max(result.makespan, t + d);
    total += d;
    free_at.push({t + d, s});
  }
  result.balanced =
      total / static_cast<double>(std::min<std::size_t>(static_cast<std::size_t>(slots),
                                                        durations.size()));
  std::sort(events.begin(), events.end());
  int active = 0;
  Cycles prev = 0.0;
  for (const auto& [t, delta] : events) {
    if (t > prev) {
      result.timeline.add_interval(prev, t, active);
      prev = t;
    }
    active += delta;
  }
  return result;
}

TEST(Scheduler, EmptyKernel) {
  const ScheduleResult r = schedule_blocks({}, 8);
  EXPECT_EQ(r.makespan, 0.0);
  EXPECT_EQ(r.balanced, 0.0);
}

TEST(Scheduler, SingleBlock) {
  const std::vector<Cycles> d{100.0};
  const ScheduleResult r = schedule_blocks(d, 4);
  EXPECT_DOUBLE_EQ(r.makespan, 100.0);
  // One block can only ever occupy one slot: the perfect-balance bound is
  // the block itself, not total/slots.
  EXPECT_DOUBLE_EQ(r.balanced, 100.0);
}

TEST(Scheduler, FewerBlocksThanSlotsBoundsOverOccupiableSlots) {
  const std::vector<Cycles> d{30.0, 10.0};
  const ScheduleResult r = schedule_blocks(d, 8);
  EXPECT_DOUBLE_EQ(r.makespan, 30.0);
  EXPECT_DOUBLE_EQ(r.balanced, 20.0);  // 40 / min(8, 2)
  EXPECT_GE(r.makespan, r.balanced);
}

TEST(Scheduler, PerfectPackingEqualsBalanced) {
  const std::vector<Cycles> d(16, 10.0);
  const ScheduleResult r = schedule_blocks(d, 4);
  EXPECT_DOUBLE_EQ(r.makespan, 40.0);
  EXPECT_DOUBLE_EQ(r.balanced, 40.0);
}

TEST(Scheduler, LongTailDominatesMakespan) {
  // One whale, many shrimp: the whale sets the makespan (the paper's
  // long-tail effect, Observation 2).
  std::vector<Cycles> d(31, 1.0);
  d.push_back(1000.0);
  const ScheduleResult r = schedule_blocks(d, 32);
  EXPECT_DOUBLE_EQ(r.makespan, 1000.0);
  EXPECT_NEAR(r.balanced, (31.0 + 1000.0) / 32.0, 1e-9);
  EXPECT_GT(r.makespan, 10.0 * r.balanced);
}

TEST(Scheduler, MakespanNeverBelowBalanced) {
  std::vector<Cycles> d;
  for (int i = 0; i < 100; ++i) d.push_back(static_cast<Cycles>(1 + (i * 37) % 50));
  const ScheduleResult r = schedule_blocks(d, 7);
  EXPECT_GE(r.makespan, r.balanced - 1e-9);
}

TEST(Scheduler, MoreSlotsNeverSlower) {
  std::vector<Cycles> d;
  for (int i = 0; i < 64; ++i) d.push_back(static_cast<Cycles>(1 + (i * 13) % 20));
  const Cycles m4 = schedule_blocks(d, 4).makespan;
  const Cycles m16 = schedule_blocks(d, 16).makespan;
  EXPECT_LE(m16, m4 + 1e-9);
}

TEST(Scheduler, TimelinePeaksAtSlotCount) {
  const std::vector<Cycles> d(64, 10.0);
  const ScheduleResult r = schedule_blocks(d, 8);
  // All 8 slots busy the whole time.
  EXPECT_NEAR(r.timeline.mean_active(), 8.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.timeline.fraction_below(1.0, 8), 0.0);
}

TEST(Scheduler, TailShowsUpInOccupancy) {
  std::vector<Cycles> d(8, 1.0);
  d.push_back(92.0);  // after the 8 shrimp finish, one whale runs alone
  const ScheduleResult r = schedule_blocks(d, 8);
  // Over ~99% of the time fewer than half the slots are active.
  EXPECT_GT(r.timeline.fraction_below(0.5, 8), 0.9);
}

TEST(Scheduler, DeterministicAcrossCalls) {
  std::vector<Cycles> d;
  for (int i = 0; i < 200; ++i) d.push_back(static_cast<Cycles>(1 + (i * 7919) % 97));
  const ScheduleResult a = schedule_blocks(d, 11);
  const ScheduleResult b = schedule_blocks(d, 11);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.timeline.mean_active(), b.timeline.mean_active());
}

TEST(Scheduler, MergedSweepMatchesSortedSweepOracle) {
  // Random duration lists with ties (durations drawn from few values),
  // zero durations, and fewer blocks than slots.
  tensor::Rng rng(2024);
  for (int trial = 0; trial < 20000; ++trial) {
    const int slots = 1 + static_cast<int>(rng.below(12));
    const std::size_t n = rng.below(40);
    const std::uint64_t distinct = 1 + rng.below(trial % 2 == 0 ? 4 : 1000);
    std::vector<Cycles> d(n);
    for (Cycles& x : d) x = static_cast<Cycles>(rng.below(distinct)) * 0.5;
    const ScheduleResult got = schedule_blocks(d, slots);
    const ScheduleResult want = sorted_sweep_oracle(d, slots);
    ASSERT_EQ(got.makespan, want.makespan) << "trial " << trial;
    ASSERT_EQ(got.balanced, want.balanced) << "trial " << trial;
    const auto& gi = got.timeline.intervals();
    const auto& wi = want.timeline.intervals();
    ASSERT_EQ(gi.size(), wi.size()) << "trial " << trial;
    for (std::size_t i = 0; i < gi.size(); ++i) {
      ASSERT_EQ(gi[i].t0, wi[i].t0) << "trial " << trial << " interval " << i;
      ASSERT_EQ(gi[i].t1, wi[i].t1) << "trial " << trial << " interval " << i;
      ASSERT_EQ(gi[i].active, wi[i].active) << "trial " << trial << " interval " << i;
    }
  }
}

TEST(Scheduler, GreedyDispatchOrder) {
  // Two slots; blocks 10, 10, 5: third block starts at t=10 on either
  // slot -> makespan 15.
  const std::vector<Cycles> d{10.0, 10.0, 5.0};
  EXPECT_DOUBLE_EQ(schedule_blocks(d, 2).makespan, 15.0);
}

}  // namespace
}  // namespace gnnbridge::sim
