// Edge cases of the performance counters (sim/counters.hpp): the derived
// rates must be well-defined — not NaN/inf — on empty or degenerate runs,
// because the metrics sink serializes them for every bench binary.
#include "sim/counters.hpp"

#include <gtest/gtest.h>

namespace gnnbridge::sim {
namespace {

TEST(KernelStatsTest, HitRateZeroAccessesIsZero) {
  KernelStats k;
  EXPECT_EQ(k.l2_hits, 0u);
  EXPECT_EQ(k.l2_misses, 0u);
  EXPECT_DOUBLE_EQ(k.l2_hit_rate(), 0.0);
  EXPECT_DOUBLE_EQ(k.l2_miss_rate(), 0.0);
}

TEST(KernelStatsTest, HitAndMissRatesSumToOne) {
  KernelStats k;
  k.l2_hits = 30;
  k.l2_misses = 10;
  EXPECT_DOUBLE_EQ(k.l2_hit_rate(), 0.75);
  EXPECT_DOUBLE_EQ(k.l2_miss_rate(), 0.25);
  EXPECT_DOUBLE_EQ(k.l2_hit_rate() + k.l2_miss_rate(), 1.0);
}

TEST(RunStatsTest, EmptyRunHasZeroTotals) {
  RunStats r;
  EXPECT_EQ(r.num_launches(), 0);
  EXPECT_DOUBLE_EQ(r.total_flops(), 0.0);
  EXPECT_EQ(r.total_hits(), 0u);
  EXPECT_EQ(r.total_misses(), 0u);
  EXPECT_DOUBLE_EQ(r.l2_hit_rate(), 0.0);
}

TEST(RunStatsTest, CyclesInUnknownPhaseIsZero) {
  RunStats r;
  KernelStats k;
  k.phase = "expansion";
  k.cycles = 1000.0;
  r.kernels.push_back(k);
  EXPECT_DOUBLE_EQ(r.cycles_in_phase("expansion"), 1000.0);
  EXPECT_DOUBLE_EQ(r.cycles_in_phase("no-such-phase"), 0.0);
  EXPECT_DOUBLE_EQ(r.cycles_in_phase(""), 0.0);
}

TEST(RunStatsTest, GflopsZeroCyclesIsZeroNotInf) {
  RunStats r;
  KernelStats k;
  k.flops = 1e9;
  r.kernels.push_back(k);
  ASSERT_DOUBLE_EQ(r.total_cycles, 0.0);
  const double g = r.gflops(v100());
  EXPECT_DOUBLE_EQ(g, 0.0);
}

TEST(KernelStatsTest, WasteFlopsIsIssuedMinusUseful) {
  KernelStats k;
  k.flops = 100.0;
  k.issued_flops = 160.0;
  EXPECT_DOUBLE_EQ(k.waste_flops(), 60.0);
}

TEST(KernelStatsTest, ImbalanceDegenerateBalancedIsOne) {
  KernelStats k;
  EXPECT_DOUBLE_EQ(k.imbalance(), 1.0);
  k.makespan = 300.0;
  k.balanced = 200.0;
  EXPECT_DOUBLE_EQ(k.imbalance(), 1.5);
}

TEST(RunStatsTest, SyncTrafficTotalsAccumulateAcrossKernels) {
  RunStats r;
  KernelStats a;
  a.atomic_cycles = 10.0;
  a.atomic_bytes = 100;
  a.adapter_cycles = 5.0;
  a.adapter_bytes = 50;
  KernelStats b;
  b.atomic_cycles = 30.0;
  b.atomic_bytes = 300;
  b.adapter_cycles = 15.0;
  b.adapter_bytes = 150;
  r.kernels = {a, b};
  const Costs c = r.costs();
  EXPECT_DOUBLE_EQ(c.atomic_cycles, 40.0);
  EXPECT_EQ(c.atomic_bytes, 400u);
  EXPECT_DOUBLE_EQ(c.adapter_cycles, 20.0);
  EXPECT_EQ(c.adapter_bytes, 200u);
}

// operator+= is the one sum of the cost counters: every field adds, and
// only into itself.
TEST(CostsTest, AddsEveryCounterFieldByField) {
  const auto costs = [](double x) {
    Costs c;
    c.flops = x;
    c.issued_flops = 2 * x;
    c.atomic_cycles = 3 * x;
    c.atomic_bytes = static_cast<std::uint64_t>(4 * x);
    c.adapter_cycles = 5 * x;
    c.adapter_bytes = static_cast<std::uint64_t>(6 * x);
    c.pad_flops = 7 * x;
    c.copy_flops = 8 * x;
    c.tile_flops = 9 * x;
    return c;
  };
  Costs sum = costs(1);
  sum += costs(10);
  const Costs want = costs(11);
  EXPECT_EQ(sum.flops, want.flops);
  EXPECT_EQ(sum.issued_flops, want.issued_flops);
  EXPECT_EQ(sum.atomic_cycles, want.atomic_cycles);
  EXPECT_EQ(sum.atomic_bytes, want.atomic_bytes);
  EXPECT_EQ(sum.adapter_cycles, want.adapter_cycles);
  EXPECT_EQ(sum.adapter_bytes, want.adapter_bytes);
  EXPECT_EQ(sum.pad_flops, want.pad_flops);
  EXPECT_EQ(sum.copy_flops, want.copy_flops);
  EXPECT_EQ(sum.tile_flops, want.tile_flops);
}

TEST(RunStatsTest, RunImbalanceIsMakespanSumOverBalancedSum) {
  RunStats r;
  EXPECT_DOUBLE_EQ(r.imbalance(), 1.0);  // degenerate: no kernels
  KernelStats a;
  a.makespan = 300.0;
  a.balanced = 100.0;
  KernelStats b;
  b.makespan = 100.0;
  b.balanced = 100.0;
  r.kernels = {a, b};
  EXPECT_DOUBLE_EQ(r.imbalance(), 2.0);
}

TEST(RunStatsTest, TotalsAccumulateAcrossKernels) {
  RunStats r;
  KernelStats a;
  a.l2_hits = 10;
  a.l2_misses = 10;
  a.flops = 100.0;
  KernelStats b;
  b.l2_hits = 20;
  b.l2_misses = 0;
  b.flops = 50.0;
  r.kernels = {a, b};
  r.total_cycles = 1.38e9;  // one simulated second on the default clock
  EXPECT_EQ(r.num_launches(), 2);
  EXPECT_EQ(r.total_hits(), 30u);
  EXPECT_EQ(r.total_misses(), 10u);
  EXPECT_DOUBLE_EQ(r.l2_hit_rate(), 0.75);
  EXPECT_DOUBLE_EQ(r.total_flops(), 150.0);
  EXPECT_NEAR(r.gflops(v100()), 150.0 / 1e9, 1e-12);
}

}  // namespace
}  // namespace gnnbridge::sim
