// The set-partitioned L2 replay of SimContext::launch against a sequential
// oracle: the same co-residency interleave through one cache, line by
// line, in order. Launches on one context change the replay's range count
// between them (1, 4, 3, 8, 2 host threads), so a set's LRU stamps come
// from different ranges in different launches; the tiny cache forces
// evictions, so a stamp compared in the wrong order changes the counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "par/thread_pool.hpp"
#include "sim/cache.hpp"
#include "sim/context.hpp"
#include "sim/scheduler.hpp"
#include "tensor/rng.hpp"

namespace gnnbridge::sim {
namespace {

/// 4 slots and a 16 KiB, 4-way L2: 64 sets.
DeviceSpec tiny_device(std::int64_t l2_bytes = 16 * 1024) {
  DeviceSpec s;
  s.num_sms = 2;
  s.max_blocks_per_sm = 2;
  s.l2_bytes = l2_bytes;
  s.l2_ways = 4;
  s.line_bytes = 64;
  return s;
}

/// Restores the default host thread count when a test ends.
struct ThreadCountReset {
  ~ThreadCountReset() { par::set_max_threads(0); }
};

/// A kernel of random blocks over `buf`: multi-line, unaligned and
/// zero-byte accesses, blocks without accesses, and a compute and extra
/// cost that differ per block so durations differ too.
Kernel random_kernel(const Buffer& buf, std::uint64_t seed) {
  tensor::Rng rng(seed);
  Kernel k;
  k.name = "random";
  const std::size_t blocks = 1 + rng.below(24);
  for (std::size_t b = 0; b < blocks; ++b) {
    BlockWork blk;
    const std::size_t accesses = rng.below(5) == 0 ? 0 : rng.below(60);
    for (std::size_t a = 0; a < accesses; ++a) {
      const auto bytes = static_cast<std::uint32_t>(rng.below(4) == 0 ? 0 : rng.below(300));
      blk.read(buf, rng.below(buf.bytes - 300), bytes);
    }
    const double f = static_cast<double>(rng.below(4000));
    blk.compute(f, f);
    blk.extra_cycles = static_cast<double>(rng.below(50));
    k.blocks.push_back(std::move(blk));
  }
  return k;
}

/// The sequential oracle: one cache, driven through the co-residency
/// interleave access by access, and launch's cost model on its counts.
class SequentialReplay {
 public:
  explicit SequentialReplay(const DeviceSpec& spec)
      : spec_(spec), l2_(spec.l2_bytes, spec.l2_ways, spec.line_bytes) {}

  KernelStats launch(const Kernel& kernel) {
    const std::size_t n = kernel.blocks.size();
    const auto wave = static_cast<std::size_t>(spec_.total_block_slots());
    std::vector<std::uint64_t> hits(n, 0), misses(n, 0);
    std::vector<std::size_t> cursor(n, 0);
    std::vector<std::size_t> slots;
    std::size_t next_block = 0;
    while (next_block < n && slots.size() < wave) slots.push_back(next_block++);
    while (!slots.empty()) {
      for (std::size_t s = 0; s < slots.size();) {
        const std::size_t b = slots[s];
        const auto& accesses = kernel.blocks[b].accesses;
        for (std::size_t done = 0; cursor[b] < accesses.size() && done < 8; ++done) {
          const Access& a = accesses[cursor[b]++];
          const CacheProbe p = l2_.access(a.addr, a.bytes);
          hits[b] += p.hits;
          misses[b] += p.misses;
        }
        if (cursor[b] < accesses.size()) {
          ++s;
        } else if (next_block < n) {
          slots[s++] = next_block++;
        } else {
          slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(s));
        }
      }
    }

    KernelStats ks;
    const double bw_share =
        std::clamp(static_cast<double>(n) / spec_.total_block_slots(), 1.0 / 8.0, 1.0);
    std::vector<Cycles> durations(n);
    for (std::size_t b = 0; b < n; ++b) {
      const BlockWork& blk = kernel.blocks[b];
      const Cycles memory = (static_cast<double>(hits[b]) * spec_.l2_hit_cycles_per_line +
                             static_cast<double>(misses[b]) * spec_.dram_cycles_per_line) *
                            bw_share;
      durations[b] =
          std::max(blk.issued_flops / spec_.flops_per_cycle_per_block, memory) + blk.extra_cycles;
      ks.l2_hits += hits[b];
      ks.l2_misses += misses[b];
    }
    ScheduleResult sched = schedule_blocks(durations, spec_.total_block_slots());
    const Cycles floor = (static_cast<double>(ks.l2_hits) * spec_.l2_hit_cycles_per_line +
                          static_cast<double>(ks.l2_misses) * spec_.dram_cycles_per_line) /
                         spec_.total_block_slots();
    ks.makespan = std::max(sched.makespan, floor);
    ks.timeline = std::move(sched.timeline);
    return ks;
  }

  void clear_cache() { l2_.clear(); }

 private:
  DeviceSpec spec_;
  SetAssocCache l2_;
};

void expect_same(const KernelStats& got, const KernelStats& want, const std::string& where) {
  EXPECT_EQ(got.l2_hits, want.l2_hits) << where;
  EXPECT_EQ(got.l2_misses, want.l2_misses) << where;
  EXPECT_EQ(got.makespan, want.makespan) << where;
  const auto& gi = got.timeline.intervals();
  const auto& wi = want.timeline.intervals();
  ASSERT_EQ(gi.size(), wi.size()) << where;
  for (std::size_t i = 0; i < gi.size(); ++i) {
    EXPECT_EQ(gi[i].t0, wi[i].t0) << where << " interval " << i;
    EXPECT_EQ(gi[i].t1, wi[i].t1) << where << " interval " << i;
    EXPECT_EQ(gi[i].active, wi[i].active) << where << " interval " << i;
  }
}

TEST(ReplayOracle, MatchesSequentialReplayWhateverTheRangeCount) {
  ThreadCountReset reset;
  const DeviceSpec spec = tiny_device();
  SimContext ctx(spec);
  SequentialReplay oracle(spec);
  // Four times the L2, so the interleave keeps evicting.
  const Buffer buf = ctx.mem().alloc("data", 4 * 16 * 1024);
  std::uint64_t seed = 1;
  std::uint64_t hits = 0;
  const auto launch_both = [&](const std::string& where) {
    Kernel k = random_kernel(buf, seed++);
    const KernelStats want = oracle.launch(k);
    expect_same(ctx.launch(std::move(k)), want, where);
    hits += want.l2_hits;
  };

  for (const int threads : {1, 4, 3, 8, 2}) {
    par::set_max_threads(threads);
    for (int i = 0; i < 3; ++i) launch_both("threads=" + std::to_string(threads));
  }

  // Inside a parallel region the replay runs as one range.
  par::set_max_threads(4);
  par::parallel_chunks(2, /*grain=*/1, [&](std::size_t chunk, std::size_t, std::size_t) {
    if (chunk == 0) launch_both("in a parallel region");
  });

  ctx.clear_cache();
  oracle.clear_cache();
  launch_both("after clear_cache at 4 threads");
  par::set_max_threads(3);
  launch_both("after clear_cache at 3 threads");
  // The inputs reuse lines across and within launches: the LRU order is
  // exercised, not only cold misses.
  EXPECT_GT(hits, 100u);
}

TEST(ReplayOracle, CacheWithFewerSetsThanThreads) {
  ThreadCountReset reset;
  // 1 KiB, 4-way, 64 B lines: 4 sets, fewer than 8 threads.
  const DeviceSpec spec = tiny_device(1024);
  SimContext ctx(spec);
  SequentialReplay oracle(spec);
  const Buffer buf = ctx.mem().alloc("data", 8 * 1024);
  par::set_max_threads(8);
  for (std::uint64_t seed = 100; seed < 104; ++seed) {
    Kernel k = random_kernel(buf, seed);
    const KernelStats want = oracle.launch(k);
    expect_same(ctx.launch(std::move(k)), want, "seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace gnnbridge::sim
