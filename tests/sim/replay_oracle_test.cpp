// The set-partitioned L2 replay of SimContext::launch against a sequential
// oracle: the same co-residency interleave through one stamp-based
// reference LRU (tests/testing/stamp_lru.hpp), line by line, in order.
// Launches on one context change the replay's range count between them
// (1, 4, 3, 8, 2 host threads), so a set's recency ranks are updated by
// different ranges in different launches; the tiny cache forces
// evictions, so a rank carried over wrongly changes the counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "par/thread_pool.hpp"
#include "sim/context.hpp"
#include "sim/scheduler.hpp"
#include "tensor/rng.hpp"
#include "tests/testing/stamp_lru.hpp"

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

/// One block of a test kernel: its accesses as (offset in the buffer,
/// bytes) in program order, and its costs.
struct TestBlock {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> accesses;
  double flops = 0.0;
  double extra_cycles = 0.0;
};

/// Random blocks over `buf`: multi-line, unaligned and zero-byte accesses,
/// blocks without accesses, and a compute and extra cost that differ per
/// block so durations differ too.
std::vector<TestBlock> random_blocks(const Buffer& buf, std::uint64_t seed) {
  tensor::Rng rng(seed);
  std::vector<TestBlock> blocks(1 + rng.below(24));
  for (TestBlock& blk : blocks) {
    const std::size_t accesses = rng.below(5) == 0 ? 0 : rng.below(60);
    for (std::size_t a = 0; a < accesses; ++a) {
      const std::uint64_t bytes = rng.below(4) == 0 ? 0 : rng.below(300);
      blk.accesses.emplace_back(rng.below(buf.bytes - 300), bytes);
    }
    blk.flops = static_cast<double>(rng.below(4000));
    blk.extra_cycles = static_cast<double>(rng.below(50));
  }
  return blocks;
}

/// The kernel under test: `blocks` over `buf`, built through the kernel
/// builder in chunks of 4 blocks, so several pool tasks emit at once.
Kernel build(const SimContext& ctx, const Buffer& buf, const std::vector<TestBlock>& blocks) {
  return build_kernel(
      "random", "", ctx.spec().total_block_slots(),
      par::aligned_chunk_bounds(blocks.size(), 4, [](std::size_t) { return false; }),
      [&](std::size_t b) { return blocks[b].accesses.size(); },
      [&](std::size_t b, BlockWork& blk) {
        for (const auto& [offset, bytes] : blocks[b].accesses) blk.read(buf, offset, bytes);
        blk.compute(blocks[b].flops, blocks[b].flops);
        blk.extra_cycles = blocks[b].extra_cycles;
      });
}

/// The sequential oracle: one reference LRU, driven through the
/// co-residency interleave access by access and line by line, and launch's
/// cost model on its counts.
class SequentialReplay {
 public:
  explicit SequentialReplay(const DeviceSpec& spec)
      : spec_(spec), l2_(spec.l2_bytes, spec.l2_ways, spec.line_bytes) {}

  KernelStats launch(const Buffer& buf, const std::vector<TestBlock>& blocks) {
    const std::size_t n = blocks.size();
    const auto wave = static_cast<std::size_t>(spec_.total_block_slots());
    std::vector<std::uint64_t> hits(n, 0), misses(n, 0);
    std::vector<std::size_t> cursor(n, 0);
    std::vector<std::size_t> slots;
    const auto line_bytes = static_cast<std::uint64_t>(spec_.line_bytes);
    std::size_t next_block = 0;
    while (next_block < n && slots.size() < wave) slots.push_back(next_block++);
    while (!slots.empty()) {
      for (std::size_t s = 0; s < slots.size();) {
        const std::size_t b = slots[s];
        const auto& accesses = blocks[b].accesses;
        for (std::size_t done = 0; cursor[b] < accesses.size() && done < 8; ++done) {
          const auto [offset, bytes] = accesses[cursor[b]++];
          if (bytes == 0) continue;
          const std::uint64_t addr = buf.base + offset;
          for (std::uint64_t line = addr / line_bytes; line <= (addr + bytes - 1) / line_bytes;
               ++line) {
            ++(l2_.probe(line) ? hits[b] : misses[b]);
          }
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
      const TestBlock& blk = blocks[b];
      const Cycles memory = (static_cast<double>(hits[b]) * spec_.l2_hit_cycles_per_line +
                             static_cast<double>(misses[b]) * spec_.dram_cycles_per_line) *
                            bw_share;
      durations[b] =
          std::max(blk.flops / spec_.flops_per_cycle_per_block, memory) + blk.extra_cycles;
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

 private:
  DeviceSpec spec_;
  testing::StampLru l2_;
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
    const std::vector<TestBlock> blocks = random_blocks(buf, seed++);
    const KernelStats want = oracle.launch(buf, blocks);
    expect_same(ctx.launch(build(ctx, buf, blocks)), want, where);
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
  launch_both("after a parallel region at 4 threads");
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
    const std::vector<TestBlock> blocks = random_blocks(buf, seed);
    const KernelStats want = oracle.launch(buf, blocks);
    expect_same(ctx.launch(build(ctx, buf, blocks)), want, "seed " + std::to_string(seed));
  }
}

TEST(ReplayOracle, LongAndWrappingAccessesAtUnevenRanges) {
  ThreadCountReset reset;
  // 64 sets over 3 ranges: 21, 21 and 22 sets wide.
  const DeviceSpec spec = tiny_device();
  SimContext ctx(spec);
  SequentialReplay oracle(spec);
  const std::uint64_t line = static_cast<std::uint64_t>(spec.line_bytes);
  const std::uint64_t sets = 64;
  const Buffer buf = ctx.mem().alloc("data", 4 * 16 * 1024);
  // The buffer's first line of set 0.
  const std::uint64_t first_period = (buf.base / line + sets - 1) / sets * sets;
  par::set_max_threads(3);
  std::size_t long_accesses = 0, wrapping = 0;
  std::uint64_t hits = 0;
  for (std::uint64_t seed = 200; seed < 208; ++seed) {
    tensor::Rng rng(seed);
    std::vector<TestBlock> blocks = random_blocks(buf, seed);
    for (TestBlock& blk : blocks) {
      for (auto& [offset, bytes] : blk.accesses) {
        switch (rng.below(3)) {
          case 0:  // 8 KiB and up: 128 or more lines, twice round the sets
            bytes = 8 * 1024 + rng.below(2) * rng.below(line);
            offset = rng.below(buf.bytes - bytes);
            ++long_accesses;
            break;
          case 1: {  // from one of the last 4 sets into one of the first 6
            const std::uint64_t period = first_period + rng.below(14) * sets;
            const std::uint64_t start = (period + sets - 4 + rng.below(4)) * line + rng.below(line);
            const std::uint64_t end = (period + sets + rng.below(6)) * line + rng.below(line);
            offset = start - buf.base;
            bytes = end - start + 1;
            ++wrapping;
            break;
          }
          default:
            break;
        }
      }
    }
    const KernelStats want = oracle.launch(buf, blocks);
    expect_same(ctx.launch(build(ctx, buf, blocks)), want, "seed " + std::to_string(seed));
    hits += want.l2_hits;
  }
  EXPECT_GT(long_accesses, 100u);
  EXPECT_GT(wrapping, 100u);
  EXPECT_GT(hits, 100u);
}

}  // namespace
}  // namespace gnnbridge::sim
