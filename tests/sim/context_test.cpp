#include "sim/context.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "prof/span.hpp"

namespace gnnbridge::sim {
namespace {

DeviceSpec tiny_device() {
  DeviceSpec s;
  s.num_sms = 2;
  s.max_blocks_per_sm = 2;
  s.l2_bytes = 64 * 1024;
  s.l2_ways = 4;
  s.line_bytes = 64;
  return s;
}

/// A kernel of `blocks` blocks for ctx's device, built in one chunk:
/// block b declares accesses(b) accesses and emit(b, blk) emits them.
template <typename Size, typename Emit>
Kernel build(const SimContext& ctx, std::string name, std::size_t blocks, Size accesses,
             Emit emit) {
  return build_kernel(std::move(name), "", ctx.spec().total_block_slots(), {0, blocks}, accesses,
                      emit);
}

/// A kernel without blocks.
Kernel empty(const SimContext& ctx, std::string name, std::string phase = "") {
  return build_kernel(std::move(name), std::move(phase), ctx.spec().total_block_slots(), {0, 0},
                      [](std::size_t) { return 0; }, [](std::size_t, BlockWork&) {});
}

TEST(AddressSpace, BuffersAreDisjointAndAligned) {
  AddressSpace mem;
  const Buffer a = mem.alloc("a", 100);
  const Buffer b = mem.alloc("b", 100);
  EXPECT_EQ(a.base % 256, 0u);
  EXPECT_EQ(b.base % 256, 0u);
  EXPECT_GE(b.base, a.base + a.bytes);
  EXPECT_EQ(mem.total_allocated(), 200u);
}

TEST(AddressSpace, ZeroByteAllocGetsNonEmptyRange) {
  AddressSpace mem;
  const Buffer a = mem.alloc("a", 0);
  EXPECT_GE(a.bytes, 1u);
}

TEST(Context, LaunchAccountsLaunchOverhead) {
  SimContext ctx(tiny_device());
  ctx.launch(empty(ctx, "empty"));
  EXPECT_EQ(ctx.stats().num_launches(), 1);
  EXPECT_DOUBLE_EQ(ctx.stats().total_cycles, ctx.spec().kernel_launch_cycles);
}

TEST(Context, CountersAccumulateAcrossKernels) {
  SimContext ctx(tiny_device());
  const Buffer buf = ctx.mem().alloc("data", 4096);
  for (int i = 0; i < 3; ++i) {
    ctx.launch(build(ctx, "touch", 1, [](std::size_t) { return 1; },
                     [&](std::size_t, BlockWork& blk) {
                       blk.read(buf, 0, 256);
                       blk.compute(10.0, 10.0);
                     }));
  }
  EXPECT_EQ(ctx.stats().num_launches(), 3);
  // 4 lines: first kernel misses, later kernels hit the warm L2.
  EXPECT_EQ(ctx.stats().total_misses(), 4u);
  EXPECT_EQ(ctx.stats().total_hits(), 8u);
  EXPECT_DOUBLE_EQ(ctx.stats().total_flops(), 30.0);
}

TEST(Context, ComputeBoundBlockCostFollowsFlops) {
  SimContext ctx(tiny_device());
  const KernelStats& ks =
      ctx.launch(build(ctx, "compute", 1, [](std::size_t) { return 0; },
                       [](std::size_t, BlockWork& blk) {
                         blk.compute(1600.0, 1600.0);  // 100 cycles at 16 flops/cycle
                       }));
  EXPECT_NEAR(ks.makespan, 100.0, 1e-6);
}

TEST(Context, MemoryBoundBlockCostFollowsMissCost) {
  DeviceSpec spec = tiny_device();
  SimContext ctx(spec);
  const Buffer buf = ctx.mem().alloc("data", 1 << 20);
  const KernelStats& ks =
      ctx.launch(build(ctx, "cold", 1, [](std::size_t) { return 1; },
                       [&](std::size_t, BlockWork& blk) {
                         blk.read(buf, 0, 64 * 100);  // 100 cold lines
                       }));
  // A lone block gets a bigger bandwidth share (1/8 of the fully-occupied
  // per-block cost), but never beats the device bandwidth floor
  // (total traffic / slot count).
  const Cycles shared = 100.0 * spec.dram_cycles_per_line / 8.0;
  const Cycles floor = 100.0 * spec.dram_cycles_per_line / spec.total_block_slots();
  EXPECT_NEAR(ks.makespan, std::max(shared, floor), 1e-6);
  EXPECT_EQ(ks.l2_misses, 100u);
  EXPECT_EQ(ks.dram_bytes, 6400u);
}

TEST(Context, FullGridPaysFullPerBlockMemoryCost) {
  DeviceSpec spec = tiny_device();  // 4 slots
  SimContext ctx(spec);
  const Buffer buf = ctx.mem().alloc("data", 1 << 20);
  const KernelStats& ks =
      ctx.launch(build(ctx, "full_grid", 4, [](std::size_t) { return 1; },
                       [&](std::size_t b, BlockWork& blk) { blk.read(buf, b * 6400, 64 * 100); }));
  EXPECT_NEAR(ks.makespan, 100.0 * spec.dram_cycles_per_line, 1e-6);
}

TEST(Context, SharedCacheGivesCoResidentReuse) {
  // Two blocks touching the same data in one wave: the second stream
  // largely hits because the replay interleaves co-resident blocks.
  SimContext ctx(tiny_device());
  const Buffer buf = ctx.mem().alloc("data", 1 << 16);
  const KernelStats& ks =
      ctx.launch(build(ctx, "shared", 2, [](std::size_t) { return 32; },
                       [&](std::size_t, BlockWork& blk) {
                         for (std::uint64_t i = 0; i < 32; ++i) blk.read(buf, i * 64, 64);
                       }));
  EXPECT_EQ(ks.l2_misses, 32u);
  EXPECT_EQ(ks.l2_hits, 32u);
  EXPECT_DOUBLE_EQ(ks.l2_hit_rate(), 0.5);
}

TEST(Context, FarApartBlocksMissWhenCacheTiny) {
  // Same data touched by blocks that are NOT co-resident (more blocks than
  // slots, distinct early data evicts) -> reuse lost. This is the
  // mechanism LAS exploits in reverse.
  DeviceSpec spec = tiny_device();
  spec.l2_bytes = 2 * 1024;  // 32 lines only
  SimContext ctx(spec);
  const Buffer buf = ctx.mem().alloc("data", 1 << 20);
  // 16 blocks each streaming 64 distinct lines, then a block re-reading
  // block 0's lines. With 4 slots, the re-reader runs long after.
  const KernelStats& ks =
      ctx.launch(build(ctx, "far_apart", 17, [](std::size_t) { return 64; },
                       [&](std::size_t b, BlockWork& blk) {
                         const std::uint64_t base = b < 16 ? b * 4096 : 0;
                         for (std::uint64_t i = 0; i < 64; ++i) blk.read(buf, base + i * 64, 64);
                       }));
  EXPECT_LT(ks.l2_hit_rate(), 0.1);
}

TEST(Context, AtomicMergeCountsTrafficAndExtendsBlockTime) {
  SimContext ctx(tiny_device());
  const KernelStats& ks =
      ctx.launch(build(ctx, "atomic", 1, [](std::size_t) { return 0; },
                       [](std::size_t, BlockWork& blk) {
                         blk.compute(1600.0, 1600.0);  // 100 cycles at 16 flops/cycle
                         blk.atomic_merge(40.0, 256);
                       }));
  EXPECT_DOUBLE_EQ(ks.atomic_cycles, 40.0);
  EXPECT_EQ(ks.atomic_bytes, 256u);
  EXPECT_NEAR(ks.makespan, 140.0, 1e-6);  // extra_cycles ride on the block
}

TEST(Context, AdapterCountsTrafficSeparatelyFromAtomics) {
  SimContext ctx(tiny_device());
  const KernelStats& ks =
      ctx.launch(build(ctx, "adapter", 1, [](std::size_t) { return 0; },
                       [](std::size_t, BlockWork& blk) { blk.adapter(25.0, 128); }));
  EXPECT_DOUBLE_EQ(ks.adapter_cycles, 25.0);
  EXPECT_EQ(ks.adapter_bytes, 128u);
  EXPECT_DOUBLE_EQ(ks.atomic_cycles, 0.0);
  EXPECT_EQ(ks.atomic_bytes, 0u);
}

TEST(Context, RedundantFlopCausesAreBrokenOut) {
  SimContext ctx(tiny_device());
  const KernelStats& ks =
      ctx.launch(build(ctx, "redundant", 1, [](std::size_t) { return 0; },
                       [](std::size_t, BlockWork& blk) {
                         blk.compute(100.0, 160.0);        // 60 pad flops (lane padding)
                         blk.compute_copy(32.0);           // pure data movement
                         blk.compute_tiled(200.0, 256.0);  // 56 boundary-tile flops
                       }));
  EXPECT_DOUBLE_EQ(ks.pad_flops, 60.0);
  EXPECT_DOUBLE_EQ(ks.copy_flops, 32.0);
  EXPECT_DOUBLE_EQ(ks.tile_flops, 56.0);
  EXPECT_DOUBLE_EQ(ks.flops, 300.0);
  EXPECT_DOUBLE_EQ(ks.issued_flops, 448.0);
  EXPECT_DOUBLE_EQ(ks.waste_flops(), 148.0);  // pad + copy + tile
}

TEST(Context, EveryLaunchIsOneGlobalSync) {
  SimContext ctx(tiny_device());
  for (int i = 0; i < 3; ++i) ctx.launch(empty(ctx, "noop"));
  EXPECT_EQ(ctx.stats().global_syncs, 3u);
}

// take_stats hands the counters over and starts new ones; the
// allocations and the warm L2 stay.
TEST(Context, StatsResetKeepsAllocations) {
  SimContext ctx(tiny_device());
  const Buffer buf = ctx.mem().alloc("x", 256);
  const auto touch = [&] {
    ctx.launch(build(ctx, "touch", 1, [](std::size_t) { return 1; },
                     [&](std::size_t, BlockWork& blk) { blk.read(buf, 0, 256); }));
  };
  touch();
  const RunStats taken = ctx.take_stats();
  EXPECT_EQ(taken.num_launches(), 1);
  EXPECT_EQ(taken.total_misses(), 4u);
  EXPECT_EQ(taken.global_syncs, 1u);
  EXPECT_EQ(ctx.stats().num_launches(), 0);
  EXPECT_EQ(ctx.stats().total_cycles, 0.0);
  EXPECT_EQ(ctx.stats().global_syncs, 0u);
  EXPECT_EQ(ctx.mem().total_allocated(), 256u);
  touch();
  EXPECT_EQ(ctx.stats().total_hits(), 4u);
}

TEST(RunStats, PhaseAccounting) {
  SimContext ctx(tiny_device());
  ctx.launch(empty(ctx, "k1", "expansion"));
  ctx.launch(empty(ctx, "k2", "transformation"));
  const Cycles exp = ctx.stats().cycles_in_phase("expansion");
  EXPECT_GT(exp, 0.0);
  EXPECT_DOUBLE_EQ(exp, ctx.stats().cycles_in_phase("transformation"));
  EXPECT_DOUBLE_EQ(ctx.stats().cycles_in_phase("nope"), 0.0);
}

/// The message of the std::logic_error the builder throws when block 1 of
/// three declares `declared` accesses and emits `emitted`; "" when it
/// throws none.
std::string miscount_message(const SimContext& ctx, std::size_t declared, std::size_t emitted) {
  const Buffer buf{4096, 4096};
  try {
    build(ctx, "miscounted", 3, [&](std::size_t b) { return b == 1 ? declared : 2; },
          [&](std::size_t b, BlockWork& blk) {
            const std::size_t n = b == 1 ? emitted : 2;
            for (std::size_t i = 0; i < n; ++i) blk.read(buf, i * 64, 64);
          });
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

TEST(KernelBuilder, RefusesABlockThatEmitsMoreOrFewerAccessesThanItDeclared) {
  SimContext ctx(tiny_device());
  for (const std::size_t emitted : {4u, 6u}) {
    const std::string what = miscount_message(ctx, 5, emitted);
    EXPECT_NE(what.find("kernel 'miscounted'"), std::string::npos) << what;
    EXPECT_NE(what.find("block 1 "), std::string::npos) << what;
    EXPECT_NE(what.find("emitted " + std::to_string(emitted)), std::string::npos) << what;
    EXPECT_NE(what.find("declared 5"), std::string::npos) << what;
  }
  EXPECT_EQ(miscount_message(ctx, 5, 5), "");
}

TEST(KernelBuilder, RefusesAnAccessThePackingCannotHold) {
  SimContext ctx(tiny_device());
  const auto one_read = [&](std::uint64_t base, std::uint64_t bytes) {
    const Buffer buf{base, std::uint64_t{1} << 33};
    return build(ctx, "packing", 1, [](std::size_t) { return 1; },
                 [&](std::size_t, BlockWork& blk) { blk.read(buf, 0, bytes); });
  };
  constexpr std::uint64_t kAddrLimit = std::uint64_t{1} << 40;
  constexpr std::uint64_t kSizeLimit = std::uint64_t{1} << 24;
  const Kernel fits = one_read(kAddrLimit - 64, kSizeLimit - 1);
  ASSERT_EQ(fits.trace().size(), 1u);
  EXPECT_EQ(fits.trace()[0].addr(), kAddrLimit - 64);
  EXPECT_EQ(fits.trace()[0].bytes(), kSizeLimit - 1);
  EXPECT_THROW(one_read(kAddrLimit, 64), std::out_of_range);
  EXPECT_THROW(one_read(4096, kSizeLimit), std::out_of_range);
  // A size is not truncated on its way to the packing: 2^32 + 64 bytes is
  // refused, not read as 64.
  EXPECT_THROW(one_read(4096, (std::uint64_t{1} << 32) + 64), std::out_of_range);
}

TEST(KernelBuilder, LaunchRefusesATraceLaidOutForAnotherSlotCount) {
  SimContext ctx(tiny_device());
  DeviceSpec wider = tiny_device();
  wider.num_sms = 4;
  const SimContext other(wider);
  EXPECT_THROW(ctx.launch(empty(other, "elsewhere")), std::invalid_argument);
  EXPECT_EQ(ctx.stats().num_launches(), 0);
}

TEST(KernelBuilder, TheLayoutFollowsTheCoResidencyInterleave) {
  // 4 slots; block b declares the counts below. Each resident block issues
  // up to 8 accesses per turn, and a finished block's slot passes to the
  // next block in launch order, which issues its first turn in the next
  // round (block 2, without accesses, still holds its slot for a round).
  SimContext ctx(tiny_device());
  const std::size_t counts[] = {10, 3, 0, 17, 8, 1};
  const Kernel k = build(ctx, "interleave", 6, [&](std::size_t b) { return counts[b]; },
                         [&](std::size_t b, BlockWork& blk) {
                           for (std::size_t i = 0; i < counts[b]; ++i) {
                             blk.read(Buffer{0, 1 << 20}, b * 4096 + i * 64, 4);
                           }
                         });
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> want = {
      {0, 8}, {1, 3}, {3, 8},          // round 1: 4 takes 1's slot, 5 takes 2's
      {0, 2}, {4, 8}, {5, 1}, {3, 8},  // round 2: 0, 4 and 5 finish
      {3, 1}};                         // round 3
  ASSERT_EQ(k.turns().size(), want.size());
  std::size_t at = 0;
  std::vector<std::size_t> issued(6, 0);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(k.turns()[i].block, want[i].first) << "turn " << i;
    ASSERT_EQ(k.turns()[i].count, want[i].second) << "turn " << i;
    const std::size_t b = want[i].first;
    for (std::uint32_t j = 0; j < want[i].second; ++j, ++at) {
      EXPECT_EQ(k.trace()[at].addr(), b * 4096 + issued[b]++ * 64) << "access " << at;
    }
  }
  EXPECT_EQ(at, k.trace().size());
}

TEST(KernelBuilder, LayoutReplayAndScheduleSpans) {
  prof::Tracer& tracer = prof::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  SimContext ctx(tiny_device());
  const Buffer buf = ctx.mem().alloc("data", 4096);
  ctx.launch(build(ctx, "traced", 2, [](std::size_t) { return 1; },
                   [&](std::size_t b, BlockWork& blk) { blk.read(buf, b * 64, 64); }));
  tracer.set_enabled(false);
  const std::vector<prof::SpanRecord> spans = tracer.snapshot();
  tracer.clear();
  const auto find = [&](const std::string& name) -> const prof::SpanRecord* {
    for (const prof::SpanRecord& s : spans) {
      if (s.name == name) return &s;
    }
    return nullptr;
  };
  const prof::SpanRecord* layout = find("layout");
  const prof::SpanRecord* kernel = find("traced");
  const prof::SpanRecord* replay = find("replay");
  const prof::SpanRecord* schedule = find("schedule");
  ASSERT_TRUE(layout && kernel && replay && schedule);
  EXPECT_EQ(layout->category, "sim.stage");
  EXPECT_EQ(kernel->category, "sim");
  EXPECT_EQ(layout->depth, kernel->depth);
  EXPECT_LE(layout->start_us + layout->duration_us, kernel->start_us);
  for (const prof::SpanRecord* s : {replay, schedule}) {
    EXPECT_EQ(s->category, "sim.stage") << s->name;
    EXPECT_EQ(s->depth, kernel->depth + 1) << s->name;
    EXPECT_GE(s->start_us, kernel->start_us) << s->name;
    EXPECT_LE(s->start_us + s->duration_us, kernel->start_us + kernel->duration_us) << s->name;
  }
  EXPECT_LE(replay->start_us + replay->duration_us, schedule->start_us);
}

TEST(DeviceSpec, UnitConversions) {
  DeviceSpec s;
  s.clock_ghz = 1.0;
  EXPECT_DOUBLE_EQ(s.seconds(1e9), 1.0);
  EXPECT_DOUBLE_EQ(s.millis(1e6), 1.0);
  EXPECT_EQ(v100().total_block_slots(), 640);
}

}  // namespace
}  // namespace gnnbridge::sim
