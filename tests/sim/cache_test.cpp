#include "sim/cache.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/context.hpp"
#include "tensor/rng.hpp"
#include "tests/testing/stamp_lru.hpp"

namespace gnnbridge::sim {
namespace {

// The message SetAssocCache(capacity, ways, line_bytes) throws as
// std::invalid_argument, or "" when it builds.
std::string geometry_error(std::int64_t capacity, int ways, int line_bytes) {
  try {
    SetAssocCache c(capacity, ways, line_bytes);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

using HitsMisses = std::pair<std::uint64_t, std::uint64_t>;

/// Launches one block reading `bytes` bytes at `offset` of `buf` on `ctx`
/// and returns its L2 hits and misses: the replay is the one path that
/// turns an access into line probes.
HitsMisses read(SimContext& ctx, const Buffer& buf, std::uint64_t offset, std::uint64_t bytes) {
  const KernelStats& ks = ctx.launch(
      build_kernel("read", "", ctx.spec().total_block_slots(), {0, 1},
                   [](std::size_t) { return 1; },
                   [&](std::size_t, BlockWork& blk) { blk.read(buf, offset, bytes); }));
  return {ks.l2_hits, ks.l2_misses};
}

TEST(Cache, FirstTouchMisses) {
  SetAssocCache c(1024, 2, 64);
  EXPECT_FALSE(c.probe(0));
  EXPECT_FALSE(c.probe(1));
}

TEST(Cache, SecondTouchHits) {
  SetAssocCache c(1024, 2, 64);
  c.probe(2);
  EXPECT_TRUE(c.probe(2));
}

TEST(Cache, DistinctLinesInSameSetCoexistUpToWays) {
  // 1024 B, 2-way, 64 B lines -> 8 sets. Lines 0 and 8 share set 0.
  SetAssocCache c(1024, 2, 64);
  ASSERT_EQ(c.num_sets(), 8);
  c.probe(0);
  c.probe(8);
  EXPECT_TRUE(c.probe(0));
  EXPECT_TRUE(c.probe(8));
}

TEST(Cache, LruEvictionOrder) {
  SetAssocCache c(1024, 2, 64);  // 8 sets, 2 ways
  const std::uint64_t a = 0, b = 8, d = 16;  // same set
  c.probe(a);
  c.probe(b);
  c.probe(a);  // a most recent
  c.probe(d);  // evicts b (LRU)
  EXPECT_TRUE(c.probe(a));
  EXPECT_FALSE(c.probe(b));  // was evicted
}

TEST(Cache, AccessSpansMultipleLines) {
  SimContext ctx;
  const Buffer buf = ctx.mem().alloc("data", 4096);  // 256-byte aligned
  EXPECT_EQ(read(ctx, buf, 0, 256), (HitsMisses{0, 4}));  // exactly 4 lines
  EXPECT_EQ(read(ctx, buf, 0, 256), (HitsMisses{4, 0}));
  EXPECT_EQ(ctx.stats().total_misses(), 4u);
}

TEST(Cache, UnalignedAccessCountsStraddledLines) {
  SimContext ctx;
  const Buffer buf = ctx.mem().alloc("data", 4096);
  // 64 bytes starting at offset 32 straddles two lines.
  EXPECT_EQ(read(ctx, buf, 32, 64), (HitsMisses{0, 2}));
}

TEST(Cache, ZeroByteAccessIsNoop) {
  SimContext ctx;
  const Buffer buf = ctx.mem().alloc("data", 4096);
  EXPECT_EQ(read(ctx, buf, 0, 0), (HitsMisses{0, 0}));
  // Unaligned too: addr + bytes - 1 would fall back inside the line.
  EXPECT_EQ(read(ctx, buf, 32, 0), (HitsMisses{0, 0}));
  // Nothing was filled: line 0 is still cold.
  EXPECT_EQ(read(ctx, buf, 0, 1), (HitsMisses{0, 1}));
}

TEST(Cache, ClearInvalidatesEverything) {
  SetAssocCache c(1024, 2, 64);  // 8 sets, 2 ways
  const std::uint64_t a = 0, b = 8;  // same set
  c.probe(a);
  c.probe(b);
  EXPECT_TRUE(c.probe(b));  // b is the set's most recent line
  c.clear();
  EXPECT_FALSE(c.probe(b));
  EXPECT_FALSE(c.probe(a));
}

// Re-touching a set's most recent line changes no recency, so it must not
// move the next victim. With the set full of lines A, B, C, ... (oldest
// first), three re-touches of the newest line leave A the victim of a new
// line E; a touch of B then leaves C the victim of a new line F (at 2 ways
// C is E itself).
TEST(Cache, MostRecentRetouchesKeepTheEvictionOrder) {
  for (const int ways : {1, 4, 16, 32}) {
    SetAssocCache c(8LL * ways * 64, ways, 64);  // 8 sets
    const auto sets = static_cast<std::uint64_t>(c.num_sets());
    const auto w = static_cast<std::uint64_t>(ways);
    const auto line = [&](std::uint64_t i) { return i * sets; };  // all in set 0
    // Probes a copy, so checking leaves c as it was.
    const auto resident = [](SetAssocCache copy, std::uint64_t l) { return copy.probe(l); };
    for (std::uint64_t i = 0; i < w; ++i) ASSERT_FALSE(c.probe(line(i)));
    for (int k = 0; k < 3; ++k) ASSERT_TRUE(c.probe(line(w - 1)));
    ASSERT_FALSE(c.probe(line(w)));  // E
    EXPECT_FALSE(resident(c, line(0))) << ways << " ways";
    for (std::uint64_t i = 1; i <= w; ++i) EXPECT_TRUE(resident(c, line(i))) << ways << " ways";
    if (ways == 1) continue;
    ASSERT_TRUE(c.probe(line(1)));       // B
    ASSERT_FALSE(c.probe(line(w + 1)));  // F
    EXPECT_FALSE(resident(c, line(2))) << ways << " ways";
    EXPECT_TRUE(resident(c, line(1))) << ways << " ways";
    for (std::uint64_t i = 3; i <= w + 1; ++i) {
      EXPECT_TRUE(resident(c, line(i))) << ways << " ways";
    }
  }
}

TEST(Cache, SetCountRoundsDownToPowerOfTwo) {
  // 6 MiB / (16 * 64) = 6144 raw sets -> 4096.
  SetAssocCache c(6 * 1024 * 1024, 16, 64);
  EXPECT_EQ(c.num_sets(), 4096);
}

TEST(Cache, WorkingSetLargerThanCapacityThrashes) {
  SetAssocCache c(1024, 2, 64);  // 16 lines capacity
  // Stream 64 distinct lines twice: second pass still mostly misses.
  std::uint64_t hits = 0;
  for (int pass = 0; pass < 2; ++pass) hits += c.probe_run(0, 64);
  EXPECT_LT(hits, 28u);
}

TEST(Cache, WorkingSetWithinCapacityReuses) {
  SetAssocCache c(8192, 4, 64);  // 128 lines
  EXPECT_EQ(c.probe_run(0, 32), 0u);
  for (int pass = 1; pass < 4; ++pass) EXPECT_EQ(c.probe_run(0, 32), 32u);
}

// Every probe of the rank-based LRU against the stamp-based reference, at
// way counts below, at and above one 16-lane group (pad lanes at 1, 2, 3,
// 4, 8 and 12 ways; two groups at 32). The stream mixes re-touches of
// recent lines with fresh lines over twice the capacity, so sets fill,
// hit and evict; half the way counts use tags near the top of the 32-bit
// range. Each way count re-touches its set's most recent line at least
// 1,000 times, the probes the cache answers from its MRU tag array.
TEST(Cache, MatchesStampLruProbeByProbe) {
  for (const int ways : {1, 2, 3, 4, 8, 12, 16, 32}) {
    const std::int64_t capacity = 64LL * ways * 64;  // 64 sets
    SetAssocCache cache(capacity, ways, 64);
    testing::StampLru ref(capacity, ways, 64);
    ASSERT_EQ(cache.num_sets(), ref.num_sets());
    tensor::Rng rng(static_cast<std::uint64_t>(ways));
    const std::uint64_t lines = 2 * 64 * static_cast<std::uint64_t>(ways);
    const std::uint64_t base = ways % 2 == 0 ? std::uint64_t{0xFFFF0000} << 6 : 0;
    std::deque<std::uint64_t> recent;
    std::uint64_t hits = 0, misses = 0, most_recent = 0;
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t line = !recent.empty() && rng.below(2) == 0
                                     ? recent[rng.below(recent.size())]
                                     : base + rng.below(lines);
      recent.push_back(line);
      if (recent.size() > 4 * static_cast<std::size_t>(ways)) recent.pop_front();
      most_recent += ref.is_most_recent(line);
      const bool want = ref.probe(line);
      ASSERT_EQ(cache.probe(line), want) << ways << " ways, probe " << i << ", line " << line;
      ++(want ? hits : misses);
    }
    EXPECT_GT(hits, 2000u) << ways << " ways";
    EXPECT_GT(misses, 2000u) << ways << " ways";
    EXPECT_GE(most_recent, 1000u) << ways << " ways";
  }
}

TEST(Cache, RejectsTagsWiderThan32Bits) {
  SetAssocCache c(1024, 2, 64);  // 8 sets: the tag is line >> 3
  ASSERT_EQ(c.num_sets(), 8);
  const std::uint64_t widest = std::uint64_t{0xFFFFFFFE} << 3;  // the largest tag
  EXPECT_FALSE(c.probe(widest));
  EXPECT_TRUE(c.probe(widest));
  // 0xFFFFFFFF marks empty ways, and 2^32 needs 33 bits.
  EXPECT_THROW(c.probe(std::uint64_t{0xFFFFFFFF} << 3), std::out_of_range);
  EXPECT_THROW(c.probe(std::uint64_t{1} << 35), std::out_of_range);
  EXPECT_THROW(c.probe_run(std::uint64_t{1} << 35, 1), std::out_of_range);
  EXPECT_TRUE(c.probe(widest));
  // Tag 2^32 throws even where its low 32 bits are its set's most recent tag.
  EXPECT_FALSE(c.probe(0));
  EXPECT_THROW(c.probe(std::uint64_t{1} << 35), std::out_of_range);
}

TEST(Cache, RejectsWayCountsRanksCannotHold) {
  EXPECT_THROW(SetAssocCache(1 << 20, 0, 64), std::invalid_argument);
  EXPECT_THROW(SetAssocCache(1 << 20, 256, 64), std::invalid_argument);
  SetAssocCache c(1 << 20, 255, 64);  // one pad lane
  for (std::uint64_t l = 0; l < 255; ++l) EXPECT_FALSE(c.probe(l * c.num_sets()));
  for (std::uint64_t l = 0; l < 255; ++l) EXPECT_TRUE(c.probe(l * c.num_sets()));
  EXPECT_FALSE(c.probe(255u * c.num_sets()));  // evicts line 0, the LRU
  EXPECT_FALSE(c.probe(0));
}

TEST(Cache, RejectsNonPositiveCapacity) {
  for (const std::int64_t capacity : {std::int64_t{0}, std::int64_t{-4096}}) {
    const std::string what = geometry_error(capacity, 4, 64);
    EXPECT_NE(what.find("capacity of " + std::to_string(capacity) + " bytes"), std::string::npos)
        << "'" << what << "'";
  }
}

TEST(Cache, RejectsLineSizesNotPowersOfTwo) {
  for (const int line_bytes : {0, -64, 48, 96}) {
    const std::string what = geometry_error(1 << 20, 4, line_bytes);
    EXPECT_NE(what.find(std::to_string(line_bytes) + "-byte lines"), std::string::npos)
        << "'" << what << "'";
  }
  EXPECT_EQ(geometry_error(1 << 20, 4, 32), "");
}

TEST(Cache, RejectsCapacityBelowOneSet) {
  // One set of 32 ways of 64-byte lines needs 2048 bytes.
  const std::string what = geometry_error(1024, 32, 64);
  EXPECT_NE(what.find("1024 bytes hold no set of 32 ways of 64-byte lines"), std::string::npos)
      << "'" << what << "'";
  EXPECT_EQ(SetAssocCache(2048, 32, 64).num_sets(), 1);
}

}  // namespace
}  // namespace gnnbridge::sim
