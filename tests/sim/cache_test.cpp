#include "sim/cache.hpp"

#include <gtest/gtest.h>

namespace gnnbridge::sim {
namespace {

TEST(Cache, FirstTouchMisses) {
  SetAssocCache c(1024, 2, 64);
  EXPECT_FALSE(c.access_line(0));
  EXPECT_EQ(c.total_misses(), 1u);
  EXPECT_EQ(c.total_hits(), 0u);
}

TEST(Cache, SecondTouchHits) {
  SetAssocCache c(1024, 2, 64);
  c.access_line(128);
  EXPECT_TRUE(c.access_line(128));
  EXPECT_EQ(c.total_hits(), 1u);
}

TEST(Cache, DistinctLinesInSameSetCoexistUpToWays) {
  // 1024 B, 2-way, 64 B lines -> 8 sets. Lines 0 and 8*64 share set 0.
  SetAssocCache c(1024, 2, 64);
  ASSERT_EQ(c.num_sets(), 8);
  c.access_line(0);
  c.access_line(8 * 64);
  EXPECT_TRUE(c.access_line(0));
  EXPECT_TRUE(c.access_line(8 * 64));
}

TEST(Cache, LruEvictionOrder) {
  SetAssocCache c(1024, 2, 64);  // 8 sets, 2 ways
  const std::uint64_t a = 0, b = 8 * 64, d = 16 * 64;  // same set
  c.access_line(a);
  c.access_line(b);
  c.access_line(a);      // a most recent
  c.access_line(d);      // evicts b (LRU)
  EXPECT_TRUE(c.access_line(a));
  EXPECT_FALSE(c.access_line(b));  // was evicted
}

TEST(Cache, AccessSpansMultipleLines) {
  SetAssocCache c(4096, 4, 64);
  const CacheProbe p = c.access(0, 256);  // exactly 4 lines
  EXPECT_EQ(p.lines, 4u);
  EXPECT_EQ(p.misses, 4u);
  const CacheProbe p2 = c.access(0, 256);
  EXPECT_EQ(p2.hits, 4u);
}

TEST(Cache, UnalignedAccessCountsStraddledLines) {
  SetAssocCache c(4096, 4, 64);
  // 64 bytes starting at offset 32 straddles two lines.
  const CacheProbe p = c.access(32, 64);
  EXPECT_EQ(p.lines, 2u);
}

TEST(Cache, ZeroByteAccessIsNoop) {
  SetAssocCache c(4096, 4, 64);
  const CacheProbe p = c.access(0, 0);
  EXPECT_EQ(p.lines, 0u);
  // Unaligned too: addr + bytes - 1 would fall back inside the line.
  EXPECT_EQ(c.access(32, 0).lines, 0u);
  EXPECT_EQ(c.total_misses(), 0u);
  EXPECT_EQ(c.tick(), 0u);
}

TEST(Cache, ClearInvalidatesEverything) {
  SetAssocCache c(1024, 2, 64);
  c.access_line(0);
  c.clear();
  EXPECT_FALSE(c.access_line(0));
}

TEST(Cache, SetCountRoundsDownToPowerOfTwo) {
  // 6 MiB / (16 * 64) = 6144 raw sets -> 4096.
  SetAssocCache c(6 * 1024 * 1024, 16, 64);
  EXPECT_EQ(c.num_sets(), 4096);
}

TEST(Cache, WorkingSetLargerThanCapacityThrashes) {
  SetAssocCache c(1024, 2, 64);  // 16 lines capacity
  // Stream 64 distinct lines twice: second pass still mostly misses.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t l = 0; l < 64; ++l) c.access_line(l * 64);
  }
  EXPECT_GT(c.total_misses(), 100u);
}

TEST(Cache, WorkingSetWithinCapacityReuses) {
  SetAssocCache c(8192, 4, 64);  // 128 lines
  for (int pass = 0; pass < 4; ++pass) {
    for (std::uint64_t l = 0; l < 32; ++l) c.access_line(l * 64);
  }
  EXPECT_EQ(c.total_misses(), 32u);
  EXPECT_EQ(c.total_hits(), 96u);
}

}  // namespace
}  // namespace gnnbridge::sim
