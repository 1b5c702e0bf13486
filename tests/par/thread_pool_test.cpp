// Unit tests for the host threading model (src/par/thread_pool.hpp):
// the pool runs every task exactly once, every task of a region runs
// even when one throws and the lowest index's exception surfaces (inline
// or on the pool), nested regions run inline, workers outlive narrower
// regions, concurrent submitters take turns, and — the load-bearing
// contract — chunked reductions are byte-identical at any thread count.
#include "par/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace gnnbridge::par {
namespace {

// Restores the process-wide thread override after each test so the suite
// order never leaks a parallelism setting.
class ThreadPoolTest : public ::testing::Test {
 protected:
  void TearDown() override { set_max_threads(0); }
};

TEST_F(ThreadPoolTest, MaxThreadsIsAtLeastOneAndOverridable) {
  EXPECT_GE(max_threads(), 1);
  set_max_threads(3);
  EXPECT_EQ(max_threads(), 3);
  set_max_threads(0);  // reset to environment/hardware default
  EXPECT_GE(max_threads(), 1);
}

TEST_F(ThreadPoolTest, RunTasksRunsEveryTaskExactlyOnce) {
  set_max_threads(8);
  constexpr std::size_t kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  ThreadPool::instance().run_tasks(kTasks, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST_F(ThreadPoolTest, ParallelChunksCoversRangeWithFixedBoundaries) {
  set_max_threads(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_chunks(kN, 64, [&](std::size_t c, std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, c * 64);
    EXPECT_EQ(end, std::min<std::size_t>(kN, begin + 64));
    for (std::size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

// The determinism contract: a floating-point reduction folded from
// per-chunk shards in chunk order yields the same bits at 1, 2 and 8
// threads. The per-item values are chosen to make naive out-of-order
// summation visibly different (mix of large and tiny magnitudes).
TEST_F(ThreadPoolTest, ShardedReductionIsByteIdenticalAcrossThreadCounts) {
  constexpr std::size_t kN = 10000;
  std::vector<double> values(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    values[i] = (i % 7 == 0) ? 1.0e12 : 1.0 / static_cast<double>(i + 1);
  }
  auto reduce = [&]() {
    std::vector<double> shards = sharded_chunks<double>(
        kN, 128, [&](double& shard, std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) shard += values[i];
        });
    double total = 0.0;
    for (double s : shards) total += s;
    return total;
  };
  set_max_threads(1);
  const double serial = reduce();
  for (int threads : {2, 8}) {
    set_max_threads(threads);
    for (int rep = 0; rep < 5; ++rep) {
      EXPECT_EQ(reduce(), serial) << threads << " threads, rep " << rep;
    }
  }
}

TEST_F(ThreadPoolTest, ExceptionFromLowestTaskIndexIsRethrown) {
  set_max_threads(8);
  try {
    ThreadPool::instance().run_tasks(100, [&](std::size_t i) {
      if (i == 17 || i == 63) {
        throw std::runtime_error("task " + std::to_string(i));
      }
    });
    FAIL() << "expected run_tasks to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 17");
  }
}

// Runs 100 tasks, of which 17 and 63 throw, through each region helper
// and reports "<helper>: <tasks run> ran, <exception rethrown>".
std::vector<std::string> run_throwing_regions() {
  std::vector<std::size_t> bounds(101);
  std::iota(bounds.begin(), bounds.end(), std::size_t{0});
  const std::string helpers[] = {"run_tasks", "parallel_chunks", "parallel_ranges"};
  std::vector<std::string> seen;
  for (std::size_t h = 0; h < std::size(helpers); ++h) {
    std::atomic<int> ran{0};
    const auto task = [&](std::size_t i) {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i == 17 || i == 63) throw std::runtime_error("task " + std::to_string(i));
    };
    const auto chunk = [&](std::size_t c, std::size_t, std::size_t) { task(c); };
    std::string rethrown = "nothing";
    try {
      if (h == 0) {
        ThreadPool::instance().run_tasks(100, task);
      } else if (h == 1) {
        parallel_chunks(100, 1, chunk);
      } else {
        parallel_ranges(bounds, chunk);
      }
    } catch (const std::runtime_error& e) {
      rethrown = e.what();
    }
    seen.push_back(helpers[h] + ": " + std::to_string(ran.load()) + " ran, " + rethrown);
  }
  return seen;
}

// Inline regions (1 thread, or nested in a region) fail like pool regions:
// every task runs, so a fault seam inside a region spends the same shots
// at any thread count, and the lowest task index's exception surfaces.
TEST_F(ThreadPoolTest, InlineRegionsRunEveryTaskAndRethrowTheLowestIndex) {
  const std::vector<std::string> want = {"run_tasks: 100 ran, task 17",
                                         "parallel_chunks: 100 ran, task 17",
                                         "parallel_ranges: 100 ran, task 17"};
  set_max_threads(1);
  EXPECT_EQ(run_throwing_regions(), want) << "at 1 thread";
  set_max_threads(4);
  EXPECT_EQ(run_throwing_regions(), want) << "on the pool";
  std::vector<std::string> nested[2];
  ThreadPool::instance().run_tasks(2, [&](std::size_t t) { nested[t] = run_throwing_regions(); });
  EXPECT_EQ(nested[0], want) << "inside a parallel region";
  EXPECT_EQ(nested[1], want) << "inside a parallel region";
}

TEST_F(ThreadPoolTest, PoolStaysUsableAfterAThrowingRegion) {
  set_max_threads(4);
  EXPECT_THROW(ThreadPool::instance().run_tasks(
                   10, [](std::size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  std::atomic<int> count{0};
  ThreadPool::instance().run_tasks(10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST_F(ThreadPoolTest, NestedRegionsRunInlineWithoutDeadlock) {
  set_max_threads(4);
  EXPECT_FALSE(in_parallel_region());
  std::atomic<std::int64_t> total{0};
  parallel_chunks(512, 64, [&](std::size_t, std::size_t begin, std::size_t end) {
    EXPECT_TRUE(in_parallel_region());
    // Nested region: must execute inline on this worker.
    parallel_chunks(end - begin, 16, [&](std::size_t, std::size_t b, std::size_t e) {
      total.fetch_add(static_cast<std::int64_t>(e - b), std::memory_order_relaxed);
    });
  });
  EXPECT_FALSE(in_parallel_region());
  EXPECT_EQ(total.load(), 512);
}

// Set by a task on whichever thread ran it; a fresh thread starts unset.
thread_local bool t_visited = false;

// A region of `threads` tasks that all wait for one another, so every
// participant runs exactly its own task. Returns how many tasks ran on a
// pool thread (not the caller) that had never run a task before.
std::size_t latched_region_fresh_threads(int threads) {
  const std::thread::id caller = std::this_thread::get_id();
  std::latch all_started(threads);
  std::atomic<std::size_t> fresh{0};
  ThreadPool::instance().run_tasks(static_cast<std::size_t>(threads), [&](std::size_t) {
    if (std::this_thread::get_id() != caller && !t_visited) fresh.fetch_add(1);
    t_visited = true;
    all_started.arrive_and_wait();
  });
  return fresh.load();
}

TEST_F(ThreadPoolTest, WorkersOutliveANarrowerRegion) {
  for (int threads : {3, 4, 8}) {
    set_max_threads(threads);
    latched_region_fresh_threads(threads);  // every worker has run a task now
    std::atomic<int> count{0};
    ThreadPool::instance().run_tasks(2, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 2);
    EXPECT_EQ(latched_region_fresh_threads(threads), 0u)
        << "the 2-task region replaced workers at " << threads << " threads";
  }
}

TEST_F(ThreadPoolTest, ConcurrentSubmittersEachRunTheirOwnRegion) {
  // Two top-level threads share the pool; the second must wait until the
  // first has left its region, or one region runs the other's body.
  set_max_threads(4);
  std::atomic<int> bad_regions{0};
  const auto submit = [&] {
    for (int rep = 0; rep < 2000; ++rep) {
      const std::size_t n = 2 + static_cast<std::size_t>(rep % 7);
      std::vector<std::atomic<int>> hits(n);
      ThreadPool::instance().run_tasks(n, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (const std::atomic<int>& h : hits) {
        if (h.load() != 1) {
          bad_regions.fetch_add(1);
          break;
        }
      }
    }
  };
  std::thread other(submit);
  submit();
  other.join();
  EXPECT_EQ(bad_regions.load(), 0);
}

TEST_F(ThreadPoolTest, AlignedChunkBoundsNeverSplitJoinedRuns) {
  // Items belong together in runs of 10: joined(i) == (i % 10 != 0).
  const std::size_t n = 1005;
  auto joined = [](std::size_t i) { return i % 10 != 0; };
  const std::vector<std::size_t> bounds = aligned_chunk_bounds(n, 64, joined);
  ASSERT_GE(bounds.size(), 2u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), n);
  for (std::size_t c = 1; c + 1 < bounds.size(); ++c) {
    EXPECT_GT(bounds[c], bounds[c - 1]);
    EXPECT_FALSE(joined(bounds[c])) << "boundary " << bounds[c] << " splits a run";
  }
  // Deterministic: same inputs, same bounds.
  EXPECT_EQ(aligned_chunk_bounds(n, 64, joined), bounds);
}

TEST_F(ThreadPoolTest, ParallelRangesVisitsEachRangeOnce) {
  set_max_threads(4);
  const std::vector<std::size_t> bounds = {0, 100, 350, 351, 1000};
  std::vector<std::atomic<int>> hits(1000);
  parallel_ranges(bounds, [&](std::size_t c, std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, bounds[c]);
    EXPECT_EQ(end, bounds[c + 1]);
    for (std::size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < 1000; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST_F(ThreadPoolTest, EmptyAndSingleChunkRegionsRunInline) {
  set_max_threads(8);
  int calls = 0;
  parallel_chunks(0, 64, [&](std::size_t, std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_chunks(10, 64, [&](std::size_t c, std::size_t begin, std::size_t end) {
    ++calls;
    EXPECT_EQ(c, 0u);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
  });
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace gnnbridge::par
