// Host threading model (DESIGN.md §11).
//
// A process-wide work-stealing thread pool with a *deterministic*
// parallel-for: work is cut into fixed-size chunks whose boundaries depend
// only on the problem size (never on the thread count), chunks are
// statically assigned to participants and idle participants steal from the
// busiest remaining range, and every reduction merges per-chunk shards in
// chunk index order. The contract this buys: any quantity computed through
// these helpers is byte-identical at 1, 2 or N threads — metrics goldens,
// bench baselines and the simulator's counters never depend on
// GNNBRIDGE_THREADS.
//
// Configuration: GNNBRIDGE_THREADS (environment) or set_max_threads()
// (the CLI's --threads flag); default is std::thread::hardware_concurrency.
// Nested parallel regions execute inline on the calling worker, so library
// code can use parallel_chunks freely without deadlock.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <utility>
#include <vector>

namespace gnnbridge::par {

/// Maximum host parallelism: the set_max_threads override when set, else
/// GNNBRIDGE_THREADS, else hardware concurrency. Always >= 1.
int max_threads();

/// Overrides the parallelism (the --threads CLI flag). `n <= 0` resets to
/// the environment/hardware default. Takes effect on the next parallel
/// region; never changes results, only wall-clock time.
void set_max_threads(int n);

/// True while the current thread is executing inside a pool task; nested
/// parallel regions detect this and run inline.
bool in_parallel_region();

/// Marks the calling thread as inside a parallel region for the scope's
/// lifetime, so every region it opens runs inline on it. run_batch puts
/// each job in one: the job's nested regions then run on the thread that
/// holds its thread-confined fault plan, in a batch of one job as in a
/// batch of many.
class InlineScope {
 public:
  InlineScope();
  ~InlineScope();
  InlineScope(const InlineScope&) = delete;
  InlineScope& operator=(const InlineScope&) = delete;

 private:
  bool prev_;
};

/// The process-wide pool. Lazily spawns max_threads()-1 workers on first
/// use and grows when the configured parallelism rises; it never shrinks,
/// so workers outlive every region. A region narrower than the pool runs
/// on its first participants while the other workers sleep through it.
class ThreadPool {
 public:
  static ThreadPool& instance();

  /// Runs fn(0) .. fn(num_tasks-1), each exactly once, on the pool plus
  /// the calling thread. Tasks are contiguously partitioned over the
  /// participants; exhausted participants steal from the ranges that still
  /// have work. Blocks until every task finished. At 1 thread or inside a
  /// region the tasks run inline, in index order; a one-task region calls
  /// its task directly and leaves in_parallel_region() as it was. Every
  /// task runs even when another throws, so fault-seam shots are spent
  /// alike at any thread count; the exception from the lowest task index
  /// is rethrown on the calling thread after the region drains.
  void run_tasks(std::size_t num_tasks, const std::function<void(std::size_t)>& fn);

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  ThreadPool();
  struct Impl;
  Impl* impl_;
};

/// Default chunk grain for parallel_chunks: small enough to balance skewed
/// work, large enough to amortize dispatch. Fixed — chunk boundaries are
/// part of the determinism contract.
inline constexpr std::size_t kDefaultGrain = 256;

/// Number of fixed-size chunks covering [0, n).
inline std::size_t num_chunks(std::size_t n, std::size_t grain = kDefaultGrain) {
  return grain == 0 ? 0 : (n + grain - 1) / grain;
}

/// Deterministic chunked parallel-for: body(chunk_index, begin, end) over
/// [0, n) cut at multiples of `grain`. Chunk boundaries depend only on
/// (n, grain); bodies run concurrently, so they must only touch state
/// owned by their chunk (or merge through shards — see sharded_chunks).
/// One run_tasks region with a task per chunk: every chunk runs, even
/// after one throws.
template <typename Body>
void parallel_chunks(std::size_t n, std::size_t grain, Body&& body) {
  ThreadPool::instance().run_tasks(num_chunks(n, grain), [&](std::size_t c) {
    const std::size_t begin = c * grain;
    body(c, begin, std::min(n, begin + grain));
  });
}

/// Deterministic parallel-for over caller-supplied chunk boundaries
/// (bounds[0]=0 < bounds[1] < ... < bounds.back()=n): body(chunk, begin,
/// end) for each [bounds[c], bounds[c+1]). Used when chunk edges must be
/// aligned to a structural property of the input (e.g. kernels keep all
/// split tasks of one node in a single chunk so per-row accumulation order
/// matches the sequential kernel exactly). Runs like parallel_chunks.
template <typename Body>
void parallel_ranges(std::span<const std::size_t> bounds, Body&& body) {
  if (bounds.size() < 2) return;
  ThreadPool::instance().run_tasks(bounds.size() - 1,
                                   [&](std::size_t c) { body(c, bounds[c], bounds[c + 1]); });
}

/// Chunked map into per-chunk shards, returned in chunk order. The caller
/// folds the shards left-to-right — the ordered-reduction half of the
/// determinism contract. `body(shard, chunk, begin, end)` fills the
/// default-constructed shard for its chunk.
template <typename Shard, typename Body>
std::vector<Shard> sharded_chunks(std::size_t n, std::size_t grain, Body&& body) {
  std::vector<Shard> shards(num_chunks(n, grain));
  parallel_chunks(n, grain, [&](std::size_t c, std::size_t begin, std::size_t end) {
    body(shards[c], c, begin, end);
  });
  return shards;
}

/// Chunk boundaries for `n` items cut at multiples of `grain`, except that
/// a boundary is pushed right while `joined(i)` says item i belongs with
/// item i-1. Returns bounds usable with parallel_ranges. Deterministic —
/// depends only on (n, grain, joined).
template <typename Joined>
std::vector<std::size_t> aligned_chunk_bounds(std::size_t n, std::size_t grain, Joined&& joined) {
  std::vector<std::size_t> bounds;
  bounds.push_back(0);
  for (std::size_t b = grain; b < n; b += grain) {
    std::size_t cut = b;
    while (cut < n && joined(cut)) ++cut;
    if (cut > bounds.back() && cut < n) bounds.push_back(cut);
  }
  bounds.push_back(n);
  return bounds;
}

}  // namespace gnnbridge::par
