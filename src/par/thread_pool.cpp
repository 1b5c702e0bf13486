#include "par/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

namespace gnnbridge::par {

namespace {

int hardware_default() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int env_or_hardware() {
  static const int value = [] {
    if (const char* env = std::getenv("GNNBRIDGE_THREADS"); env && *env) {
      char* end = nullptr;
      const long n = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && n >= 1 && n <= 4096) return static_cast<int>(n);
      // Malformed values fall through to the hardware default rather than
      // silently serializing — but say so once, or a typo'd 0/-1/garbage
      // value silently runs at a different width than the user asked for.
      std::fprintf(stderr,
                   "gnnbridge: ignoring invalid GNNBRIDGE_THREADS='%s' (want an "
                   "integer in [1, 4096]); using hardware concurrency\n",
                   env);
    }
    return hardware_default();
  }();
  return value;
}

std::atomic<int> g_override{0};

thread_local bool t_in_region = false;

}  // namespace

int max_threads() {
  const int forced = g_override.load(std::memory_order_relaxed);
  return forced >= 1 ? forced : env_or_hardware();
}

void set_max_threads(int n) {
  g_override.store(n >= 1 ? n : 0, std::memory_order_relaxed);
}

bool in_parallel_region() { return t_in_region; }

InlineScope::InlineScope() : prev_(t_in_region) { t_in_region = true; }

InlineScope::~InlineScope() { t_in_region = prev_; }

// One participant's contiguous slice of the task index space. `next` is
// bumped by the owner and by thieves alike; a fetch_add that lands past
// `end` simply means the range was already drained.
struct TaskRange {
  std::atomic<std::size_t> next{0};
  std::size_t end = 0;
  // Pad to a cache line so owner claims and steals do not false-share.
  char pad[64 - sizeof(std::atomic<std::size_t>) - sizeof(std::size_t)] = {};
};

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable work_cv;   // workers wait for a new region
  std::condition_variable done_cv;   // submitters wait for a region to drain
  std::vector<std::thread> workers;  // grow-only; joined by ~ThreadPool
  bool stop = false;

  // Current region. Guarded by mu; workers read it after waking on
  // work_cv and before touching the (then-immutable) ranges/body.
  std::size_t job_gen = 0;
  const std::function<void(std::size_t)>* body = nullptr;
  std::vector<TaskRange> ranges;  // one per participant (workers + caller)
  int workers_in_region = 0;

  std::mutex err_mu;
  std::exception_ptr first_error;
  std::size_t first_error_task = 0;

  void record_error(std::size_t task, std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(err_mu);
    if (!first_error || task < first_error_task) {
      first_error = std::move(e);
      first_error_task = task;
    }
  }

  // Claims and runs tasks as participant `self` until the region drains.
  void participate(std::size_t self) {
    t_in_region = true;
    const std::size_t participants = ranges.size();
    for (;;) {
      std::size_t task = ranges[self].next.fetch_add(1, std::memory_order_relaxed);
      if (task >= ranges[self].end) {
        // Own range drained: steal from the range with the most work left.
        std::size_t victim = participants;
        std::size_t best_left = 0;
        for (std::size_t p = 0; p < participants; ++p) {
          if (p == self) continue;
          const std::size_t nxt = ranges[p].next.load(std::memory_order_relaxed);
          const std::size_t left = nxt < ranges[p].end ? ranges[p].end - nxt : 0;
          if (left > best_left) {
            best_left = left;
            victim = p;
          }
        }
        if (victim == participants) break;  // nothing anywhere: region done
        task = ranges[victim].next.fetch_add(1, std::memory_order_relaxed);
        if (task >= ranges[victim].end) continue;  // lost the race; rescan
        run_one(task);
        continue;
      }
      run_one(task);
    }
    t_in_region = false;
  }

  void run_one(std::size_t task) {
    try {
      (*body)(task);
    } catch (...) {
      record_error(task, std::current_exception());
    }
  }

  // Participant 0 is the submitting thread; worker `slot` (fixed at spawn)
  // is participant slot+1. `seen_gen` starts at the generation current at
  // spawn time so a freshly spawned worker never joins a region that
  // finished before it existed. A region with fewer participants than
  // workers leaves the extra workers asleep: they note the generation and
  // wait for the next one, uncounted in workers_in_region.
  void worker_main(std::size_t participant, std::size_t seen_gen) {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        work_cv.wait(lock, [&] { return stop || job_gen != seen_gen; });
        if (stop) return;
        seen_gen = job_gen;
        if (participant >= ranges.size()) continue;
      }
      participate(participant);
      {
        std::lock_guard<std::mutex> lock(mu);
        if (--workers_in_region == 0) done_cv.notify_all();
      }
    }
  }

  // Grows the worker set to `want`; never shrinks it (the destructor joins).
  void grow_workers_locked(int want) {
    const std::size_t spawn_gen = job_gen;
    for (std::size_t slot = workers.size(); slot < static_cast<std::size_t>(want); ++slot) {
      const std::size_t participant = slot + 1;
      workers.emplace_back([this, participant, spawn_gen] { worker_main(participant, spawn_gen); });
    }
  }
};

ThreadPool& ThreadPool::instance() {
  static ThreadPool* pool = new ThreadPool();  // leaked: outlives atexit users
  return *pool;
}

ThreadPool::ThreadPool() : impl_(new Impl()) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& t : impl_->workers) t.join();
  delete impl_;
}

void ThreadPool::run_tasks(std::size_t num_tasks, const std::function<void(std::size_t)>& fn) {
  if (num_tasks == 0) return;
  if (num_tasks == 1) {
    fn(0);  // no region: the task keeps the caller's in_parallel_region()
    return;
  }
  const int threads = max_threads();
  if (threads <= 1 || t_in_region) {
    // Inline (and for nested regions: the caller already owns a
    // participant slot; waiting on the pool would deadlock it on itself).
    // Like the pool, run every task and surface the lowest index's error.
    const InlineScope inline_scope;
    std::exception_ptr first_error;
    for (std::size_t i = 0; i < num_tasks; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }

  Impl& im = *impl_;
  std::unique_lock<std::mutex> lock(im.mu);
  // One region at a time: a second concurrent submitter waits until the
  // previous submitter has left its region and collected its result
  // (batch jobs submit from pool workers and run inline, so this only
  // serializes truly independent top-level callers).
  im.done_cv.wait(lock, [&] { return im.body == nullptr; });

  im.grow_workers_locked(threads - 1);
  const int want_workers =
      static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(threads - 1), num_tasks - 1));

  const std::size_t participants = static_cast<std::size_t>(want_workers) + 1;
  im.ranges = std::vector<TaskRange>(participants);
  for (std::size_t p = 0; p < participants; ++p) {
    // Static contiguous partition: participant p owns
    // [p*n/P, (p+1)*n/P). Assignment depends only on (n, P) — and results
    // never depend on the assignment at all, only on chunk indices.
    im.ranges[p].next.store(num_tasks * p / participants, std::memory_order_relaxed);
    im.ranges[p].end = num_tasks * (p + 1) / participants;
  }
  im.body = &fn;
  im.first_error = nullptr;
  im.workers_in_region = want_workers;
  ++im.job_gen;
  im.work_cv.notify_all();
  lock.unlock();

  im.participate(0);

  lock.lock();
  im.done_cv.wait(lock, [&] { return im.workers_in_region == 0; });
  im.body = nullptr;
  std::exception_ptr err = im.first_error;
  im.first_error = nullptr;
  lock.unlock();
  im.done_cv.notify_all();  // admit a waiting submitter
  if (err) std::rethrow_exception(err);
}

}  // namespace gnnbridge::par
