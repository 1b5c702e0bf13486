// Request-scoped event journal (DESIGN.md §13).
//
// A process-wide, append-only log of batch-job lifecycle events: one JSONL
// line per attempt, degradation, injected fault, shard recovery step and
// outcome, each tagged with the originating job's request id — filter on
// the id and a single job's full story (attempts -> degradations ->
// outcome) reads back in order.
//
// Determinism: OptimizedEngine::run_batch buffers a job's events job-
// locally during the parallel wave and appends them in the sequential
// job-order fold, where this journal assigns the global `seq` — so the
// serialized journal is byte-identical at any host thread count. The file
// write is crash-safe (whole document to a sibling .tmp, atomic rename),
// the same discipline as MetricsSink::write_file.
//
// Recording is off by default (enabled() gates the engine's buffering);
// the soak CLI's --journal flag enables it and writes the file.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "rt/status.hpp"

namespace gnnbridge::obs {

/// One lifecycle event. `seq` is assigned by append(); every other field
/// is filled by the emitter. Types: "attempt", "degradation", "outcome",
/// plus the shard-recovery events "fault_injected" (`key` the seam,
/// `attempt` the 1-based shot index), "shard_retry" (`key` the seam,
/// `detail` the layer/phase/shard, `cycles` the wasted failed-attempt
/// cycles) and "shard_fallback" (`key` the seam, `code` the disabled knob;
/// DESIGN.md §17).
struct JournalEvent {
  std::uint64_t seq = 0;
  std::string request_id;
  std::string type;
  /// Event subject: the job's "<model>/<graph fingerprint>" for
  /// attempt/outcome events, the fault seam for the others.
  std::string key;
  /// Status code (rt::status_code_name) for attempts, outcomes and fault
  /// shots; the disabled knob for degradations and shard fallbacks.
  std::string code;
  std::string detail;
  std::uint64_t attempt = 0;
  /// Sim-cycles attributed to the event (attempt cost, wasted recovery work).
  double cycles = 0.0;
};

/// Singleton collector. Thread-safe; run_batch only appends from its
/// sequential fold, but tests and future emitters may append anywhere.
class EventJournal {
 public:
  static EventJournal& instance();

  /// True when events should be recorded (set_enabled).
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Appends one event, assigning the next sequence number, and returns
  /// the assigned seq. When the journal is disabled nothing is stored
  /// (returns 0).
  std::uint64_t append(JournalEvent event);

  std::size_t size() const;
  std::vector<JournalEvent> snapshot() const;
  void clear();

  /// The whole journal as JSONL (one event object per line).
  std::string to_jsonl() const;

  /// Crash-safe write: whole journal to `path` via sibling .tmp + rename.
  rt::Status write_file(const std::string& path) const;

 private:
  EventJournal() = default;
  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::uint64_t next_seq_ = 0;
  std::vector<JournalEvent> events_;
};

}  // namespace gnnbridge::obs
