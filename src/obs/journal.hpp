// Request-scoped event journal (DESIGN.md §13).
//
// An append-only log of batch-job lifecycle events: one JSONL line per
// attempt, degradation, injected fault, shard recovery step and outcome,
// each tagged with the originating job's request id — filter on the id
// and a single job's full story (attempts -> degradations -> outcome)
// reads back in order.
//
// A journal is a plain object with one owner: the caller of
// OptimizedEngine::run_batch passes it in (a null journal records
// nothing). Each job collects its events in its own run record during the
// parallel wave, and run_batch's sequential job-order fold publishes the
// records into the journal, which assigns `seq` — so the serialized
// journal is byte-identical at any host thread count. The file write is
// crash-safe (whole document to a sibling .tmp, atomic rename), the same
// discipline as MetricsSink::write_file. The soak CLI's --journal flag
// writes one.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
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

/// Every event type a journal line may carry (see JournalEvent).
inline constexpr std::array<std::string_view, 6> kJournalEventTypes = {
    "attempt", "degradation", "outcome", "fault_injected", "shard_retry", "shard_fallback"};

/// The field list of one journal line, for prof::FieldWriter/FieldReader
/// (prof/fields.hpp).
inline constexpr auto journal_event_fields = [](auto& v, auto& ev) {
  v.field("seq", ev.seq);
  v.field("req", ev.request_id);
  v.field("type", ev.type);
  v.field("key", ev.key);
  v.field("code", ev.code);
  v.field("detail", ev.detail);
  v.field("attempt", ev.attempt);
  v.field("cycles", ev.cycles);
  v.check(!ev.request_id.empty(), "empty request id");
  v.check(std::find(kJournalEventTypes.begin(), kJournalEventTypes.end(), ev.type) !=
              kJournalEventTypes.end(),
          "unknown event type");
};

/// What a valid journal holds.
struct JournalSummary {
  std::size_t events = 0;
  std::set<std::string> requests;
  std::map<std::string, std::size_t> events_by_type;
};

/// Checks JSONL journal text as `to_jsonl` writes it: every line one event
/// read through journal_event_fields, and `seq` counting up from 0 without
/// a gap. kDataLoss naming the first bad line otherwise.
rt::Result<JournalSummary> check_journal(std::string_view text);

/// Event collector. Thread-safe; run_batch only appends from its
/// sequential fold, but tests and future emitters may append anywhere.
class EventJournal {
 public:
  /// Appends one event, assigning the next sequence number, and returns
  /// the assigned seq.
  std::uint64_t append(JournalEvent event);

  std::size_t size() const;
  std::vector<JournalEvent> snapshot() const;
  void clear();

  /// The whole journal as JSONL (one event object per line).
  std::string to_jsonl() const;

  /// Crash-safe write: whole journal to `path` via sibling .tmp + rename.
  rt::Status write_file(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::uint64_t next_seq_ = 0;
  std::vector<JournalEvent> events_;
};

}  // namespace gnnbridge::obs
