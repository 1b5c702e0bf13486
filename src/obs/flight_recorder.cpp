#include "obs/flight_recorder.hpp"

#include <cstdio>
#include <cstdlib>

#include "prof/json_writer.hpp"
#include "rt/atomic_file.hpp"

namespace gnnbridge::obs {

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder* recorder = new FlightRecorder();  // leaked: outlives atexit
  return *recorder;
}

const char* FlightRecorder::env_path() {
  const char* env = std::getenv("GNNBRIDGE_FLIGHT_RECORDER");
  return (env && *env) ? env : nullptr;
}

FlightRecorder::FlightRecorder() {
  if (const char* path = env_path()) path_ = path;
}

bool FlightRecorder::armed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !path_.empty();
}

void FlightRecorder::arm(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  path_ = path;
}

void FlightRecorder::disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  path_.clear();
}

void FlightRecorder::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity > 0 ? capacity : 1;
  while (ring_.size() > capacity_) ring_.pop_front();
}

std::size_t FlightRecorder::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

std::string FlightRecorder::classify_locked(const JournalEvent& event) {
  if (event.type == "outcome" && event.detail == "timed_out") return "deadline_miss";
  if (event.type == "breaker" && event.code == "open") return "breaker_open";
  if (event.type == "slo_violation" && event.code == "budget_exhausted") {
    return "slo_budget_exhausted";
  }
  // Shard recovery exhausted its per-shard attempt budget and the run fell
  // back to unsharded execution (DESIGN.md §17): the run still succeeds,
  // but the capacity the sharding bought is gone — postmortem-worthy.
  if (event.type == "shard_fallback") return "shard_fallback";
  if (event.type == "shed") {
    // Rising-edge latch: fire on the shed that completes the burst, stay
    // silent while the window remains at/above threshold, and re-arm only
    // once it drains below — so a sustained burst whose in-window count
    // dips back to exactly the threshold (old sheds aging out) still
    // produces one dump, not one per recrossing.
    std::size_t window = ring_.size() < kShedBurstWindow ? ring_.size() : kShedBurstWindow;
    std::size_t sheds = 0;
    for (std::size_t i = ring_.size() - window; i < ring_.size(); ++i) {
      if (ring_[i].type == "shed") ++sheds;
    }
    if (sheds >= kShedBurstCount) {
      if (!shed_burst_latched_) {
        shed_burst_latched_ = true;
        return "shed_burst";
      }
    } else {
      shed_burst_latched_ = false;
    }
  }
  return "";
}

void FlightRecorder::record(const JournalEvent& event) {
  std::string doc;
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ring_.push_back(event);
    while (ring_.size() > capacity_) ring_.pop_front();
    const std::string kind = classify_locked(event);
    if (kind.empty()) return;
    ++dump_count_;
    last_trigger_ = kind;
    if (path_.empty()) return;
    path = path_;
    doc = postmortem_json_locked(kind, event);
  }
  // Serialized: concurrent triggers would otherwise truncate and
  // interleave the shared `<path>.tmp` staging file.
  std::lock_guard<std::mutex> write_lock(write_mu_);
  if (const rt::Status s = rt::write_file_atomic(path, doc); !s.ok()) {
    std::fprintf(stderr, "gnnbridge: cannot write postmortem '%s': %s\n", path.c_str(),
                 s.message().c_str());
  }
}

std::deque<JournalEvent> FlightRecorder::ring() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_;
}

std::uint64_t FlightRecorder::dump_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dump_count_;
}

std::string FlightRecorder::last_trigger() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_trigger_;
}

std::string FlightRecorder::postmortem_json(const std::string& trigger_kind,
                                            const JournalEvent& trigger) const {
  std::lock_guard<std::mutex> lock(mu_);
  return postmortem_json_locked(trigger_kind, trigger);
}

std::string FlightRecorder::postmortem_json_locked(const std::string& trigger_kind,
                                                   const JournalEvent& trigger) const {
  std::string out;
  prof::JsonWriter w(&out);
  w.begin_object();
  w.kv("schema", "gnnbridge-postmortem");
  w.kv("schema_version", 1);
  w.key("trigger");
  w.begin_object();
  w.kv("kind", std::string_view(trigger_kind));
  write_event_fields(w, trigger);
  w.end_object();
  w.kv("dump_count", dump_count_);
  w.kv("ring_capacity", static_cast<std::uint64_t>(capacity_));
  w.key("events");
  w.begin_array();
  for (const JournalEvent& ev : ring_) {
    w.begin_object();
    write_event_fields(w, ev);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out += '\n';
  return out;
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  dump_count_ = 0;
  last_trigger_.clear();
  shed_burst_latched_ = false;
  capacity_ = kFlightRecorderDefaultCapacity;
  path_ = env_path() ? env_path() : "";
}

}  // namespace gnnbridge::obs
