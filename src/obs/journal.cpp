#include "obs/journal.hpp"

#include <cstdio>

#include "prof/json_writer.hpp"
#include "rt/atomic_file.hpp"

namespace gnnbridge::obs {

EventJournal& EventJournal::instance() {
  static EventJournal* journal = new EventJournal();  // leaked: outlives atexit
  return *journal;
}

std::uint64_t EventJournal::append(JournalEvent event) {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  event.seq = next_seq_++;
  events_.push_back(std::move(event));
  return events_.back().seq;
}

std::size_t EventJournal::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<JournalEvent> EventJournal::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

void EventJournal::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  next_seq_ = 0;
}

std::string EventJournal::to_jsonl() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const JournalEvent& ev : events_) {
    prof::JsonWriter w(&out);
    w.begin_object();
    w.kv("seq", ev.seq);
    w.kv("req", std::string_view(ev.request_id));
    w.kv("type", std::string_view(ev.type));
    w.kv("key", std::string_view(ev.key));
    w.kv("code", std::string_view(ev.code));
    w.kv("detail", std::string_view(ev.detail));
    w.kv("attempt", ev.attempt);
    w.kv("cycles", ev.cycles);
    w.end_object();
    out += '\n';
  }
  return out;
}

rt::Status EventJournal::write_file(const std::string& path) const {
  rt::Status s = rt::write_file_atomic(path, to_jsonl());
  if (s.ok()) return s;
  std::fprintf(stderr, "gnnbridge: cannot write event journal '%s': %s\n", path.c_str(),
               s.message().c_str());
  return std::move(s).with_context("EventJournal::write_file('" + path + "')");
}

}  // namespace gnnbridge::obs
