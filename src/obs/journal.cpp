#include "obs/journal.hpp"

#include <cstdio>

#include "prof/fields.hpp"
#include "rt/atomic_file.hpp"

namespace gnnbridge::obs {

std::uint64_t EventJournal::append(JournalEvent event) {
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
    prof::FieldWriter(w).write(ev, journal_event_fields);
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

rt::Result<JournalSummary> check_journal(std::string_view text) {
  JournalSummary summary;
  for (std::size_t lineno = 1; !text.empty(); ++lineno) {
    const std::size_t eol = text.find('\n');
    const std::string_view line = text.substr(0, eol);
    text = eol == std::string_view::npos ? std::string_view() : text.substr(eol + 1);
    const std::string where = "line " + std::to_string(lineno);
    const auto fail = [&where](const std::string& what) {
      return rt::Status(rt::StatusCode::kDataLoss, where + ": " + what);
    };
    if (line.empty()) return fail("empty line");
    const auto parsed = prof::parse_json(line);
    if (!parsed.ok()) return fail(parsed.status().message());
    JournalEvent ev;
    if (rt::Status s = prof::read_record(*parsed, where, ev, journal_event_fields); !s.ok()) {
      return s;
    }
    if (ev.seq != summary.events) {
      return fail("seq " + std::to_string(ev.seq) + ", expected " +
                  std::to_string(summary.events));
    }
    ++summary.events;
    ++summary.events_by_type[ev.type];
    summary.requests.insert(std::move(ev.request_id));
  }
  return summary;
}

}  // namespace gnnbridge::obs
