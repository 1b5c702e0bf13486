// Request-scoped event journal (DESIGN.md §13): sequential seq assignment,
// JSONL shape, and the crash-safe file write (whole document to a sibling
// .tmp, atomic rename — the same kill-mid-write contract as the metrics
// and trace artifacts, simulated with a real fork()).
#include "obs/journal.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/request.hpp"
#include "prof/json_reader.hpp"
#include "rt/status.hpp"

namespace gnnbridge::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool file_exists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return in.good();
}

// Forks; the child writes `garbage` to `path` and dies without renaming —
// a crash between the temp-file write and the rename.
void crash_while_writing(const std::string& path, const std::string& garbage) {
  const pid_t pid = fork();
  ASSERT_NE(pid, -1) << "fork failed";
  if (pid == 0) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f) {
      std::fwrite(garbage.data(), 1, garbage.size(), f);
      std::fflush(f);
    }
    _exit(0);  // no atexit hooks, no gtest teardown: die like a crash
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
}

JournalEvent sample_event(const std::string& req, const std::string& type) {
  JournalEvent ev;
  ev.request_id = req;
  ev.type = type;
  ev.key = "gcn/0000000000000000";
  ev.code = "OK";
  ev.attempt = 1;
  ev.cycles = 123.5;
  return ev;
}

class JournalTest : public ::testing::Test {
 protected:
  // append() only stores while the journal is enabled, so the storage
  // tests arm it here.
  void SetUp() override {
    EventJournal::instance().clear();
    EventJournal::instance().set_enabled(true);
  }
  void TearDown() override {
    EventJournal::instance().clear();
    EventJournal::instance().set_enabled(false);
  }
};

TEST_F(JournalTest, AppendAssignsContiguousSeqAndClearResets) {
  EventJournal& journal = EventJournal::instance();
  EXPECT_EQ(journal.append(sample_event("req-a", "admission")), 0u);
  EXPECT_EQ(journal.append(sample_event("req-a", "attempt")), 1u);
  EXPECT_EQ(journal.append(sample_event("req-b", "outcome")), 2u);
  EXPECT_EQ(journal.size(), 3u);
  const auto events = journal.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[2].seq, 2u);
  EXPECT_EQ(events[2].request_id, "req-b");

  journal.clear();
  EXPECT_EQ(journal.size(), 0u);
  EXPECT_EQ(journal.append(sample_event("req-c", "outcome")), 0u)
      << "clear() must reset the sequence counter";
}

TEST_F(JournalTest, JsonlLinesParseAndRoundTripEveryField) {
  EventJournal& journal = EventJournal::instance();
  JournalEvent ev = sample_event("req-42", "backoff");
  ev.detail = "quoted \"detail\"";
  ev.attempt = 2;
  ev.cycles = 4096.0;
  journal.append(ev);
  journal.append(sample_event("req-43", "degradation"));

  const std::string jsonl = journal.to_jsonl();
  std::istringstream lines(jsonl);
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    auto parsed = prof::parse_json(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string() << "\n" << line;
    EXPECT_EQ(parsed->uint_or("seq", 999), n);
    ++n;
  }
  EXPECT_EQ(n, 2u);

  auto first = prof::parse_json(jsonl.substr(0, jsonl.find('\n')));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->str_or("req", ""), "req-42");
  EXPECT_EQ(first->str_or("type", ""), "backoff");
  EXPECT_EQ(first->str_or("key", ""), "gcn/0000000000000000");
  EXPECT_EQ(first->str_or("code", ""), "OK");
  EXPECT_EQ(first->str_or("detail", ""), "quoted \"detail\"");
  EXPECT_EQ(first->uint_or("attempt", 0), 2u);
  EXPECT_EQ(first->num_or("cycles", 0.0), 4096.0);
}

TEST_F(JournalTest, WriteFileSurvivesAKillMidWrite) {
  EventJournal& journal = EventJournal::instance();
  journal.append(sample_event("req-a", "admission"));
  journal.append(sample_event("req-a", "outcome"));
  const std::string path = ::testing::TempDir() + "journal_crash.jsonl";
  ASSERT_TRUE(journal.write_file(path).ok());
  const std::string good = read_file(path);
  ASSERT_FALSE(good.empty());

  // The writer dies after staging half a journal in the temp file. The
  // target must still hold the previous complete journal.
  crash_while_writing(path + ".tmp", "{\"seq\":0,\"req\":\"req-");
  EXPECT_EQ(read_file(path), good) << "kill mid-write corrupted the journal";

  // The next write replaces the stale temp file and the target atomically.
  ASSERT_TRUE(journal.write_file(path).ok());
  EXPECT_EQ(read_file(path), good);
  EXPECT_FALSE(file_exists(path + ".tmp"));
}

TEST_F(JournalTest, WriteFailureCarriesThePath) {
  EventJournal& journal = EventJournal::instance();
  journal.append(sample_event("req-a", "outcome"));
  const std::string path = ::testing::TempDir() + "no_such_dir/journal.jsonl";
  const rt::Status status = journal.write_file(path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), rt::StatusCode::kUnavailable);
  ASSERT_FALSE(status.context().empty());
  EXPECT_NE(status.context().back().find(path), std::string::npos)
      << "context frame must name the target path: " << status.to_string();
  EXPECT_FALSE(file_exists(path));
}

TEST_F(JournalTest, RequestScopeNestsAndRestores) {
  EXPECT_EQ(current_request_id(), "");
  {
    const std::string outer = "req-outer";
    RequestScope outer_scope(outer);
    EXPECT_EQ(current_request_id(), "req-outer");
    {
      const std::string inner = "req-inner";
      RequestScope inner_scope(inner);
      EXPECT_EQ(current_request_id(), "req-inner");
    }
    EXPECT_EQ(current_request_id(), "req-outer");
  }
  EXPECT_EQ(current_request_id(), "");
}

}  // namespace
}  // namespace gnnbridge::obs
