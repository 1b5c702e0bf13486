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
#include <string>

#include "obs/request.hpp"
#include "prof/fields.hpp"
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

TEST(JournalTest, AppendAssignsContiguousSeqAndClearResets) {
  EventJournal journal;
  EXPECT_EQ(journal.append(sample_event("req-a", "attempt")), 0u);
  EXPECT_EQ(journal.append(sample_event("req-a", "degradation")), 1u);
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

TEST(JournalTest, JsonlLinesParseAndRoundTripEveryField) {
  EventJournal journal;
  JournalEvent ev = sample_event("req-42", "attempt");
  ev.detail = "quoted \"detail\"";
  ev.attempt = 2;
  ev.cycles = 4096.0;
  journal.append(ev);
  journal.append(sample_event("req-43", "degradation"));

  const std::string jsonl = journal.to_jsonl();
  const auto summary = check_journal(jsonl);  // every line parses, seq 0, 1
  ASSERT_TRUE(summary.ok()) << summary.status().to_string() << "\n" << jsonl;
  EXPECT_EQ(summary->events, 2u);

  auto first = prof::parse_json(jsonl.substr(0, jsonl.find('\n')));
  ASSERT_TRUE(first.ok());
  JournalEvent back;
  ASSERT_TRUE(prof::read_record(*first, "", back, journal_event_fields).ok());
  EXPECT_EQ(back.seq, 0u);
  EXPECT_EQ(back.request_id, "req-42");
  EXPECT_EQ(back.type, "attempt");
  EXPECT_EQ(back.key, "gcn/0000000000000000");
  EXPECT_EQ(back.code, "OK");
  EXPECT_EQ(back.detail, "quoted \"detail\"");
  EXPECT_EQ(back.attempt, 2u);
  EXPECT_EQ(back.cycles, 4096.0);
}

TEST(JournalTest, WriteFileSurvivesAKillMidWrite) {
  EventJournal journal;
  journal.append(sample_event("req-a", "attempt"));
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

TEST(JournalTest, WriteFailureCarriesThePath) {
  EventJournal journal;
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

TEST(JournalTest, RequestScopeNestsAndRestores) {
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
