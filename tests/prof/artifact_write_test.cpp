// Crash-safe artifact writes (DESIGN.md §12):
// MetricsSink::write_file and write_chrome_trace_file stage the whole
// document in a sibling ".tmp" file and rename it into place, so a process
// killed mid-write never truncates a previously written artifact. The
// kill is simulated with a real fork(): the child dies after writing
// partial garbage to the temp file, exactly where a crash would land.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "prof/chrome_trace.hpp"
#include "prof/metrics_json.hpp"
#include "prof/tracer.hpp"
#include "rt/status.hpp"

namespace gnnbridge::prof {
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
// a crash between the temp-file write and the rename. Returns once the
// child is reaped.
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

MetricsSink& pinned_sink() {
  MetricsSink& sink = MetricsSink::instance();
  sink.clear();
  sink.configure("artifact_write_test", 0.05);
  sink.set_meta(MetaInfo{.git_sha = "fixed",
                         .timestamp = "2026-01-01T00:00:00Z",
                         .hostname = "fixed",
                         .scale_env = "",
                         .threads = 0});
  return sink;
}

TEST(ArtifactWriteTest, MetricsSurviveAKillMidWrite) {
  MetricsSink& sink = pinned_sink();
  const std::string path = ::testing::TempDir() + "artifact_metrics.json";
  ASSERT_TRUE(sink.write_file(path).ok());
  const std::string good = read_file(path);
  ASSERT_FALSE(good.empty());

  // The writer dies after staging half a document in the temp file. The
  // target must still hold the previous complete document.
  crash_while_writing(path + ".tmp", "{\"schema\": \"gnnbridge-metr");
  EXPECT_EQ(read_file(path), good) << "kill mid-write corrupted the target";

  // The next write replaces the stale temp file and the target atomically.
  ASSERT_TRUE(sink.write_file(path).ok());
  EXPECT_EQ(read_file(path), good);  // meta is pinned: byte-stable rewrite
  EXPECT_FALSE(file_exists(path + ".tmp"));
  sink.clear();
}

TEST(ArtifactWriteTest, SuccessfulMetricsWriteLeavesNoTempFile) {
  MetricsSink& sink = pinned_sink();
  const std::string path = ::testing::TempDir() + "artifact_metrics_clean.json";
  ASSERT_TRUE(sink.write_file(path).ok());
  EXPECT_TRUE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));
  sink.clear();
}

TEST(ArtifactWriteTest, MetricsWriteFailureCarriesThePath) {
  MetricsSink& sink = pinned_sink();
  const std::string path = ::testing::TempDir() + "no_such_dir/metrics.json";
  const rt::Status status = sink.write_file(path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), rt::StatusCode::kUnavailable);
  ASSERT_FALSE(status.context().empty());
  EXPECT_NE(status.context().back().find(path), std::string::npos)
      << "context frame must name the target path: " << status.to_string();
  EXPECT_FALSE(file_exists(path));
  sink.clear();
}

std::vector<SpanRecord> sample_spans() {
  SpanRecord span;
  span.name = "run_gcn";
  span.category = "engine";
  span.start_us = 10;
  span.duration_us = 250;
  return {span};
}

TEST(ArtifactWriteTest, ChromeTraceSurvivesAKillMidWrite) {
  const std::string path = ::testing::TempDir() + "artifact_trace.json";
  ASSERT_TRUE(write_chrome_trace_file(path, sample_spans()).ok());
  const std::string good = read_file(path);
  ASSERT_FALSE(good.empty());

  crash_while_writing(path + ".tmp", "{\"traceEvents\":[{\"na");
  EXPECT_EQ(read_file(path), good) << "kill mid-write corrupted the trace";

  ASSERT_TRUE(write_chrome_trace_file(path, sample_spans()).ok());
  EXPECT_EQ(read_file(path), good);
  EXPECT_FALSE(file_exists(path + ".tmp"));
}

TEST(ArtifactWriteTest, ChromeTraceWriteFailureCarriesThePath) {
  const std::string path = ::testing::TempDir() + "no_such_dir/trace.json";
  const rt::Status status = write_chrome_trace_file(path, sample_spans());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), rt::StatusCode::kUnavailable);
  ASSERT_FALSE(status.context().empty());
  EXPECT_NE(status.context().back().find(path), std::string::npos)
      << "context frame must name the target path: " << status.to_string();
  EXPECT_FALSE(file_exists(path));
}

}  // namespace
}  // namespace gnnbridge::prof
