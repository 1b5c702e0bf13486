// `gnnbridge_cli check`: each rule it enforces gets a crafted file that
// breaks it (an edit of a valid file), which must fail with exit 1 and a
// `PATH: FAIL: <error>` line; the valid files pass with exit 0.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "prof/metrics_json.hpp"
#include "rt/degrade.hpp"

namespace gnnbridge {
namespace {

struct Outcome {
  int exit_code = -1;
  std::string output;  ///< stdout and stderr
};

Outcome run_check(const std::string& args) {
  Outcome o;
  const std::string cmd = std::string(GNNBRIDGE_CLI) + " check " + args + " 2>&1";
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  if (!pipe) return o;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), pipe)) > 0;) o.output.append(buf, n);
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) o.exit_code = WEXITSTATUS(status);
  return o;
}

/// A temp file named after the running test (ctest runs them concurrently).
std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "check_cli_" +
                           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                           "_" + name;
  std::ofstream(path, std::ios::binary) << text;
  return path;
}

/// A document holding every record: a run with one kernel (so one
/// gap_report entry), a degradation, two counters and a histogram.
std::string valid_metrics() {
  prof::MetricsSink& sink = prof::MetricsSink::instance();
  sink.clear();
  sink.configure("check", 0.25);
  sink.set_meta({.git_sha = "g", .timestamp = "t", .hostname = "h", .scale_env = "", .threads = 2});
  prof::RunRecord rec;
  rec.stats.kernels.resize(1);
  rec.stats.kernels[0].num_blocks = 3;
  rec.stats.kernels[0].l2_hits = 6;
  rec.stats.kernels[0].l2_misses = 2;
  sink.record(rec);
  sink.record_degradation(rt::make_degradation("las_cluster", "las", "las->natural_order",
                                               rt::Status(rt::StatusCode::kFaultInjected, "x")));
  obs::TelemetryRegistry& reg = sink.telemetry();
  reg.counter_add("serve.attempts", 2);
  reg.counter_add("serve.retries", 1);
  reg.observe("serve.job_cycles", 1024.0);
  const std::string doc = sink.to_json();
  sink.clear();
  return doc;
}

constexpr const char* kJournal =
    R"({"seq":0,"req":"r","type":"attempt","key":"k","code":"OK","detail":"","attempt":1,"cycles":1})"
    "\n"
    R"({"seq":1,"req":"r","type":"outcome","key":"k","code":"OK","detail":"","attempt":1,"cycles":1})"
    "\n";

std::string trace_of(const std::string& events) {
  return R"({"displayTimeUnit":"ms","traceEvents":[)" + events + "]}";
}
const std::string kB = R"({"name":"a","ph":"B","ts":0,"pid":1,"tid":0})";
const std::string kE = R"({"name":"a","ph":"E","ts":1,"pid":1,"tid":0})";

struct Case {
  std::string from;   ///< replaced in the valid file...
  std::string to;     ///< ...by this
  std::string error;  ///< the FAIL line's message
};

/// Checks `good` with each case's edit applied: exit 1 and its error.
void expect_each_fails(const std::string& good, const std::vector<Case>& cases,
                       const std::string& flags) {
  for (const Case& c : cases) {
    SCOPED_TRACE(c.error);
    std::string text = good;
    const std::size_t at = text.find(c.from);
    ASSERT_NE(at, std::string::npos) << c.from << "\n" << good;
    const std::string path = write_temp("bad", text.replace(at, c.from.size(), c.to));
    const Outcome o = run_check(flags + " " + path);
    EXPECT_EQ(o.exit_code, 1) << o.output;
    EXPECT_NE(o.output.find(path + ": FAIL: " + c.error), std::string::npos) << o.output;
    std::remove(path.c_str());
  }
}

TEST(CheckCli, ValidFilesPass) {
  const std::string metrics = write_temp("metrics", valid_metrics());
  const std::string journal = write_temp("journal", kJournal);
  const std::string trace = write_temp("trace", trace_of(kB + "," + kE));
  const std::pair<std::string, std::string> cases[] = {
      {metrics, metrics + ": OK (1 runs, 1 degradations, schema v12)\n"},
      {"--expect-degradations 1 " + metrics, metrics + ": OK (1 runs, 1 degradations"},
      {"--journal " + journal, journal + ": OK (2 events, 1 requests, seq contiguous)\n"},
      {"--trace " + trace, trace + ": OK (1 duration events, B/E balanced)\n"},
  };
  for (const auto& [args, line] : cases) {
    const Outcome o = run_check(args);
    EXPECT_EQ(o.exit_code, 0) << args << "\n" << o.output;
    EXPECT_NE(o.output.find(line), std::string::npos) << o.output;
  }
  for (const std::string& path : {metrics, journal, trace}) std::remove(path.c_str());
}

TEST(CheckCli, EveryMetricsRuleFails) {
  const std::string good = valid_metrics();
  const std::string counters =
      R"([{"name":"serve.attempts","value":2},{"name":"serve.retries","value":1}])";
  expect_each_fails(good, {
      // The schema and the document's shape.
      {R"("gnnbridge-metrics")", R"("x")", "not a gnnbridge-metrics document"},
      {R"("schema_version":12)", R"("schema_version":13)",
       "unsupported schema_version 13; this build reads 12 (the document is newer: update"},
      {R"("schema_version":12)", R"("schema_version":11)", "unsupported schema_version 11"},
      {R"("experiment":"check","scale":0.25)", R"("scale":0.25,"experiment":"check")",
       "experiment: key out of order"},
      {"}}\n", R"(},"slo":{}})" "\n", "slo: unexpected key"},
      {R"("runs":[{)", R"("runs":[7,{)", "runs[0]: expected object"},
      {R"("kernels":[)", R"("kernels":7,"x":[)", "runs[0].kernels: expected array"},
      {R"("gap_report":[{)", R"("gap_report":[],"x":[{)", "gap_report: expected one entry per run"},
      // A missing or mistyped key in every record.
      {R"(,"threads":2})", "}", "meta.threads: missing key"},
      {R"("threads":2)", R"("threads":2.0)", "meta.threads: expected integer"},
      {R"("label":"")", R"("label":null)", "runs[0].label: expected string"},
      {R"("ms":0,)", R"("ms":1e999,)", "runs[0].ms: non-finite number"},
      {R"("oom":false)", R"("oom":0)", "runs[0].oom: expected boolean"},
      {R"("dram_cycles_per_line":63)", R"("dram_cycles_per_line":"63")",
       "runs[0].device.dram_cycles_per_line: expected number"},
      {R"("launches":1,)", "", "runs[0].totals.launches: missing key"},
      {R"("l2_misses":2,"l2_hit_rate":0.75,"dram_bytes":0,"flops")",
       R"("l2_hit_rate":0.75,"dram_bytes":0,"flops")", "runs[0].kernels[0].l2_misses: missing key"},
      {R"("blocks":3)", R"("blocks":3.5)", "runs[0].kernels[0].blocks: expected integer"},
      {R"("attributed_cycles":0.128125,)", "", "gap_report[0].attributed_cycles: missing key"},
      {R"("locality":{"cycles":0.128125)", R"("locality":{"cycles":"0")",
       "gap_report[0].locality.cycles: expected number"},
      {R"("ratio":1)", R"("ratio":null)", "gap_report[0].imbalance.ratio: expected number"},
      {R"(,"launches":1})", "}", "gap_report[0].launch_overhead.launches: missing key"},
      {R"("synchronization":{"cycles":0,"global_syncs":0)",
       R"("synchronization":{"cycles":0,"global_syncs":-1)",
       "gap_report[0].synchronization.global_syncs: integer out of range"},
      {R"("redundant_flops":0)", R"("redundant_flops":true)",
       "gap_report[0].redundancy.redundant_flops: expected number"},
      {R"(,"shards":1}}])", "}}]", "gap_report[0].inter_shard_traffic.shards: missing key"},
      {R"("injected":true)", R"("injected":"yes")", "degradations[0].injected: expected boolean"},
      {R"("counters":)", R"("counter":)", "telemetry.counters: missing key"},
      {R"("serve.attempts","value":2})", R"("serve.attempts"})",
       "telemetry.counters[0].value: missing key"},
      {R"("p90":1024,)", "", "telemetry.histograms[0].p90: missing key"},
      {R"("count":1}])", R"("count":1.0}])",
       "telemetry.histograms[0].buckets[0].count: expected integer"},
      // The value invariants.
      {R"("l2_hit_rate":0.75,"dram_bytes":0,"gflops")",
       R"("l2_hit_rate":1.5,"dram_bytes":0,"gflops")", "runs[0].totals.l2_hit_rate: out of [0, 1]"},
      {R"("l2_hit_rate":0.75,"dram_bytes":0,"flops")", R"("l2_hit_rate":-1,"dram_bytes":0,"flops")",
       "runs[0].kernels[0].l2_hit_rate: out of [0, 1]"},
      {R"("l2_hit_rate":0.75})", R"("l2_hit_rate":2})",
       "gap_report[0].locality.l2_hit_rate: out of [0, 1]"},
      {R"("shards":1},"kernels")", R"("shards":0},"kernels")", "runs[0].totals: shards must be >= 1"},
      {R"("ghost_bytes":0,"exchange_syncs":0,"exchange_cycles")",
       R"("ghost_bytes":64,"exchange_syncs":0,"exchange_cycles")",
       "runs[0].totals: unsharded run with ghost traffic"},
      {R"("sum":1024)", R"("sum":-1024)", "telemetry.histograms[0]: negative cycles"},
      {R"("count":1,"sum")", R"("count":2,"sum")",
       "telemetry.histograms[0]: bucket counts do not sum to count"},
      {R"("p50":1024)", R"("p50":4096)", "telemetry.histograms[0]: p50 outside [min, max]"},
      {R"("count":1,"sum":1024,"min":1024,"max":1024,"p50":1024,"p90":1024,"p99":1024,)"
       R"("buckets":[{"le":1217.74808576,"count":1}])",
       R"("count":0,"sum":0,"min":0,"max":0,"p50":0,"p90":0,"p99":1,"buckets":[])",
       "telemetry.histograms[0]: empty histogram must report all-zero statistics"},
      {counters, R"([{"name":"serve.attempts","value":2},{"name":"serve.attempts","value":2}])",
       "telemetry: duplicate counter name"},
      {counters, R"([{"name":"serve.attempts","value":0},{"name":"serve.retries","value":1}])",
       "telemetry: serve.attempts < serve.retries"},
      {counters,
       R"([{"name":"recovery.shard_retries","value":1},{"name":"recovery.shards_reexecuted","value":2}])",
       "telemetry: recovery.shards_reexecuted > recovery.shard_retries"},
  }, "");
  expect_each_fails(good, {{"", "", "degradations: expected 2 events, got 1"}},
                    "--expect-degradations 2");
}

TEST(CheckCli, EveryJournalRuleFails) {
  expect_each_fails(kJournal, {
      {"}\n{", "}\n\n{", "line 2: empty line"},
      {R"("req":)", R"("request":)", "line 1.req: missing key"},
      {R"("seq":1)", R"("seq":2)", "line 2: seq 2, expected 1"},
      {R"("type":"outcome")", R"("type":"bogus")", "line 2: unknown event type"},
      {R"("req":"r")", R"("req":"")", "line 1: empty request id"},
      {R"("cycles":1})", R"("cycles":1)", "line 1: "},
  }, "--journal");
}

TEST(CheckCli, EveryTraceRuleFails) {
  expect_each_fails(trace_of(kB + "," + kE), {
      {R"("traceEvents":[)", R"("traceEvents":{},"x":[)",
       "top level: expected object with 'traceEvents' array"},
      {R"(,"tid":0})", "}", "traceEvents[0]: missing key 'tid'"},
      {R"("ph":"B")", R"("ph":"X")", "traceEvents[0]: unexpected phase 'X'"},
      {R"("ts":0,)", "", "traceEvents[0]: missing or invalid 'ts'"},
      {kB + ",", "", "traceEvents[0]: 'E' for 'a' with no open 'B'"},
      {kB + ",", kB + "," + R"({"name":"b","ph":"B","ts":0,"pid":1,"tid":0},)",
       "traceEvents[2]: 'E' for 'a' closes open span 'b'"},
      {"," + kE, "", "track (1, 0): unclosed 'B' for 'a'"},
  }, "--trace");
}

TEST(CheckCli, TraceWithJournalIsAUsageError) {
  const std::string path = write_temp("usage", kJournal);
  EXPECT_EQ(run_check("--trace --journal " + path).exit_code, 2);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gnnbridge
