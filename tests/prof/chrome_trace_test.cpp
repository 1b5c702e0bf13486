// Chrome-trace exporter smoke tests: the document must be well-formed
// JSON, and every B must be closed by a matching E in file order (Perfetto
// rejects unbalanced duration events) — what check_chrome_trace verifies.
#include "prof/chrome_trace.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "prof/json_reader.hpp"
#include "sim/counters.hpp"
#include "sim/device.hpp"

namespace gnnbridge::prof {
namespace {

struct Event {
  std::string name;
  char ph;
};

// Parses the document, runs the exporter's own check on it (well-formed
// envelope, required keys, every E closing the innermost open B of its
// track, nothing left open) and returns (name, ph) per event in file order.
std::vector<Event> checked_events(const std::string& doc) {
  const auto parsed = parse_json(doc);
  EXPECT_TRUE(parsed.ok()) << parsed.status().to_string();
  if (!parsed.ok()) return {};
  const auto durations = check_chrome_trace(*parsed);
  EXPECT_TRUE(durations.ok()) << durations.status().to_string();
  const JsonValue* trace_events = parsed->find("traceEvents");
  if (!trace_events) return {};
  std::vector<Event> events;
  for (const JsonValue& ev : trace_events->items) {
    events.push_back({ev.str_or("name", ""), ev.str_or("ph", "?")[0]});
  }
  return events;
}

SpanRecord span(std::string name, int tid, int depth, std::uint64_t start,
                std::uint64_t dur) {
  SpanRecord s;
  s.name = std::move(name);
  s.category = "test";
  s.tid = tid;
  s.depth = depth;
  s.start_us = start;
  s.duration_us = dur;
  return s;
}

TEST(ChromeTraceTest, EmptyTraceIsValidJson) {
  const std::string doc = chrome_trace_json({});
  EXPECT_EQ(checked_events(doc).size(), 1u);  // the process_name metadata event
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("gnnbridge host"), std::string::npos);
}

TEST(ChromeTraceTest, NestedSpansEmitMatchedEventsInFileOrder) {
  // Completion order (as the tracer stores them): innermost first.
  std::vector<SpanRecord> spans;
  spans.push_back(span("inner", 0, 1, 10, 40));
  spans.push_back(span("outer", 0, 0, 0, 100));
  spans.push_back(span("second", 0, 0, 150, 10));

  const auto events = checked_events(chrome_trace_json(spans));
  std::vector<std::string> sequence;
  for (const Event& e : events) {
    if (e.ph == 'B' || e.ph == 'E') sequence.push_back(std::string(1, e.ph) + ":" + e.name);
  }
  const std::vector<std::string> want = {"B:outer", "B:inner", "E:inner",
                                         "E:outer", "B:second", "E:second"};
  EXPECT_EQ(sequence, want);
}

TEST(ChromeTraceTest, ZeroDurationSiblingsAtSameInstantStayBalanced) {
  std::vector<SpanRecord> spans;
  spans.push_back(span("a", 0, 0, 5, 0));
  spans.push_back(span("b", 0, 0, 5, 0));
  checked_events(chrome_trace_json(spans));
}

TEST(ChromeTraceTest, MultipleThreadsEachBalance) {
  std::vector<SpanRecord> spans;
  spans.push_back(span("t0_inner", 0, 1, 2, 4));
  spans.push_back(span("t1_span", 1, 0, 0, 50));
  spans.push_back(span("t0_outer", 0, 0, 0, 10));
  checked_events(chrome_trace_json(spans));
}

TEST(ChromeTraceTest, SimTrackEmitsKernelsAndOccupancyCounters) {
  sim::RunStats stats;
  sim::KernelStats k;
  k.name = "spmm_node";
  k.phase = "aggregation";
  k.num_blocks = 4;
  k.cycles = 2000.0;
  k.makespan = 1000.0;
  k.l2_hits = 3;
  k.l2_misses = 1;
  k.flops = 256.0;
  k.timeline.add_interval(0.0, 500.0, 4);
  k.timeline.add_interval(500.0, 1000.0, 2);
  stats.kernels.push_back(k);
  stats.total_cycles = 2000.0;
  const sim::DeviceSpec spec = sim::v100();

  const std::string doc = chrome_trace_json({}, &stats, &spec);
  EXPECT_NE(doc.find("simulated GPU"), std::string::npos);
  EXPECT_NE(doc.find("\"spmm_node\""), std::string::npos);
  EXPECT_NE(doc.find("\"active_blocks\""), std::string::npos);

  const auto events = checked_events(doc);
  int counters = 0;
  for (const Event& e : events) {
    if (e.ph == 'C') {
      EXPECT_EQ(e.name, "active_blocks");
      ++counters;
    }
  }
  EXPECT_EQ(counters, 3);  // two intervals + the trailing zero sample
}

}  // namespace
}  // namespace gnnbridge::prof
