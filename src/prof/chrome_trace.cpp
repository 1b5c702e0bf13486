#include "prof/chrome_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "prof/json_writer.hpp"
#include "rt/atomic_file.hpp"
#include "sim/timeline.hpp"

namespace gnnbridge::prof {

namespace {

constexpr int kHostPid = 1;
constexpr int kSimPid = 2;
/// Cap on occupancy counter samples emitted per kernel, so a trace of a
/// large run stays loadable.
constexpr std::size_t kMaxCounterSamples = 256;
/// Keys every event must carry, with their JSON kinds.
constexpr std::pair<const char*, JsonValue::Kind> kRequiredKeys[] = {
    {"name", JsonValue::Kind::kString},
    {"ph", JsonValue::Kind::kString},
    {"pid", JsonValue::Kind::kNumber},
    {"tid", JsonValue::Kind::kNumber}};

void event_common(JsonWriter& w, std::string_view name, std::string_view cat, char ph,
                  double ts_us, int pid, int tid) {
  w.kv("name", name);
  w.kv("cat", cat);
  char phs[2] = {ph, 0};
  w.kv("ph", std::string_view(phs, 1));
  w.kv("ts", ts_us);
  w.kv("pid", pid);
  w.kv("tid", tid);
}

void metadata_event(JsonWriter& w, int pid, std::string_view name) {
  w.begin_object();
  w.kv("name", "process_name");
  w.kv("ph", "M");
  w.kv("pid", pid);
  w.kv("tid", 0);
  w.key("args");
  w.begin_object();
  w.kv("name", name);
  w.end_object();
  w.end_object();
}

/// Emits one thread's spans as a correctly nested B/E sequence. Spans
/// arrive completion-ordered from the tracer; we re-sort by start time and
/// walk a stack so that every B is closed by its matching E in file order
/// (ties broken by recorded nesting depth).
void emit_thread_spans(JsonWriter& w, std::vector<const SpanRecord*> spans) {
  std::sort(spans.begin(), spans.end(), [](const SpanRecord* a, const SpanRecord* b) {
    if (a->start_us != b->start_us) return a->start_us < b->start_us;
    return a->depth < b->depth;
  });

  std::vector<const SpanRecord*> stack;
  auto emit_end = [&](const SpanRecord* s) {
    w.begin_object();
    event_common(w, s->name, s->category, 'E',
                 static_cast<double>(s->start_us + s->duration_us), kHostPid, s->tid);
    w.end_object();
  };

  for (const SpanRecord* s : spans) {
    while (!stack.empty()) {
      const SpanRecord* top = stack.back();
      const std::uint64_t top_end = top->start_us + top->duration_us;
      // An open span whose interval is over — or a same-instant sibling at
      // the same or shallower depth — must close before `s` begins.
      if (top_end < s->start_us || (top_end <= s->start_us && top->depth >= s->depth)) {
        emit_end(top);
        stack.pop_back();
      } else {
        break;
      }
    }
    w.begin_object();
    event_common(w, s->name, s->category, 'B', static_cast<double>(s->start_us), kHostPid,
                 s->tid);
    if (!s->args.empty() || !s->request_id.empty()) {
      w.key("args");
      w.begin_object();
      if (!s->request_id.empty()) w.kv("req", std::string_view(s->request_id));
      for (const auto& [k, v] : s->args) w.kv(k, v);
      w.end_object();
    }
    w.end_object();
    stack.push_back(s);
  }
  while (!stack.empty()) {
    emit_end(stack.back());
    stack.pop_back();
  }
}

void emit_sim_track(JsonWriter& w, const sim::RunStats& stats, const sim::DeviceSpec& spec) {
  const double us_per_cycle = 1.0 / (spec.clock_ghz * 1e3);
  double clock = 0.0;  // cumulative simulated time, cycles
  for (const auto& k : stats.kernels) {
    const double start_us = clock * us_per_cycle;
    const double end_us = (clock + k.cycles) * us_per_cycle;
    w.begin_object();
    event_common(w, k.name, k.phase.empty() ? "kernel" : k.phase, 'B', start_us, kSimPid, 0);
    w.key("args");
    w.begin_object();
    w.kv("cycles", k.cycles);
    w.kv("blocks", k.num_blocks);
    w.kv("l2_hit_rate", k.l2_hit_rate());
    w.kv("flops", k.flops);
    w.end_object();
    w.end_object();
    w.begin_object();
    event_common(w, k.name, k.phase.empty() ? "kernel" : k.phase, 'E', end_us, kSimPid, 0);
    w.end_object();

    // Occupancy counters: the makespan occupies the tail of the kernel
    // interval (after launch + framework overhead).
    const auto& intervals = k.timeline.intervals();
    const double makespan_start = clock + (k.cycles - k.makespan);
    const std::size_t stride = std::max<std::size_t>(1, intervals.size() / kMaxCounterSamples);
    for (std::size_t i = 0; i < intervals.size(); i += stride) {
      w.begin_object();
      event_common(w, "active_blocks", "occupancy", 'C',
                   (makespan_start + intervals[i].t0) * us_per_cycle, kSimPid, 0);
      w.key("args");
      w.begin_object();
      w.kv("active", intervals[i].active);
      w.end_object();
      w.end_object();
    }
    if (!intervals.empty()) {
      w.begin_object();
      event_common(w, "active_blocks", "occupancy", 'C', end_us, kSimPid, 0);
      w.key("args");
      w.begin_object();
      w.kv("active", 0);
      w.end_object();
      w.end_object();
    }
    clock += k.cycles;
  }
}

}  // namespace

std::string chrome_trace_json(const std::vector<SpanRecord>& spans,
                              const sim::RunStats* sim_stats, const sim::DeviceSpec* spec) {
  std::string out;
  JsonWriter w(&out);
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();
  metadata_event(w, kHostPid, "gnnbridge host");
  if (sim_stats && spec) metadata_event(w, kSimPid, "simulated GPU");

  std::map<int, std::vector<const SpanRecord*>> by_tid;
  for (const SpanRecord& s : spans) by_tid[s.tid].push_back(&s);
  for (auto& [tid, list] : by_tid) emit_thread_spans(w, std::move(list));

  if (sim_stats && spec) emit_sim_track(w, *sim_stats, *spec);
  w.end_array();
  w.end_object();
  out += '\n';
  if (w.nonfinite_count() > 0) {
    std::fprintf(stderr,
                 "gnnbridge: warning: chrome trace degraded %zu non-finite value(s) to 0\n",
                 w.nonfinite_count());
  }
  return out;
}

rt::Result<std::size_t> check_chrome_trace(const JsonValue& doc) {
  const auto fail = [](std::string what) {
    return rt::Status(rt::StatusCode::kDataLoss, std::move(what));
  };
  const JsonValue* events = doc.find("traceEvents");
  if (!events || !events->is_array()) {
    return fail("top level: expected object with 'traceEvents' array");
  }
  std::map<std::pair<double, double>, std::vector<std::string>> open;  // (pid, tid) -> B names
  std::size_t durations = 0;
  for (std::size_t i = 0; i < events->items.size(); ++i) {
    const JsonValue& ev = events->items[i];
    const std::string where = "traceEvents[" + std::to_string(i) + "]";
    if (!ev.is_object()) return fail(where + ": expected object");
    for (const auto& [key, kind] : kRequiredKeys) {
      const JsonValue* v = ev.find(key);
      if (!v) return fail(where + ": missing key '" + key + "'");
      if (v->kind != kind) return fail(where + ": mistyped '" + key + "'");
    }
    const std::string name = ev.str_or("name", "");
    const std::string ph = ev.str_or("ph", "");
    if (ph != "B" && ph != "E" && ph != "C" && ph != "M") {
      return fail(where + ": unexpected phase '" + ph + "'");
    }
    const JsonValue* ts = ev.find("ts");
    if (ph != "M" && !(ts && ts->is_number())) return fail(where + ": missing or invalid 'ts'");
    const auto number = [&ev](const char* key) {
      const JsonValue* v = ev.find(key);
      return v ? v->number_value : 0.0;
    };
    std::vector<std::string>& stack = open[{number("pid"), number("tid")}];
    if (ph == "B") {
      stack.push_back(name);
      ++durations;
    } else if (ph == "E") {
      if (stack.empty()) return fail(where + ": 'E' for '" + name + "' with no open 'B'");
      if (stack.back() != name) {
        return fail(where + ": 'E' for '" + name + "' closes open span '" + stack.back() + "'");
      }
      stack.pop_back();
    }
  }
  for (const auto& [track, stack] : open) {
    if (!stack.empty()) {
      char pid_tid[64];
      std::snprintf(pid_tid, sizeof(pid_tid), "(%.17g, %.17g)", track.first, track.second);
      return fail(std::string("track ") + pid_tid + ": unclosed 'B' for '" + stack.back() + "'");
    }
  }
  return durations;
}

rt::Status write_chrome_trace_file(const std::string& path, const std::vector<SpanRecord>& spans,
                                   const sim::RunStats* sim_stats, const sim::DeviceSpec* spec) {
  rt::Status s = rt::write_file_atomic(path, chrome_trace_json(spans, sim_stats, spec));
  if (s.ok()) return s;
  std::fprintf(stderr, "gnnbridge: cannot write trace file '%s': %s\n", path.c_str(),
               s.message().c_str());
  return std::move(s).with_context("write_chrome_trace_file('" + path + "')");
}

}  // namespace gnnbridge::prof
