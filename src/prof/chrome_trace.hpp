// Chrome-trace / Perfetto exporter.
//
// Serializes the tracer's host-side spans — and, when a run's simulated
// counters are supplied, a synthetic "Simulated GPU" track — into the
// Chrome trace-event JSON format. Open the file at chrome://tracing or
// https://ui.perfetto.dev.
//
// Host spans become matched B/E duration events on pid 1 (one row per
// thread). The simulated track lives on pid 2: each kernel is a B/E pair
// spanning its simulated [start, start+cycles) interval (cycles converted
// to microseconds through the device clock), and the scheduler's
// block-occupancy timeline becomes an "active_blocks" counter series —
// the merged computation/occupancy view the paper reads off nsight.
#pragma once

#include <string>
#include <vector>

#include "prof/json_reader.hpp"
#include "prof/tracer.hpp"
#include "rt/status.hpp"
#include "sim/counters.hpp"
#include "sim/device.hpp"

namespace gnnbridge::prof {

/// Builds the trace-event JSON document. `sim_stats`/`spec` are optional;
/// when both are non-null the simulated-GPU track is appended.
std::string chrome_trace_json(const std::vector<SpanRecord>& spans,
                              const sim::RunStats* sim_stats = nullptr,
                              const sim::DeviceSpec* spec = nullptr);

/// Checks a parsed trace the way Perfetto needs it: an object with a
/// `traceEvents` array whose events each carry `name`, `ph`, `pid` and
/// `tid`, a phase of B, E, C or M, a numeric `ts` unless M, and on every
/// (pid, tid) track B/E pairs that nest like a stack. Returns the number
/// of B events; kDataLoss naming the first bad event otherwise.
rt::Result<std::size_t> check_chrome_trace(const JsonValue& doc);

/// Writes `chrome_trace_json` to `path` crash-safely (temp file + rename;
/// an interrupted write leaves any previous trace intact). Every I/O step
/// — open, write, close, rename — is checked; failures return a
/// kUnavailable Status carrying the path, like MetricsSink::write_file.
rt::Status write_chrome_trace_file(const std::string& path, const std::vector<SpanRecord>& spans,
                                   const sim::RunStats* sim_stats = nullptr,
                                   const sim::DeviceSpec* spec = nullptr);

}  // namespace gnnbridge::prof
