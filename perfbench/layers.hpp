// Per-layer attribution of one traced phase.
//
// The benchmark wraps every pass in its own span ("bench.pass/engine" or
// "bench.pass/baselines", by the backend that ran it) and switches on the
// library's prof::Tracer, which already records spans at the LAS, neighbor
// grouping, tuner, partitioner, pipeline and kernel-launch boundaries.
// fold_spans() turns the collected spans into layer totals:
//
//   * self times (engine, baselines, kernels): a span's duration minus the
//     time its same-thread child spans cover. Inside a pipeline span, the
//     gap just before each simulated launch is the kernels::* entry point
//     building that launch's block trace (and, in ExecMode::kFull, doing its
//     host math), so it is booked to kernels; the rest of the pipeline's
//     self time stays with engine/baselines.
//   * phase times (LAS, neighbor grouping, tuner, partition): whole span
//     durations. The tuner's time includes the LAS run and the probe
//     launches it makes itself.
//   * sim launch time: every launch span outside a tuner probe, i.e. the
//     launches of the passes' own kernel sequences.
//
// Self times are per thread. On the sharded path the shard bodies run on
// pool workers, so the caller's pipeline span also holds the wait for them.
#pragma once

#include <vector>

#include "prof/tracer.hpp"

namespace perfbench {

inline constexpr const char* kPassSpanEngine = "bench.pass/engine";
inline constexpr const char* kPassSpanBaselines = "bench.pass/baselines";

/// Totals over one traced phase (seconds and counts; divide by the pass
/// count for per-pass figures).
struct LayerTotals {
  double engine_self_s = 0.0;
  double baselines_self_s = 0.0;
  double kernels_trace_s = 0.0;
  double sim_launch_s = 0.0;
  double las_s = 0.0;
  double las_calls = 0.0;
  double las_pairs = 0.0;
  double las_clusters = 0.0;
  double ng_s = 0.0;
  double ng_tasks = 0.0;
  double tuner_s = 0.0;
  double tuner_runs = 0.0;
  double tuner_probes = 0.0;
  /// Probe cycles of the heuristic configuration (32 lanes at the neutral
  /// grouping bound) and of the tuned winner, summed over tuner runs.
  double tuner_heuristic_cycles = 0.0;
  double tuner_best_cycles = 0.0;
  double partition_s = 0.0;
  double cut_edges = 0.0;
  double ghosts = 0.0;
  /// LAS, neighbor grouping, tuner and partition spans not nested in one
  /// another: the core and shard layers' share of the passes.
  double core_shard_s = 0.0;
  double spans = 0.0;
};

LayerTotals fold_spans(const std::vector<gnnbridge::prof::SpanRecord>& spans);

}  // namespace perfbench
