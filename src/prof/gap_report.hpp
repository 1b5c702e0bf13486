// Gap-attribution profiler.
//
// The paper's §3 methodology attributes framework slowdowns to five gaps —
// locality, workload imbalance, kernel/launch overhead, synchronization,
// and redundancy — by reading hardware counters. This is our equivalent:
// it consumes the simulator's RunStats (whose counters are incremented at
// the exact modeled-cost sites, see DESIGN.md §9) and prices each gap in
// cycles, so two runs can be diffed gap by gap. Consumed by the metrics
// sink (the `gap_report` section, whose field list is in metrics_json.cpp)
// and the `gnnbridge_cli analyze` / `compare` subcommands.
//
// Gap definitions (cycles, per run):
//   locality        misses x (dram - l2_hit cost)/slot share — the drain
//                   the run pays beyond an all-hits replay; plus DRAM
//                   bytes and the hit rate for context.
//   imbalance       sum over kernels of makespan - balanced (the long-tail
//                   cycles a perfectly balanced schedule would not pay),
//                   plus the makespan/balanced ratio.
//   launch_overhead sum over kernels of cycles - makespan: the per-launch
//                   driver + framework scheduling cost as charged by the
//                   cost model (Observation 3).
//   synchronization atomic-merge + adapter serialization cycles, plus the
//                   global-sync count (one per kernel boundary) and the
//                   atomic/adapter byte traffic.
//   redundancy      (issued - useful) flops converted at the device's
//                   per-block flop throughput, broken out by cause
//                   (lane padding / pure copies / boundary tiles).
//   inter_shard_traffic  cycles charged for the per-layer ghost-feature
//                   exchanges of partitioned execution (DESIGN.md §16):
//                   exchange sync latency + ghost bytes over the
//                   inter-shard link. Zero for unsharded runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/counters.hpp"
#include "sim/device.hpp"

namespace gnnbridge::prof {

struct RunRecord;

/// Per-gap cycle attribution for one run.
struct GapBreakdown {
  std::string label;
  std::string model;
  std::string backend;
  std::string dataset;

  double total_cycles = 0.0;

  double locality_cycles = 0.0;
  std::uint64_t dram_bytes = 0;
  double l2_hit_rate = 0.0;

  double imbalance_cycles = 0.0;
  double imbalance_ratio = 1.0;

  double launch_cycles = 0.0;
  std::int64_t launches = 0;

  double sync_cycles = 0.0;
  std::uint64_t global_syncs = 0;

  double redundancy_cycles = 0.0;
  double redundant_flops = 0.0;

  /// The run's cost counters: synchronization prices the atomic and
  /// adapter cycles, redundancy the pad, copy and tile flops.
  sim::Costs costs;

  double inter_shard_cycles = 0.0;
  std::uint64_t ghost_bytes = 0;
  std::uint64_t exchange_syncs = 0;
  int shards = 1;

  /// Cycles the six gaps claim together. Less than total_cycles; the
  /// remainder is useful work (and attribution overlap is possible when a
  /// block hides sync latency under memory time — this is an attribution,
  /// not a partition).
  double attributed_cycles() const {
    return locality_cycles + imbalance_cycles + launch_cycles + sync_cycles +
           redundancy_cycles + inter_shard_cycles;
  }
};

/// Prices the six gaps for one run.
GapBreakdown attribute_gaps(const sim::RunStats& stats, const sim::DeviceSpec& spec);

/// Same, carrying the run's identity from a sink record.
GapBreakdown attribute_gaps(const RunRecord& rec);

/// One gap's before/after pair in a comparison.
struct GapDelta {
  std::string gap;
  double baseline = 0.0;
  double optimized = 0.0;
  double recovered() const { return baseline - optimized; }
  /// Fraction of the baseline recovered; 0 when the baseline is 0.
  double recovered_frac() const {
    return baseline != 0.0 ? recovered() / baseline : 0.0;
  }
};

/// Baseline-vs-optimized comparison: the six per-gap cycle deltas plus
/// the headline totals.
struct GapComparison {
  GapBreakdown baseline;
  GapBreakdown optimized;
  /// locality, imbalance, launch_overhead, synchronization, redundancy,
  /// inter_shard_traffic — in that order.
  std::vector<GapDelta> gaps;
  GapDelta total;

  double speedup() const {
    return optimized.total_cycles > 0.0 ? baseline.total_cycles / optimized.total_cycles : 0.0;
  }
};

GapComparison compare_gaps(const GapBreakdown& baseline, const GapBreakdown& optimized);

/// Human-readable single-run table (for `gnnbridge_cli analyze`).
std::string render_gap_table(const GapBreakdown& g);

/// Human-readable baseline-vs-optimized table (for `gnnbridge_cli compare`).
std::string render_compare_table(const GapComparison& c);

}  // namespace gnnbridge::prof
