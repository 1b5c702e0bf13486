// Performance counters.
//
// The simulator's equivalent of nvprof/nsight metrics: per-kernel and
// per-run L2 hit rates, flop counts, launch counts, phase timings and
// occupancy timelines. Every table and figure in the paper is printed from
// these counters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/device.hpp"
#include "sim/timeline.hpp"

namespace gnnbridge::sim {

/// The nine modeled cost counters, declared once: what a thread block
/// issues, and what a kernel and a run add up. The gap report prices them
/// (DESIGN.md §9).
struct Costs {
  /// Useful floating-point work.
  double flops = 0.0;
  /// Issued (padded) floating-point work: >= flops when the thread mapping
  /// wastes lanes (e.g. a 32-wide warp covering a 48-long feature row).
  /// Observation 5 — inefficiency on varying feature lengths — lives here.
  double issued_flops = 0.0;
  /// Atomic-merge serialization cycles and the contended bytes they
  /// round-trip (what neighbor grouping removes), on top of the regular
  /// access stream.
  double atomic_cycles = 0.0;
  std::uint64_t atomic_bytes = 0;
  /// Shared-memory/shuffle adapter cycles and staged bytes (what kernel
  /// fusion pays to avoid global round-trips).
  double adapter_cycles = 0.0;
  std::uint64_t adapter_bytes = 0;
  /// `issued_flops - flops` broken out by cause (all three sum to the
  /// redundant work the paper's transformation analysis counts): lanes
  /// idling on padded feature rows, lanes spent purely moving data
  /// (gather/scatter expansion, transpose), and boundary tiles of a
  /// fixed-tile GEMM.
  double pad_flops = 0.0;
  double copy_flops = 0.0;
  double tile_flops = 0.0;

  /// Adds `o` field by field. Every total is a fold of this in a fixed
  /// order (blocks, chunks, kernels), so totals are the same at any thread
  /// count.
  Costs& operator+=(const Costs& o) {
    flops += o.flops;
    issued_flops += o.issued_flops;
    atomic_cycles += o.atomic_cycles;
    atomic_bytes += o.atomic_bytes;
    adapter_cycles += o.adapter_cycles;
    adapter_bytes += o.adapter_bytes;
    pad_flops += o.pad_flops;
    copy_flops += o.copy_flops;
    tile_flops += o.tile_flops;
    return *this;
  }
};

/// Metrics for a single launched kernel: its blocks' costs summed, and
/// what the replay and the schedule made of them.
struct KernelStats : Costs {
  std::string name;
  std::string phase;
  int num_blocks = 0;

  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t dram_bytes = 0;

  /// Kernel wall time: launch overhead + block makespan.
  Cycles cycles = 0.0;
  Cycles makespan = 0.0;
  /// Perfect-balance lower bound on the makespan.
  Cycles balanced = 0.0;
  Timeline timeline;

  /// Redundant (issued but not useful) flops.
  double waste_flops() const { return issued_flops - flops; }

  /// Workload-imbalance ratio: achieved makespan over the perfect-balance
  /// bound. 1.0 = perfectly balanced; degenerate kernels report 1.0.
  double imbalance() const { return balanced > 0.0 ? makespan / balanced : 1.0; }

  double l2_hit_rate() const {
    const std::uint64_t total = l2_hits + l2_misses;
    return total == 0 ? 0.0 : static_cast<double>(l2_hits) / static_cast<double>(total);
  }
  double l2_miss_rate() const {
    const std::uint64_t total = l2_hits + l2_misses;
    return total == 0 ? 0.0 : static_cast<double>(l2_misses) / static_cast<double>(total);
  }
};

/// Shard-level recovery of one run (DESIGN.md §17): every attempt of it,
/// abandoned sharded attempts and batch retries included. Zero for a run
/// no shard-scoped seam fired in.
struct RecoveryStats {
  /// Per-shard retry decisions taken (one per re-execution or exchange redo).
  std::uint64_t shard_retries = 0;
  /// Shard phase bodies re-executed after a shard_compute fault.
  std::uint64_t shards_reexecuted = 0;
  /// Sharded->unsharded ladder steps.
  std::uint64_t shard_fallbacks = 0;
  /// Cycles spent on failed shard attempts and redone exchanges. A sharded
  /// attempt's own waste is already inside its total_cycles (wasted work is
  /// priced into the sim clock).
  Cycles wasted_cycles = 0.0;
};

/// Accumulated metrics for a sequence of kernels (one model pass, one
/// experiment, ...).
struct RunStats {
  std::vector<KernelStats> kernels;
  Cycles total_cycles = 0.0;
  /// Device-wide synchronization points. Every kernel boundary is one (the
  /// host cannot start kernel k+1 before kernel k drains), so the launch
  /// path bumps this once per kernel.
  std::uint64_t global_syncs = 0;

  // ---- Partitioned execution (DESIGN.md §16). Zero/1 for the ordinary
  // single-device path; the engine's sharded GCN/GAT pipelines fill them
  // when EngineConfig::shards > 1.
  /// Ghost-feature bytes moved between shards by the per-layer exchanges.
  std::uint64_t ghost_bytes = 0;
  /// Exchange barriers executed (one per layer per exchange step).
  std::uint64_t exchange_syncs = 0;
  /// Cycles charged for the exchanges (sync latency + interconnect
  /// transfer time); included in total_cycles and priced as the
  /// inter-shard-traffic gap.
  Cycles exchange_cycles = 0.0;
  /// Shard count the run executed with (1 = unsharded).
  int shards = 1;

  /// The engine's shard recovery over the whole run this attempt ended.
  RecoveryStats recovery;

  int num_launches() const { return static_cast<int>(kernels.size()); }

  /// Sum of one per-kernel counter over the run, in kernel order.
  template <typename T>
  T sum(T KernelStats::*counter) const {
    T total{};
    for (const auto& k : kernels) total += k.*counter;
    return total;
  }

  double total_flops() const { return costs().flops; }
  std::uint64_t total_hits() const { return sum(&KernelStats::l2_hits); }
  std::uint64_t total_misses() const { return sum(&KernelStats::l2_misses); }

  double l2_hit_rate() const {
    const std::uint64_t total = total_hits() + total_misses();
    return total == 0 ? 0.0 : static_cast<double>(total_hits()) / static_cast<double>(total);
  }

  /// The cost counters summed over the run, in kernel order.
  Costs costs() const {
    Costs total;
    for (const auto& k : kernels) total += k;
    return total;
  }

  /// Run-level imbalance ratio: total makespan over total balanced bound.
  double imbalance() const {
    Cycles mk = 0.0, bal = 0.0;
    for (const auto& k : kernels) {
      mk += k.makespan;
      bal += k.balanced;
    }
    return bal > 0.0 ? mk / bal : 1.0;
  }

  /// Sum of cycles of kernels tagged with `phase`.
  Cycles cycles_in_phase(std::string_view phase) const {
    Cycles c = 0.0;
    for (const auto& k : kernels) {
      if (k.phase == phase) c += k.cycles;
    }
    return c;
  }

  /// Achieved throughput in GFLOPS for the whole run.
  double gflops(const DeviceSpec& spec) const {
    const double s = spec.seconds(total_cycles);
    return s <= 0.0 ? 0.0 : total_flops() / s / 1e9;
  }
};

}  // namespace gnnbridge::sim
