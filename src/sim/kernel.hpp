// Kernel and thread-block work descriptors.
//
// A `Kernel` is what a backend submits to the simulated device: a list of
// `BlockWork` items (one per thread block) in launch order. Launch order is
// the lever locality-aware task scheduling pulls — blocks adjacent in this
// list become co-resident and share L2 (DESIGN.md §5).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/memory.hpp"

namespace gnnbridge::sim {

/// One global-memory touch: `bytes` bytes starting at virtual address
/// `addr`. The replay expands it to cache lines; loads and stores cost the
/// same (the L2 allocates on write).
struct Access {
  std::uint64_t addr = 0;
  std::uint32_t bytes = 0;
};

/// The work of one thread block.
struct BlockWork {
  /// Global-memory accesses in program order.
  std::vector<Access> accesses;
  /// Useful floating-point work performed by the block.
  double flops = 0.0;
  /// Issued (padded) floating-point work: >= flops when the thread mapping
  /// wastes lanes (e.g. a 32-wide warp covering a 48-long feature row).
  /// Observation 5 — inefficiency on varying feature lengths — lives here.
  double issued_flops = 0.0;
  /// Extra fixed cycles (atomics, shared-memory adapters, reduction trees).
  double extra_cycles = 0.0;

  /// Cycles and bytes folded into `extra_cycles` by atomic result merging
  /// (the traffic neighbor-grouping removes). Bytes count the memory the
  /// atomic round-trips touch, on top of the regular access stream.
  double atomic_cycles = 0.0;
  std::uint64_t atomic_bytes = 0;
  /// Cycles and bytes staged through shared-memory/shuffle adapters between
  /// fused kernel stages (the Adp optimization's currency).
  double adapter_cycles = 0.0;
  std::uint64_t adapter_bytes = 0;

  /// `issued_flops - flops` broken out by cause (all three sum to the
  /// redundant work the paper's transformation analysis counts):
  /// lanes idling on padded feature rows,
  double pad_flops = 0.0;
  /// lanes spent purely moving data (gather/scatter expansion, transpose),
  double copy_flops = 0.0;
  /// and boundary tiles of a fixed-tile GEMM.
  double tile_flops = 0.0;

  /// Convenience emitters for a load and a store.
  void read(const Buffer& buf, std::uint64_t offset, std::uint32_t bytes_) {
    accesses.push_back({buf.addr(offset), bytes_});
  }
  void write(const Buffer& buf, std::uint64_t offset, std::uint32_t bytes_) {
    accesses.push_back({buf.addr(offset), bytes_});
  }
  /// Adds `f` useful flops issued at lane efficiency `f/issued`; the slack
  /// is lane-padding waste.
  void compute(double f, double issued) {
    flops += f;
    issued_flops += issued;
    pad_flops += issued - f;
  }
  /// Issues `moved` lane-ops that only copy data — zero useful flops.
  void compute_copy(double moved) {
    issued_flops += moved;
    copy_flops += moved;
  }
  /// Adds `f` useful flops issued across full tiles; the slack is
  /// boundary-tile waste.
  void compute_tiled(double f, double issued) {
    flops += f;
    issued_flops += issued;
    tile_flops += issued - f;
  }
  /// Charges an atomic merge: `c` cycles of serialization over `bytes_`
  /// bytes of contended output.
  void atomic_merge(double c, std::uint64_t bytes_) {
    extra_cycles += c;
    atomic_cycles += c;
    atomic_bytes += bytes_;
  }
  /// Charges a shared-memory/shuffle adapter handing `bytes_` bytes
  /// between fused stages in `c` cycles.
  void adapter(double c, std::uint64_t bytes_) {
    extra_cycles += c;
    adapter_cycles += c;
    adapter_bytes += bytes_;
  }
};

/// A launched kernel: named, with blocks in launch order.
struct Kernel {
  std::string name;
  /// Phase tag for per-phase accounting (e.g. "expansion",
  /// "transformation" for Table 5).
  std::string phase;
  std::vector<BlockWork> blocks;

  double total_flops() const {
    double f = 0.0;
    for (const auto& b : blocks) f += b.flops;
    return f;
  }
};

}  // namespace gnnbridge::sim
