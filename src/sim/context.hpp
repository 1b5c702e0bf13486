// Simulation context: device + shared L2 + counters.
//
// One `SimContext` models one GPU running a sequence of kernels. Launching
// a kernel replays its blocks' access streams through the shared L2 in
// co-residency order (wave-interleaved, matching which blocks actually run
// together; the replay splits the L2's sets over the host threads),
// derives per-block durations from the hit/miss mix and the compute cost,
// schedules the blocks, and accumulates counters. The L2 stays warm across
// kernels, as on real hardware.
#pragma once

#include "sim/cache.hpp"
#include "sim/counters.hpp"
#include "sim/device.hpp"
#include "sim/kernel.hpp"
#include "sim/memory.hpp"

namespace gnnbridge::sim {

class SimContext {
 public:
  explicit SimContext(DeviceSpec spec = v100());

  const DeviceSpec& spec() const { return spec_; }

  /// Simulated device memory allocator.
  AddressSpace& mem() { return mem_; }

  /// Replays, schedules and accounts one kernel. Returns its stats (also
  /// appended to `stats()`).
  const KernelStats& launch(Kernel kernel);

  /// Counters accumulated since construction or the last `reset_stats`.
  const RunStats& stats() const { return stats_; }

  /// Clears counters (not the cache, not allocations).
  void reset_stats() { stats_ = {}; }

  /// Cold-starts the L2 (used by experiments that need per-kernel isolation).
  void clear_cache() { l2_.clear(); }

 private:
  DeviceSpec spec_;
  AddressSpace mem_;
  SetAssocCache l2_;
  RunStats stats_;
};

}  // namespace gnnbridge::sim
