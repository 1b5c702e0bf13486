// Simulation context: device + shared L2 + counters.
//
// One `SimContext` models one GPU running a sequence of kernels. Launching
// a kernel replays its trace through the shared L2 in co-residency order
// (wave-interleaved, matching which blocks actually run together; the
// builder lays the trace out in that order, and the replay splits the L2's
// sets over the host threads),
// derives per-block durations from the hit/miss mix and the compute cost,
// schedules the blocks, and accumulates counters. The L2 stays warm across
// kernels, as on real hardware.
#pragma once

#include <utility>

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

  /// Replays, schedules and accounts one kernel. Returns its record as
  /// appended to `stats()`, valid until the next launch or `take_stats`.
  /// Throws std::invalid_argument when the kernel was laid out for another
  /// block slot count than this device's.
  const KernelStats& launch(Kernel kernel);

  /// Counters accumulated since construction or the last `take_stats`.
  const RunStats& stats() const { return stats_; }

  /// Hands the counters over, moved, and starts new ones (the cache and
  /// the allocations stay).
  RunStats take_stats() { return std::exchange(stats_, {}); }

 private:
  DeviceSpec spec_;
  AddressSpace mem_;
  SetAssocCache l2_;
  RunStats stats_;
};

}  // namespace gnnbridge::sim
