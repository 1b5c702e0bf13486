// The golden run record of the metrics and gap-report tests: every
// quantity is a power of two (or exactly representable), so the %.12g
// rendering and the gap attribution are exact on every platform.
#pragma once

#include "prof/metrics_json.hpp"
#include "sim/counters.hpp"
#include "sim/device.hpp"

namespace gnnbridge::testing {

inline prof::RunRecord golden_record() {
  sim::KernelStats k;
  k.name = "spmm_node";
  k.phase = "aggregation";
  k.num_blocks = 3;
  k.l2_hits = 6;
  k.l2_misses = 2;
  k.dram_bytes = 128;
  k.flops = 2147483648.0;         // 2^31
  k.issued_flops = 2147485440.0;  // flops + pad + copy + tile
  k.cycles = 2.0e9;
  k.makespan = 1.6e9;
  k.balanced = 8.0e8;  // makespan/balanced == 2 exactly
  k.atomic_cycles = 256.0;
  k.atomic_bytes = 64;
  k.adapter_cycles = 128.0;
  k.adapter_bytes = 32;
  k.pad_flops = 1024.0;
  k.copy_flops = 512.0;
  k.tile_flops = 256.0;
  k.timeline.add_interval(0.0, 100.0, 2);
  k.timeline.add_interval(100.0, 200.0, 4);  // time-weighted mean: 3

  sim::RunStats stats;
  stats.kernels.push_back(k);
  stats.total_cycles = 2.0e9;
  stats.global_syncs = 1;

  sim::DeviceSpec spec;
  spec.num_sms = 2;
  spec.max_blocks_per_sm = 4;  // 8 slots
  spec.clock_ghz = 2.0;        // seconds(2e9 cycles) == 1.0 exactly
  spec.l2_bytes = 1 << 20;
  spec.line_bytes = 64;

  return prof::RunRecord{.label = "gcn/ours/collab",
                         .model = "gcn",
                         .backend = "ours",
                         .dataset = "collab",
                         .ms = 1.5,
                         .oom = false,
                         .stats = stats,
                         .spec = spec};
}

}  // namespace gnnbridge::testing
