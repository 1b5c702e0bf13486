#include "prof/gap_report.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "prof/metrics_json.hpp"

namespace gnnbridge::prof {

namespace {

/// Appends printf-formatted text to `out`.
void appendf(std::string& out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));
void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

double pct_of(double part, double whole) { return whole != 0.0 ? 100.0 * part / whole : 0.0; }

}  // namespace

GapBreakdown attribute_gaps(const sim::RunStats& stats, const sim::DeviceSpec& spec) {
  GapBreakdown g;
  g.total_cycles = stats.total_cycles;
  const double slots = static_cast<double>(spec.total_block_slots());
  const double miss_penalty =
      (spec.dram_cycles_per_line - spec.l2_hit_cycles_per_line) / std::max(slots, 1.0);

  for (const auto& k : stats.kernels) {
    // The extra drain a miss costs over an L2 hit, at the fully occupied
    // device's per-slot bandwidth share (the cost model's steady state).
    g.locality_cycles += static_cast<double>(k.l2_misses) * miss_penalty;
    g.dram_bytes += k.dram_bytes;
    // Long-tail cycles a perfectly balanced schedule would not pay.
    g.imbalance_cycles += std::max(0.0, k.makespan - k.balanced);
    // The cost model charges cycles = launch + framework overhead +
    // makespan, so the difference is exactly the per-launch overhead.
    g.launch_cycles += std::max(0.0, k.cycles - k.makespan);
    g.redundant_flops += k.waste_flops();
  }
  g.costs = stats.costs();
  g.l2_hit_rate = stats.l2_hit_rate();
  g.imbalance_ratio = stats.imbalance();
  g.launches = stats.num_launches();
  g.global_syncs = stats.global_syncs;
  g.sync_cycles = g.costs.atomic_cycles + g.costs.adapter_cycles;
  g.redundancy_cycles = (g.costs.pad_flops + g.costs.copy_flops + g.costs.tile_flops) /
                        spec.flops_per_cycle_per_block;
  // The exchange cost is charged directly in cycles by the engine's
  // sharded pipelines (sync latency + line transfers), so it needs no
  // re-pricing here.
  g.inter_shard_cycles = stats.exchange_cycles;
  g.ghost_bytes = stats.ghost_bytes;
  g.exchange_syncs = stats.exchange_syncs;
  g.shards = stats.shards;
  return g;
}

GapBreakdown attribute_gaps(const RunRecord& rec) {
  GapBreakdown g = attribute_gaps(rec.stats, rec.spec);
  g.label = rec.label;
  g.model = rec.model;
  g.backend = rec.backend;
  g.dataset = rec.dataset;
  return g;
}

GapComparison compare_gaps(const GapBreakdown& baseline, const GapBreakdown& optimized) {
  GapComparison c;
  c.baseline = baseline;
  c.optimized = optimized;
  c.gaps = {
      {"locality", baseline.locality_cycles, optimized.locality_cycles},
      {"imbalance", baseline.imbalance_cycles, optimized.imbalance_cycles},
      {"launch_overhead", baseline.launch_cycles, optimized.launch_cycles},
      {"synchronization", baseline.sync_cycles, optimized.sync_cycles},
      {"redundancy", baseline.redundancy_cycles, optimized.redundancy_cycles},
      {"inter_shard_traffic", baseline.inter_shard_cycles, optimized.inter_shard_cycles},
  };
  c.total = {"total", baseline.total_cycles, optimized.total_cycles};
  return c;
}

std::string render_gap_table(const GapBreakdown& g) {
  std::string out;
  appendf(out, "run '%s' (model=%s backend=%s dataset=%s)\n", g.label.c_str(), g.model.c_str(),
          g.backend.c_str(), g.dataset.c_str());
  appendf(out, "  total cycles      %16.1f\n", g.total_cycles);
  appendf(out, "  attributed        %16.1f  (%.1f%% of total)\n", g.attributed_cycles(),
          pct_of(g.attributed_cycles(), g.total_cycles));
  appendf(out, "  %-18s%16s%8s  %s\n", "gap", "cycles", "share", "detail");
  appendf(out, "  %-18s%16.1f%7.1f%%  dram_bytes=%llu l2_hit_rate=%.3f\n", "locality",
          g.locality_cycles, pct_of(g.locality_cycles, g.total_cycles),
          static_cast<unsigned long long>(g.dram_bytes), g.l2_hit_rate);
  appendf(out, "  %-18s%16.1f%7.1f%%  makespan/balanced=%.3f\n", "imbalance",
          g.imbalance_cycles, pct_of(g.imbalance_cycles, g.total_cycles), g.imbalance_ratio);
  appendf(out, "  %-18s%16.1f%7.1f%%  launches=%lld\n", "launch overhead", g.launch_cycles,
          pct_of(g.launch_cycles, g.total_cycles), static_cast<long long>(g.launches));
  appendf(out, "  %-18s%16.1f%7.1f%%  global_syncs=%llu atomic_bytes=%llu adapter_bytes=%llu\n",
          "synchronization", g.sync_cycles, pct_of(g.sync_cycles, g.total_cycles),
          static_cast<unsigned long long>(g.global_syncs),
          static_cast<unsigned long long>(g.costs.atomic_bytes),
          static_cast<unsigned long long>(g.costs.adapter_bytes));
  appendf(out, "  %-18s%16.1f%7.1f%%  pad=%.3g copy=%.3g tile=%.3g flops\n", "redundancy",
          g.redundancy_cycles, pct_of(g.redundancy_cycles, g.total_cycles), g.costs.pad_flops,
          g.costs.copy_flops, g.costs.tile_flops);
  appendf(out, "  %-18s%16.1f%7.1f%%  shards=%d ghost_bytes=%llu exchanges=%llu\n",
          "inter-shard", g.inter_shard_cycles, pct_of(g.inter_shard_cycles, g.total_cycles),
          g.shards, static_cast<unsigned long long>(g.ghost_bytes),
          static_cast<unsigned long long>(g.exchange_syncs));
  if (g.attributed_cycles() > g.total_cycles) {
    out +=
        "  note: per-block gap costs overlap in wall time (blocks run concurrently),\n"
        "        so attributed cycles can exceed total wall cycles.\n";
  }
  return out;
}

std::string render_compare_table(const GapComparison& c) {
  std::string out;
  appendf(out, "baseline  '%s' (backend=%s)\n", c.baseline.label.c_str(),
          c.baseline.backend.c_str());
  appendf(out, "optimized '%s' (backend=%s)\n", c.optimized.label.c_str(),
          c.optimized.backend.c_str());
  appendf(out, "  total cycles: %.1f -> %.1f (%.2fx speedup)\n", c.baseline.total_cycles,
          c.optimized.total_cycles, c.speedup());
  appendf(out, "  %-18s%16s%16s%16s%11s\n", "gap", "baseline", "optimized", "recovered",
          "recovered%");
  for (const GapDelta& d : c.gaps) {
    appendf(out, "  %-18s%16.1f%16.1f%16.1f%10.1f%%\n", d.gap.c_str(), d.baseline, d.optimized,
            d.recovered(), 100.0 * d.recovered_frac());
  }
  appendf(out, "  dram_bytes:    %llu -> %llu\n",
          static_cast<unsigned long long>(c.baseline.dram_bytes),
          static_cast<unsigned long long>(c.optimized.dram_bytes));
  appendf(out, "  atomic_bytes:  %llu -> %llu\n",
          static_cast<unsigned long long>(c.baseline.costs.atomic_bytes),
          static_cast<unsigned long long>(c.optimized.costs.atomic_bytes));
  appendf(out, "  adapter_bytes: %llu -> %llu\n",
          static_cast<unsigned long long>(c.baseline.costs.adapter_bytes),
          static_cast<unsigned long long>(c.optimized.costs.adapter_bytes));
  appendf(out, "  launches:      %lld -> %lld\n", static_cast<long long>(c.baseline.launches),
          static_cast<long long>(c.optimized.launches));
  return out;
}

}  // namespace gnnbridge::prof
