#include "prof/gap_report.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "prof/json_reader.hpp"
#include "prof/json_writer.hpp"

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
    g.atomic_cycles += k.atomic_cycles;
    g.atomic_bytes += k.atomic_bytes;
    g.adapter_cycles += k.adapter_cycles;
    g.adapter_bytes += k.adapter_bytes;
    g.pad_flops += k.pad_flops;
    g.copy_flops += k.copy_flops;
    g.tile_flops += k.tile_flops;
    g.redundant_flops += k.waste_flops();
  }
  g.l2_hit_rate = stats.l2_hit_rate();
  g.imbalance_ratio = stats.imbalance();
  g.launches = stats.num_launches();
  g.global_syncs = stats.global_syncs;
  g.sync_cycles = g.atomic_cycles + g.adapter_cycles;
  g.redundancy_cycles =
      (g.pad_flops + g.copy_flops + g.tile_flops) / spec.flops_per_cycle_per_block;
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

void write_gap_breakdown(JsonWriter& w, const GapBreakdown& g) {
  w.begin_object();
  w.kv("label", std::string_view(g.label));
  w.kv("model", std::string_view(g.model));
  w.kv("backend", std::string_view(g.backend));
  w.kv("dataset", std::string_view(g.dataset));
  w.kv("total_cycles", g.total_cycles);
  w.kv("attributed_cycles", g.attributed_cycles());
  w.key("locality");
  w.begin_object();
  w.kv("cycles", g.locality_cycles);
  w.kv("dram_bytes", g.dram_bytes);
  w.kv("l2_hit_rate", g.l2_hit_rate);
  w.end_object();
  w.key("imbalance");
  w.begin_object();
  w.kv("cycles", g.imbalance_cycles);
  w.kv("ratio", g.imbalance_ratio);
  w.end_object();
  w.key("launch_overhead");
  w.begin_object();
  w.kv("cycles", g.launch_cycles);
  w.kv("launches", g.launches);
  w.end_object();
  w.key("synchronization");
  w.begin_object();
  w.kv("cycles", g.sync_cycles);
  w.kv("global_syncs", g.global_syncs);
  w.kv("atomic_cycles", g.atomic_cycles);
  w.kv("atomic_bytes", g.atomic_bytes);
  w.kv("adapter_cycles", g.adapter_cycles);
  w.kv("adapter_bytes", g.adapter_bytes);
  w.end_object();
  w.key("redundancy");
  w.begin_object();
  w.kv("cycles", g.redundancy_cycles);
  w.kv("redundant_flops", g.redundant_flops);
  w.kv("pad_flops", g.pad_flops);
  w.kv("copy_flops", g.copy_flops);
  w.kv("tile_flops", g.tile_flops);
  w.end_object();
  w.key("inter_shard_traffic");
  w.begin_object();
  w.kv("cycles", g.inter_shard_cycles);
  w.kv("ghost_bytes", g.ghost_bytes);
  w.kv("exchange_syncs", g.exchange_syncs);
  w.kv("shards", static_cast<std::int64_t>(g.shards));
  w.end_object();
  w.end_object();
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
          static_cast<unsigned long long>(g.atomic_bytes),
          static_cast<unsigned long long>(g.adapter_bytes));
  appendf(out, "  %-18s%16.1f%7.1f%%  pad=%.3g copy=%.3g tile=%.3g flops\n", "redundancy",
          g.redundancy_cycles, pct_of(g.redundancy_cycles, g.total_cycles), g.pad_flops,
          g.copy_flops, g.tile_flops);
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
          static_cast<unsigned long long>(c.baseline.atomic_bytes),
          static_cast<unsigned long long>(c.optimized.atomic_bytes));
  appendf(out, "  adapter_bytes: %llu -> %llu\n",
          static_cast<unsigned long long>(c.baseline.adapter_bytes),
          static_cast<unsigned long long>(c.optimized.adapter_bytes));
  appendf(out, "  launches:      %lld -> %lld\n", static_cast<long long>(c.baseline.launches),
          static_cast<long long>(c.optimized.launches));
  return out;
}

namespace {

sim::DeviceSpec load_device(const JsonValue& dev) {
  sim::DeviceSpec spec = sim::v100();
  spec.num_sms = static_cast<int>(dev.int_or("num_sms", spec.num_sms));
  spec.max_blocks_per_sm =
      static_cast<int>(dev.int_or("max_blocks_per_sm", spec.max_blocks_per_sm));
  spec.clock_ghz = dev.num_or("clock_ghz", spec.clock_ghz);
  spec.l2_bytes = dev.int_or("l2_bytes", spec.l2_bytes);
  spec.line_bytes = static_cast<int>(dev.int_or("line_bytes", spec.line_bytes));
  spec.flops_per_cycle_per_block =
      dev.num_or("flops_per_cycle_per_block", spec.flops_per_cycle_per_block);
  spec.l2_hit_cycles_per_line = dev.num_or("l2_hit_cycles_per_line", spec.l2_hit_cycles_per_line);
  spec.dram_cycles_per_line = dev.num_or("dram_cycles_per_line", spec.dram_cycles_per_line);
  spec.kernel_launch_cycles = dev.num_or("kernel_launch_cycles", spec.kernel_launch_cycles);
  spec.framework_overhead_cycles =
      dev.num_or("framework_overhead_cycles", spec.framework_overhead_cycles);
  return spec;
}

sim::KernelStats load_kernel(const JsonValue& k) {
  sim::KernelStats ks;
  ks.name = k.str_or("name", "");
  ks.phase = k.str_or("phase", "");
  ks.num_blocks = static_cast<int>(k.int_or("blocks", 0));
  ks.cycles = k.num_or("cycles", 0.0);
  ks.makespan = k.num_or("makespan", 0.0);
  ks.balanced = k.num_or("balanced", 0.0);
  ks.l2_hits = k.uint_or("l2_hits", 0);
  ks.l2_misses = k.uint_or("l2_misses", 0);
  ks.dram_bytes = k.uint_or("dram_bytes", 0);
  ks.flops = k.num_or("flops", 0.0);
  ks.issued_flops = k.num_or("issued_flops", 0.0);
  ks.atomic_cycles = k.num_or("atomic_cycles", 0.0);
  ks.atomic_bytes = k.uint_or("atomic_bytes", 0);
  ks.adapter_cycles = k.num_or("adapter_cycles", 0.0);
  ks.adapter_bytes = k.uint_or("adapter_bytes", 0);
  ks.pad_flops = k.num_or("pad_flops", 0.0);
  ks.copy_flops = k.num_or("copy_flops", 0.0);
  ks.tile_flops = k.num_or("tile_flops", 0.0);
  return ks;
}

}  // namespace

rt::Status check_metrics_document(const JsonValue& doc) {
  const auto fail = [](const std::string& what) {
    return rt::Status(rt::StatusCode::kDataLoss, what);
  };
  if (!doc.is_object()) return fail("document is not an object");
  if (doc.str_or("schema", "") != kMetricsSchemaName) {
    return fail("not a " + std::string(kMetricsSchemaName) + " document");
  }
  const std::int64_t version = doc.int_or("schema_version", 0);
  if (version != kMetricsSchemaVersion) {
    return fail("unsupported schema_version " + std::to_string(version) + "; this build reads " +
                std::to_string(kMetricsSchemaVersion));
  }
  return rt::OkStatus();
}

rt::Result<LoadedMetrics> load_metrics_file(const std::string& path) {
  auto parsed = parse_json_file(path);
  if (!parsed.ok()) {
    return rt::Status(parsed.status()).with_context("load_metrics_file('" + path + "')");
  }
  const JsonValue& doc = *parsed;
  const std::string where = "load_metrics_file('" + path + "')";
  if (rt::Status s = check_metrics_document(doc); !s.ok()) return std::move(s).with_context(where);
  const auto fail = [&where](const std::string& what) {
    return rt::Status(rt::StatusCode::kDataLoss, what).with_context(where);
  };
  LoadedMetrics m;
  m.schema_version = kMetricsSchemaVersion;
  m.experiment = doc.str_or("experiment", "");
  m.scale = doc.num_or("scale", 0.0);

  const JsonValue* runs = doc.find("runs");
  if (!runs || !runs->is_array()) return fail("missing 'runs' array");
  for (const JsonValue& run : runs->items) {
    if (!run.is_object()) return fail("run entry is not an object");
    RunRecord rec;
    rec.label = run.str_or("label", "");
    rec.model = run.str_or("model", "");
    rec.backend = run.str_or("backend", "");
    rec.dataset = run.str_or("dataset", "");
    rec.ms = run.num_or("ms", 0.0);
    rec.oom = run.bool_or("oom", false);
    if (const JsonValue* dev = run.find("device")) rec.spec = load_device(*dev);
    if (const JsonValue* kernels = run.find("kernels"); kernels && kernels->is_array()) {
      for (const JsonValue& k : kernels->items) rec.stats.kernels.push_back(load_kernel(k));
    }
    if (const JsonValue* totals = run.find("totals")) {
      rec.stats.total_cycles = totals->num_or("cycles", 0.0);
      rec.stats.global_syncs = totals->uint_or("global_syncs", 0);
      rec.stats.ghost_bytes = totals->uint_or("ghost_bytes", 0);
      rec.stats.exchange_syncs = totals->uint_or("exchange_syncs", 0);
      rec.stats.exchange_cycles = totals->num_or("exchange_cycles", 0.0);
      rec.stats.shards = static_cast<int>(totals->int_or("shards", 1));
    }
    m.runs.push_back(std::move(rec));
  }
  return m;
}

}  // namespace gnnbridge::prof
