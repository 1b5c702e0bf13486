#include "prof/metrics_json.hpp"

#include <cstdio>
#include <cstdlib>
#include <ctime>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "par/thread_pool.hpp"
#include "prof/fields.hpp"
#include "rt/atomic_file.hpp"
#include "rt/fault.hpp"

namespace gnnbridge::prof {

namespace {

// The field lists (prof/fields.hpp): each visits one record's keys in
// document order, for the writer and for load_metrics_file alike.

constexpr auto meta_fields = [](auto& v, auto& m) {
  v.field("git_sha", m.git_sha);
  v.field("timestamp", m.timestamp);
  v.field("hostname", m.hostname);
  v.field("scale_env", m.scale_env);
  v.field("threads", m.threads);
};

// The cost-model parameters are included: a reader can re-derive gap
// attributions without assuming the default device.
constexpr auto device_fields = [](auto& v, auto& d) {
  v.field("num_sms", d.num_sms);
  v.field("max_blocks_per_sm", d.max_blocks_per_sm);
  v.field("clock_ghz", d.clock_ghz);
  v.field("l2_bytes", d.l2_bytes);
  v.field("line_bytes", d.line_bytes);
  v.field("flops_per_cycle_per_block", d.flops_per_cycle_per_block);
  v.field("l2_hit_cycles_per_line", d.l2_hit_cycles_per_line);
  v.field("dram_cycles_per_line", d.dram_cycles_per_line);
  v.field("kernel_launch_cycles", d.kernel_launch_cycles);
  v.field("framework_overhead_cycles", d.framework_overhead_cycles);
};

// Visits a RunRecord: the gflops rate needs the run's device clock.
constexpr auto totals_fields = [](auto& v, auto& r) {
  auto& s = r.stats;
  const sim::Costs c = s.costs();
  v.field("cycles", s.total_cycles);
  v.derived("launches", s.num_launches());
  v.derived("flops", c.flops);
  v.derived("l2_hits", s.total_hits());
  v.derived("l2_misses", s.total_misses());
  v.derived("l2_hit_rate", s.l2_hit_rate(), kRate);
  v.derived("dram_bytes", s.sum(&sim::KernelStats::dram_bytes));
  v.derived("gflops", s.gflops(r.spec));
  v.derived("issued_flops", c.issued_flops);
  v.field("global_syncs", s.global_syncs);
  v.derived("atomic_cycles", c.atomic_cycles);
  v.derived("atomic_bytes", c.atomic_bytes);
  v.derived("adapter_cycles", c.adapter_cycles);
  v.derived("adapter_bytes", c.adapter_bytes);
  v.derived("pad_flops", c.pad_flops);
  v.derived("copy_flops", c.copy_flops);
  v.derived("tile_flops", c.tile_flops);
  v.derived("imbalance", s.imbalance());
  v.field("ghost_bytes", s.ghost_bytes);
  v.field("exchange_syncs", s.exchange_syncs);
  v.field("exchange_cycles", s.exchange_cycles);
  v.field("shards", s.shards);
  v.check(s.shards >= 1, "shards must be >= 1");
  v.check(s.shards != 1 || s.ghost_bytes == 0, "unsharded run with ghost traffic");
};

constexpr auto kernel_fields = [](auto& v, auto& k) {
  v.field("name", k.name);
  v.field("phase", k.phase);
  v.field("blocks", k.num_blocks);
  v.field("cycles", k.cycles);
  v.field("makespan", k.makespan);
  v.field("balanced", k.balanced);
  v.field("l2_hits", k.l2_hits);
  v.field("l2_misses", k.l2_misses);
  v.derived("l2_hit_rate", k.l2_hit_rate(), kRate);
  v.field("dram_bytes", k.dram_bytes);
  v.field("flops", k.flops);
  v.field("issued_flops", k.issued_flops);
  v.derived("mean_active_blocks", k.timeline.mean_active());
  v.field("atomic_cycles", k.atomic_cycles);
  v.field("atomic_bytes", k.atomic_bytes);
  v.field("adapter_cycles", k.adapter_cycles);
  v.field("adapter_bytes", k.adapter_bytes);
  v.field("pad_flops", k.pad_flops);
  v.field("copy_flops", k.copy_flops);
  v.field("tile_flops", k.tile_flops);
  v.derived("imbalance", k.imbalance());
};

constexpr auto run_fields = [](auto& v, auto& r) {
  v.field("label", r.label);
  v.field("model", r.model);
  v.field("backend", r.backend);
  v.field("dataset", r.dataset);
  v.field("ms", r.ms);
  v.field("oom", r.oom);
  v.object("device", r.spec, device_fields);
  v.object("totals", r, totals_fields);
  v.array("kernels", r.stats.kernels, kernel_fields);
};

// A `gap_report` entry and its six sections (DESIGN.md §9).
constexpr auto gap_fields = [](auto& v, auto& g) {
  v.field("label", g.label);
  v.field("model", g.model);
  v.field("backend", g.backend);
  v.field("dataset", g.dataset);
  v.field("total_cycles", g.total_cycles);
  v.derived("attributed_cycles", g.attributed_cycles());
  v.object("locality", g, [](auto& s, auto& x) {
    s.field("cycles", x.locality_cycles);
    s.field("dram_bytes", x.dram_bytes);
    s.field("l2_hit_rate", x.l2_hit_rate, kRate);
  });
  v.object("imbalance", g, [](auto& s, auto& x) {
    s.field("cycles", x.imbalance_cycles);
    s.field("ratio", x.imbalance_ratio);
  });
  v.object("launch_overhead", g, [](auto& s, auto& x) {
    s.field("cycles", x.launch_cycles);
    s.field("launches", x.launches);
  });
  v.object("synchronization", g, [](auto& s, auto& x) {
    s.field("cycles", x.sync_cycles);
    s.field("global_syncs", x.global_syncs);
    s.field("atomic_cycles", x.costs.atomic_cycles);
    s.field("atomic_bytes", x.costs.atomic_bytes);
    s.field("adapter_cycles", x.costs.adapter_cycles);
    s.field("adapter_bytes", x.costs.adapter_bytes);
  });
  v.object("redundancy", g, [](auto& s, auto& x) {
    s.field("cycles", x.redundancy_cycles);
    s.field("redundant_flops", x.redundant_flops);
    s.field("pad_flops", x.costs.pad_flops);
    s.field("copy_flops", x.costs.copy_flops);
    s.field("tile_flops", x.costs.tile_flops);
  });
  v.object("inter_shard_traffic", g, [](auto& s, auto& x) {
    s.field("cycles", x.inter_shard_cycles);
    s.field("ghost_bytes", x.ghost_bytes);
    s.field("exchange_syncs", x.exchange_syncs);
    s.field("shards", x.shards);
  });
};

constexpr auto degradation_fields = [](auto& v, auto& d) {
  v.field("seam", d.seam);
  v.field("knob", d.knob);
  v.field("action", d.action);
  v.field("detail", d.detail);
  v.field("injected", d.injected);
};

constexpr auto document_fields = [](auto& v, auto& d) {
  v.field("schema", d.schema);
  v.check(d.schema == kMetricsSchemaName, "not a gnnbridge-metrics document");
  v.field("schema_version", d.schema_version);
  v.check(d.schema_version == kMetricsSchemaVersion, [&] {
    return "unsupported schema_version " + std::to_string(d.schema_version) +
           "; this build reads " + std::to_string(kMetricsSchemaVersion) +
           (d.schema_version > kMetricsSchemaVersion ? " (the document is newer: update gnnbridge)"
                                                     : "");
  });
  v.field("experiment", d.experiment);
  v.field("scale", d.scale);
  v.object("meta", d.meta, meta_fields);
  v.array("runs", d.runs, run_fields);
  v.array("gap_report", d.gap_report, gap_fields);
  v.check(d.gap_report.size() == d.runs.size(), "gap_report: expected one entry per run");
  v.array("degradations", d.degradations, degradation_fields);
  v.object("telemetry", d.telemetry, obs::telemetry_fields);
};

/// First line of `cmd`'s stdout, trimmed; "" on failure.
std::string capture_line(const char* cmd) {
#ifdef _WIN32
  (void)cmd;
  return {};
#else
  std::FILE* pipe = ::popen(cmd, "r");
  if (!pipe) return {};
  char buf[256] = {0};
  std::string line;
  if (std::fgets(buf, sizeof(buf), pipe)) line = buf;
  ::pclose(pipe);
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) line.pop_back();
  return line;
#endif
}

}  // namespace

MetaInfo collect_meta() {
  MetaInfo meta;
  if (const char* sha = std::getenv("GNNBRIDGE_GIT_SHA"); sha && *sha) {
    meta.git_sha = sha;
  } else if (std::string sha_line = capture_line("git rev-parse --short HEAD 2>/dev/null");
             !sha_line.empty()) {
    meta.git_sha = sha_line;
  }
  std::time_t now = std::time(nullptr);
  if (std::tm tm_buf{}; gmtime_r(&now, &tm_buf) != nullptr) {
    char stamp[32];
    if (std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &tm_buf) > 0) {
      meta.timestamp = stamp;
    }
  }
#ifndef _WIN32
  char host[256] = {0};
  if (::gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0') meta.hostname = host;
#endif
  if (const char* scale = std::getenv("GNNBRIDGE_SCALE")) meta.scale_env = scale;
  meta.threads = par::max_threads();
  return meta;
}

MetricsSink& MetricsSink::instance() {
  static MetricsSink* sink = new MetricsSink();  // leaked: outlives atexit
  return *sink;
}

const char* MetricsSink::env_path() {
  const char* env = std::getenv("GNNBRIDGE_METRICS_JSON");
  return (env && *env) ? env : nullptr;
}

void MetricsSink::configure(std::string experiment, double scale) {
  std::lock_guard<std::mutex> lock(mu_);
  doc_.experiment = std::move(experiment);
  doc_.scale = scale;
  arm_env_write_locked();
}

void MetricsSink::set_meta(MetaInfo meta) {
  std::lock_guard<std::mutex> lock(mu_);
  doc_.meta = std::move(meta);
  meta_set_ = true;
}

void MetricsSink::record(RunRecord rec) {
  std::lock_guard<std::mutex> lock(mu_);
  doc_.runs.push_back(std::move(rec));
  arm_env_write_locked();
}

void MetricsSink::record_degradation(rt::DegradationEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  doc_.degradations.push_back(std::move(event));
  arm_env_write_locked();
}

void MetricsSink::arm_env_write_locked() {
  if (armed_ || !env_path()) return;
  armed_ = true;
  std::atexit([] {
    if (const char* path = env_path()) {
      MetricsSink::instance().write_file(path);
    }
  });
}

std::size_t MetricsSink::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return doc_.runs.size();
}

std::vector<rt::DegradationEvent> MetricsSink::degradations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return doc_.degradations;
}

void MetricsSink::clear() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    doc_.runs.clear();
    doc_.degradations.clear();
  }
  // Clearing the sink without its registry would leak one run's telemetry
  // into the next document (the in-process determinism tests byte-compare
  // exactly that).
  telemetry_.clear();
}

std::string MetricsSink::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!meta_set_) {
    doc_.meta = collect_meta();
    meta_set_ = true;
  }
  doc_.gap_report.clear();
  for (const RunRecord& r : doc_.runs) doc_.gap_report.push_back(attribute_gaps(r));
  doc_.telemetry = telemetry_.snapshot();
  std::string out;
  JsonWriter w(&out);
  FieldWriter(w).write(doc_, document_fields);
  out += '\n';
  if (w.nonfinite_count() > 0) {
    std::fprintf(stderr,
                 "gnnbridge: warning: metrics document degraded %zu non-finite value(s) to 0\n",
                 w.nonfinite_count());
  }
  return out;
}

rt::Status MetricsSink::write_file(const std::string& path) const {
  constexpr int kMaxAttempts = 3;
  rt::Status last;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (auto fault = rt::fire_fault(rt::kSeamMetricsWrite)) {
      // Record first, write after: the retried document carries the event.
      MetricsSink::instance().record_degradation(
          rt::make_degradation(rt::kSeamMetricsWrite, "metrics_sink", "retry_write", *fault));
      last = std::move(*fault);
      continue;
    }
    if (rt::Status s = rt::write_file_atomic(path, to_json()); !s.ok()) {
      std::fprintf(stderr, "gnnbridge: cannot write metrics file '%s': %s\n", path.c_str(),
                   s.message().c_str());
      return std::move(s).with_context("MetricsSink::write_file('" + path + "')");
    }
    return rt::OkStatus();
  }
  std::fprintf(stderr, "gnnbridge: metrics write to '%s' failed %d times, giving up\n",
               path.c_str(), kMaxAttempts);
  return std::move(last).with_context("MetricsSink::write_file('" + path + "')");
}

rt::Result<MetricsDocument> load_metrics_file(const std::string& path) {
  const std::string where = "load_metrics_file('" + path + "')";
  auto parsed = parse_json_file(path);
  if (!parsed.ok()) return rt::Status(parsed.status()).with_context(where);
  MetricsDocument doc;
  if (rt::Status s = read_record(*parsed, "", doc, document_fields); !s.ok()) {
    return std::move(s).with_context(where);
  }
  return doc;
}

}  // namespace gnnbridge::prof
