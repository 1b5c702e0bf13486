#include "prof/metrics_json.hpp"

#include <cstdio>
#include <cstdlib>
#include <ctime>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "obs/registry.hpp"
#include "par/thread_pool.hpp"
#include "prof/gap_report.hpp"
#include "prof/json_writer.hpp"
#include "rt/atomic_file.hpp"
#include "rt/fault.hpp"
#include "sim/timeline.hpp"

namespace gnnbridge::prof {

namespace {

void write_device(JsonWriter& w, const sim::DeviceSpec& spec) {
  w.begin_object();
  w.kv("num_sms", spec.num_sms);
  w.kv("max_blocks_per_sm", spec.max_blocks_per_sm);
  w.kv("clock_ghz", spec.clock_ghz);
  w.kv("l2_bytes", static_cast<std::int64_t>(spec.l2_bytes));
  w.kv("line_bytes", spec.line_bytes);
  // Cost-model parameters: a reader can re-derive gap attributions
  // without assuming the default device.
  w.kv("flops_per_cycle_per_block", spec.flops_per_cycle_per_block);
  w.kv("l2_hit_cycles_per_line", spec.l2_hit_cycles_per_line);
  w.kv("dram_cycles_per_line", spec.dram_cycles_per_line);
  w.kv("kernel_launch_cycles", spec.kernel_launch_cycles);
  w.kv("framework_overhead_cycles", spec.framework_overhead_cycles);
  w.end_object();
}

void write_kernel(JsonWriter& w, const sim::KernelStats& k) {
  w.begin_object();
  w.kv("name", std::string_view(k.name));
  w.kv("phase", std::string_view(k.phase));
  w.kv("blocks", k.num_blocks);
  w.kv("cycles", k.cycles);
  w.kv("makespan", k.makespan);
  w.kv("balanced", k.balanced);
  w.kv("l2_hits", k.l2_hits);
  w.kv("l2_misses", k.l2_misses);
  w.kv("l2_hit_rate", k.l2_hit_rate());
  w.kv("dram_bytes", k.dram_bytes);
  w.kv("flops", k.flops);
  w.kv("issued_flops", k.issued_flops);
  w.kv("mean_active_blocks", k.timeline.mean_active());
  w.kv("atomic_cycles", k.atomic_cycles);
  w.kv("atomic_bytes", k.atomic_bytes);
  w.kv("adapter_cycles", k.adapter_cycles);
  w.kv("adapter_bytes", k.adapter_bytes);
  w.kv("pad_flops", k.pad_flops);
  w.kv("copy_flops", k.copy_flops);
  w.kv("tile_flops", k.tile_flops);
  w.kv("imbalance", k.imbalance());
  w.end_object();
}

void write_run(JsonWriter& w, const RunRecord& r) {
  w.begin_object();
  w.kv("label", std::string_view(r.label));
  w.kv("model", std::string_view(r.model));
  w.kv("backend", std::string_view(r.backend));
  w.kv("dataset", std::string_view(r.dataset));
  w.kv("ms", r.ms);
  w.kv("oom", r.oom);
  w.key("device");
  write_device(w, r.spec);
  w.key("totals");
  w.begin_object();
  w.kv("cycles", r.stats.total_cycles);
  w.kv("launches", r.stats.num_launches());
  w.kv("flops", r.stats.total_flops());
  w.kv("l2_hits", r.stats.total_hits());
  w.kv("l2_misses", r.stats.total_misses());
  w.kv("l2_hit_rate", r.stats.l2_hit_rate());
  std::uint64_t dram = 0;
  double issued = 0.0, pad = 0.0, copy = 0.0, tile = 0.0;
  for (const auto& k : r.stats.kernels) {
    dram += k.dram_bytes;
    issued += k.issued_flops;
    pad += k.pad_flops;
    copy += k.copy_flops;
    tile += k.tile_flops;
  }
  w.kv("dram_bytes", dram);
  w.kv("gflops", r.stats.gflops(r.spec));
  w.kv("issued_flops", issued);
  w.kv("global_syncs", r.stats.global_syncs);
  w.kv("atomic_cycles", r.stats.total_atomic_cycles());
  w.kv("atomic_bytes", r.stats.total_atomic_bytes());
  w.kv("adapter_cycles", r.stats.total_adapter_cycles());
  w.kv("adapter_bytes", r.stats.total_adapter_bytes());
  w.kv("pad_flops", pad);
  w.kv("copy_flops", copy);
  w.kv("tile_flops", tile);
  w.kv("imbalance", r.stats.imbalance());
  w.kv("ghost_bytes", r.stats.ghost_bytes);
  w.kv("exchange_syncs", r.stats.exchange_syncs);
  w.kv("exchange_cycles", r.stats.exchange_cycles);
  w.kv("shards", static_cast<std::int64_t>(r.stats.shards));
  w.end_object();
  w.key("kernels");
  w.begin_array();
  for (const auto& k : r.stats.kernels) write_kernel(w, k);
  w.end_array();
  w.end_object();
}

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
  experiment_ = std::move(experiment);
  scale_ = scale;
  arm_env_write_locked();
}

void MetricsSink::set_meta(MetaInfo meta) {
  std::lock_guard<std::mutex> lock(mu_);
  meta_ = std::move(meta);
  meta_set_ = true;
}

void MetricsSink::record(RunRecord rec) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(rec));
  arm_env_write_locked();
}

void MetricsSink::record_degradation(rt::DegradationEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  degradations_.push_back(std::move(event));
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
  return records_.size();
}

std::size_t MetricsSink::degradation_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degradations_.size();
}

std::vector<rt::DegradationEvent> MetricsSink::degradations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degradations_;
}

void MetricsSink::clear() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    records_.clear();
    degradations_.clear();
  }
  // The telemetry block snapshots the process-wide registry; clearing
  // the sink without it would leak one run's telemetry into the next
  // document (the in-process determinism tests byte-compare exactly that).
  obs::TelemetryRegistry::instance().clear();
}

std::string MetricsSink::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  JsonWriter w(&out);
  w.begin_object();
  w.kv("schema", kMetricsSchemaName);
  w.kv("schema_version", kMetricsSchemaVersion);
  w.kv("experiment", std::string_view(experiment_));
  w.kv("scale", scale_);
  if (!meta_set_) {
    meta_ = collect_meta();
    meta_set_ = true;
  }
  w.key("meta");
  w.begin_object();
  w.kv("git_sha", std::string_view(meta_.git_sha));
  w.kv("timestamp", std::string_view(meta_.timestamp));
  w.kv("hostname", std::string_view(meta_.hostname));
  w.kv("scale_env", std::string_view(meta_.scale_env));
  w.kv("threads", meta_.threads);
  w.end_object();
  w.key("runs");
  w.begin_array();
  for (const auto& r : records_) write_run(w, r);
  w.end_array();
  w.key("gap_report");
  w.begin_array();
  for (const auto& r : records_) write_gap_breakdown(w, attribute_gaps(r));
  w.end_array();
  w.key("degradations");
  w.begin_array();
  for (const auto& d : degradations_) {
    w.begin_object();
    w.kv("seam", std::string_view(d.seam));
    w.kv("knob", std::string_view(d.knob));
    w.kv("action", std::string_view(d.action));
    w.kv("detail", std::string_view(d.detail));
    w.kv("injected", d.injected);
    w.end_object();
  }
  w.end_array();
  w.key("telemetry");
  obs::write_telemetry_json(w, obs::TelemetryRegistry::instance().snapshot());
  w.end_object();
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
      MetricsSink::instance().record_degradation(rt::make_degradation(
          rt::kSeamMetricsWrite, rt::kKnobMetricsSink, "retry_write", *fault));
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

}  // namespace gnnbridge::prof
