// gnnbridge_cli — run any (model, backend, dataset) cell from the command
// line, with optional optimization toggles. The scriptable face of the
// library: what bench_fig7_overall sweeps, one cell at a time.
//
//   gnnbridge_cli --model gcn --backend ours --dataset citation --scale 0.1
//   gnnbridge_cli --model gat --backend dgl --dataset arxiv --full
//   gnnbridge_cli --model gcn --backend ours --no-las --no-ng --kernels
//   gnnbridge_cli profile --model gat --backend ours --dataset collab
//   gnnbridge_cli analyze metrics.json
//   gnnbridge_cli compare baseline_metrics.json optimized_metrics.json
//   gnnbridge_cli stats metrics.json --prom metrics.prom --journal journal.jsonl
//   GNNBRIDGE_FAULT_PLAN=tuner_probe=3 gnnbridge_cli soak --jobs 10 --deadline-ms 50
//   gnnbridge_cli soak --chaos --scale 0.04
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baselines/dgl.hpp"
#include "baselines/pyg.hpp"
#include "baselines/roc.hpp"
#include "engine/chaos.hpp"
#include "engine/engine.hpp"
#include "graph/datasets.hpp"
#include "obs/journal.hpp"
#include "obs/prometheus.hpp"
#include "obs/registry.hpp"
#include "par/thread_pool.hpp"
#include "prof/chrome_trace.hpp"
#include "prof/gap_report.hpp"
#include "prof/json_reader.hpp"
#include "prof/metrics_json.hpp"
#include "prof/span.hpp"
#include "rt/deadline.hpp"
#include "rt/fault.hpp"
#include "rt/status.hpp"
#include "tensor/ops.hpp"

using namespace gnnbridge;

namespace {

void usage() {
  std::printf(
      "usage: gnnbridge_cli [profile] [options]\n"
      "       gnnbridge_cli analyze METRICS.json\n"
      "       gnnbridge_cli compare BASELINE.json OPTIMIZED.json\n"
      "       gnnbridge_cli soak [soak options]\n"
      "       gnnbridge_cli faults\n"
      "       gnnbridge_cli stats METRICS.json [--prom PATH] [--journal JOURNAL.jsonl]\n"
      "  profile                       record a host/sim trace and metrics while running;\n"
      "                                writes Chrome-trace JSON (load in ui.perfetto.dev)\n"
      "                                and gnnbridge-metrics JSON\n"
      "  analyze METRICS.json          print the per-gap attribution table (locality,\n"
      "                                imbalance, launch overhead, synchronization,\n"
      "                                redundancy) for every run in a metrics file\n"
      "  compare A.json B.json         diff two metrics files gap by gap: how many\n"
      "                                cycles/bytes the optimized run (B) recovered\n"
      "  soak                          replay a deterministic job stream through the\n"
      "                                optimized engine's run_batch under the fault plan\n"
      "                                in $GNNBRIDGE_FAULT_PLAN (applied per job), with\n"
      "                                deadlines, retries and the circuit breaker; print\n"
      "                                a survival summary. Soak options:\n"
      "                                  --jobs N (default 10), --wave W (default 4),\n"
      "                                  --scale S (default 0.05),\n"
      "                                  --deadline-ms D (sim-ms per job; 0 = unbounded),\n"
      "                                  --max-attempts M (default 2),\n"
      "                                  --breaker-threshold K (default 3),\n"
      "                                  --threads N, --metrics PATH, --trace PATH,\n"
      "                                  --journal PATH (JSONL event journal),\n"
      "                                  --prom PATH (Prometheus text exposition),\n"
      "                                  --pin-meta\n"
      "                                exits 0 only when every job survived\n"
      "  soak --chaos                  chaos sweep over every fault seam (DESIGN.md §17):\n"
      "                                a fixed schedule of fault-plan cells runs the same\n"
      "                                GCN/GAT job set on a fresh engine per cell — the\n"
      "                                degradation-ladder seams unsharded, the shard seams\n"
      "                                at K=4, dataset_load/metrics_write via the global\n"
      "                                injector — and checks the recovery contract: every\n"
      "                                job survives, shard-seam and control cells\n"
      "                                reproduce the fault-free outputs bit for bit,\n"
      "                                ladder cells stay numerically correct, and retries\n"
      "                                and fallbacks surface in stats/journal; exits 5 on\n"
      "                                any contract violation\n"
      "  faults                        print the fault-seam table (plan-syntax name plus\n"
      "                                where each seam fires and what absorbs it)\n"
      "  stats METRICS.json            print the telemetry block (counters and\n"
      "                                latency histograms with p50/p90/p99) of a\n"
      "                                schema v%d metrics file (other versions are\n"
      "                                rejected); --prom re-renders it as Prometheus\n"
      "                                text exposition, --journal summarizes an event\n"
      "                                journal written by soak --journal\n"
      "  --metrics PATH                metrics file. Precedence: this flag wins over\n"
      "                                $GNNBRIDGE_METRICS_JSON, which wins over the\n"
      "                                default gnnbridge_metrics.json (profile mode)\n"
      "  --trace PATH                  trace file. Precedence: this flag wins over\n"
      "                                $GNNBRIDGE_TRACE_JSON, which wins over the\n"
      "                                default gnnbridge_trace.json (profile mode)\n"
      "  --trace-out PATH              alias for --trace\n"
      "  --metrics-out PATH            alias for --metrics\n"
      "  --model gcn|gat|sage|pool|mhgat  model to run (default gcn)\n"
      "  --backend dgl|pyg|roc|ours    framework backend (default ours)\n"
      "  --dataset NAME                arxiv|collab|citation|ddi|protein|ppa|reddit|products\n"
      "  --scale S                     dataset scale in (0,1] (default 0.1)\n"
      "  --threads N                   host threads in [1, 4096] (default:\n"
      "                                $GNNBRIDGE_THREADS, else hardware concurrency);\n"
      "                                results are byte-identical at any value\n"
      "  --shards K                    partition the graph into K edge-cut shards with\n"
      "                                per-layer ghost exchange (ours only; default 1 =\n"
      "                                unsharded); outputs stay bit-identical to the\n"
      "                                unsharded engine\n"
      "  --full                        run real numerics (default: trace-only)\n"
      "  --heads K                     attention heads for mhgat (default 4)\n"
      "  --kernels                     print the per-kernel breakdown\n"
      "  --tune                        run the online tuner before executing (ours only)\n"
      "  --no-las / --no-ng / --no-fusion / --no-linear\n"
      "                                disable individual optimizations (ours only)\n"
      "exit status: 0 success, 1 runtime failure (run, output write or metrics read),\n"
      "             2 usage error, 3 dataset load failure,\n"
      "             5 chaos contract violation (soak --chaos)\n",
      prof::kMetricsSchemaVersion);
}

int cmd_analyze(const std::string& path) {
  auto loaded = prof::load_metrics_file(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "gnnbridge_cli: %s\n", loaded.status().to_string().c_str());
    return 1;
  }
  std::printf("metrics '%s': experiment '%s', schema v%d, %zu run(s)\n", path.c_str(),
              loaded->experiment.c_str(), loaded->schema_version, loaded->runs.size());
  if (loaded->runs.empty()) {
    std::fprintf(stderr, "gnnbridge_cli: no runs recorded in '%s'\n", path.c_str());
    return 1;
  }
  for (const auto& rec : loaded->runs) {
    std::fputs(prof::render_gap_table(prof::attribute_gaps(rec)).c_str(), stdout);
  }
  return 0;
}

int cmd_compare(const std::string& baseline_path, const std::string& optimized_path) {
  auto base = prof::load_metrics_file(baseline_path);
  if (!base.ok()) {
    std::fprintf(stderr, "gnnbridge_cli: %s\n", base.status().to_string().c_str());
    return 1;
  }
  auto opt = prof::load_metrics_file(optimized_path);
  if (!opt.ok()) {
    std::fprintf(stderr, "gnnbridge_cli: %s\n", opt.status().to_string().c_str());
    return 1;
  }
  // Pair runs on (model, dataset) — the same workload under two backends
  // or knob settings is exactly what the gap diff explains. A single run
  // on each side pairs unconditionally.
  std::vector<bool> used(opt->runs.size(), false);
  std::size_t paired = 0;
  for (const auto& ra : base->runs) {
    std::size_t match = opt->runs.size();
    for (std::size_t j = 0; j < opt->runs.size(); ++j) {
      if (!used[j] && opt->runs[j].model == ra.model && opt->runs[j].dataset == ra.dataset) {
        match = j;
        break;
      }
    }
    if (match == opt->runs.size() && base->runs.size() == 1 && opt->runs.size() == 1) {
      match = 0;
    }
    if (match == opt->runs.size()) continue;
    used[match] = true;
    ++paired;
    const auto c = prof::compare_gaps(prof::attribute_gaps(ra),
                                      prof::attribute_gaps(opt->runs[match]));
    std::fputs(prof::render_compare_table(c).c_str(), stdout);
  }
  if (paired == 0) {
    std::fprintf(stderr,
                 "gnnbridge_cli: no runs with matching (model, dataset) between '%s' and '%s'\n",
                 baseline_path.c_str(), optimized_path.c_str());
    return 1;
  }
  return 0;
}

graph::DatasetId parse_dataset(const std::string& name) {
  for (graph::DatasetId id : graph::kAllDatasets) {
    if (name == graph::dataset_name(id)) return id;
  }
  std::fprintf(stderr, "unknown dataset '%s'\n", name.c_str());
  std::exit(2);
}

// Checked replacements for atof/atoi: the whole token must parse and the
// value must be in range, otherwise we exit with a usage error instead of
// silently running with 0.
double parse_double_flag(const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "%s: '%s' is not a finite number\n", flag, text);
    std::exit(2);
  }
  return value;
}

int parse_int_flag(const char* flag, const char* text, long min, long max) {
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < min || value > max) {
    std::fprintf(stderr, "%s: '%s' is not an integer in [%ld, %ld]\n", flag, text, min, max);
    std::exit(2);
  }
  return static_cast<int>(value);
}

/// Output paths shared by every subcommand's arg loop.
struct CommonArgs {
  std::string metrics;
  std::string trace;
  int shards = 1;
};

/// One handler for the flags every subcommand accepts: --metrics /
/// --metrics-out, --trace / --trace-out, --shards, and --threads (which
/// applies immediately). Returns true when `arg` was consumed; `next` must
/// yield the flag's value (exiting with a usage error when absent).
template <typename Next>
bool parse_common_flag(const std::string& arg, Next&& next, CommonArgs& out) {
  if (arg == "--metrics" || arg == "--metrics-out") {
    out.metrics = next();
    return true;
  }
  if (arg == "--trace" || arg == "--trace-out") {
    out.trace = next();
    return true;
  }
  if (arg == "--threads") {
    par::set_max_threads(parse_int_flag("--threads", next(), 1, 4096));
    return true;
  }
  if (arg == "--shards") {
    out.shards = parse_int_flag("--shards", next(), 1, 4096);
    return true;
  }
  return false;
}

/// Rebuilds an obs::RegistrySnapshot from a parsed metrics `telemetry`
/// block, so the stats table and the Prometheus re-render share the live
/// registry's code paths.
obs::RegistrySnapshot snapshot_from_json(const prof::JsonValue& telemetry) {
  obs::RegistrySnapshot snap;
  if (const prof::JsonValue* cs = telemetry.find("counters"); cs && cs->is_array()) {
    for (const auto& c : cs->items) {
      snap.counters.emplace_back(c.str_or("name", ""), c.uint_or("value", 0));
    }
  }
  if (const prof::JsonValue* hs = telemetry.find("histograms"); hs && hs->is_array()) {
    for (const auto& h : hs->items) {
      obs::HistogramSnapshot s;
      s.count = h.uint_or("count", 0);
      s.sum = h.num_or("sum", 0.0);
      s.min = h.num_or("min", 0.0);
      s.max = h.num_or("max", 0.0);
      s.p50 = h.num_or("p50", 0.0);
      s.p90 = h.num_or("p90", 0.0);
      s.p99 = h.num_or("p99", 0.0);
      if (const prof::JsonValue* bs = h.find("buckets"); bs && bs->is_array()) {
        for (const auto& b : bs->items) {
          s.buckets.emplace_back(b.num_or("le", 0.0), b.uint_or("count", 0));
        }
      }
      snap.histograms.emplace_back(h.str_or("name", ""), std::move(s));
    }
  }
  return snap;
}

/// `gnnbridge_cli stats`: human-readable view of the telemetry block of a
/// metrics file of the current schema version, with optional Prometheus
/// re-render and event journal summary.
int cmd_stats(int argc, char** argv) {
  std::string metrics_path, prom_out, journal_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--prom") {
      prom_out = next();
    } else if (arg == "--journal") {
      journal_path = next();
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown stats option '%s'\n", arg.c_str());
      usage();
      return 2;
    } else if (metrics_path.empty()) {
      metrics_path = arg;
    } else {
      usage();
      return 2;
    }
  }
  if (metrics_path.empty()) {
    usage();
    return 2;
  }

  auto doc = prof::parse_json_file(metrics_path);
  if (!doc.ok()) {
    std::fprintf(stderr, "gnnbridge_cli: %s\n", doc.status().to_string().c_str());
    return 1;
  }
  if (rt::Status s = prof::check_metrics_document(*doc); !s.ok()) {
    std::fprintf(stderr, "gnnbridge_cli: %s\n",
                 std::move(s).with_context("stats('" + metrics_path + "')").to_string().c_str());
    return 1;
  }
  const prof::JsonValue* telemetry = doc->find("telemetry");
  if (!telemetry || !telemetry->is_object()) {
    std::fprintf(stderr, "gnnbridge_cli: '%s' has no telemetry block\n", metrics_path.c_str());
    return 1;
  }
  const obs::RegistrySnapshot snap = snapshot_from_json(*telemetry);
  std::printf("telemetry of '%s' (schema v%d): %zu counter(s), %zu histogram(s)\n",
              metrics_path.c_str(), prof::kMetricsSchemaVersion, snap.counters.size(),
              snap.histograms.size());
  if (!snap.counters.empty()) {
    std::printf("%-28s %16s\n", "counter", "value");
    for (const auto& [name, value] : snap.counters) {
      std::printf("%-28s %16llu\n", name.c_str(), static_cast<unsigned long long>(value));
    }
  }
  if (!snap.histograms.empty()) {
    std::printf("%-28s %10s %12s %12s %12s %12s\n", "histogram", "count", "p50", "p90", "p99",
                "max");
    for (const auto& [name, h] : snap.histograms) {
      std::printf("%-28s %10llu %12.6g %12.6g %12.6g %12.6g\n", name.c_str(),
                  static_cast<unsigned long long>(h.count), h.p50, h.p90, h.p99, h.max);
    }
  }

  if (!prom_out.empty()) {
    if (rt::Status ps = obs::write_prometheus_file(prom_out, snap); !ps.ok()) {
      std::fprintf(stderr, "gnnbridge_cli: %s\n", ps.to_string().c_str());
      return 1;
    }
    std::printf("stats: prometheus exposition -> %s\n", prom_out.c_str());
  }

  if (!journal_path.empty()) {
    std::ifstream in(journal_path);
    if (!in) {
      std::fprintf(stderr, "gnnbridge_cli: cannot read journal '%s'\n", journal_path.c_str());
      return 1;
    }
    std::size_t events = 0;
    std::set<std::string> requests;
    std::map<std::string, std::size_t> by_type;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      auto ev = prof::parse_json(line);
      if (!ev.ok()) {
        std::fprintf(stderr, "gnnbridge_cli: journal '%s' line %zu: %s\n", journal_path.c_str(),
                     events + 1, ev.status().to_string().c_str());
        return 1;
      }
      ++events;
      requests.insert(ev->str_or("req", ""));
      ++by_type[ev->str_or("type", "?")];
    }
    std::printf("journal '%s': %zu event(s) across %zu request(s)\n", journal_path.c_str(),
                events, requests.size());
    for (const auto& [type, n] : by_type) {
      std::printf("  %-12s %zu\n", type.c_str(), n);
    }
  }
  return 0;
}

/// `gnnbridge_cli faults`: print the seam table from rt/fault.hpp — the
/// plan-syntax name of every fault seam plus where it fires and what
/// absorbs it — so fault plans can be written without a source read.
int cmd_faults() {
  std::printf("fault seams (arm via GNNBRIDGE_FAULT_PLAN=\"seam\", \"seam=N\" or \"seam=*\"):\n");
  for (const rt::SeamInfo& s : rt::kSeamTable) {
    std::printf("  %-16.*s %.*s\n", static_cast<int>(s.name.size()), s.name.data(),
                static_cast<int>(s.description.size()), s.description.data());
  }
  std::printf("plan entries are comma-separated; an armed seam fails its next N shots\n"
              "(every shot with '*') and then passes. soak applies the plan per job, so\n"
              "each job sees its own shot counters; `soak --chaos` sweeps all of them.\n");
  return 0;
}

// One dataset of the soak stream, owning the weights/features its BatchJobs
// point at (the deque below keeps addresses stable).
struct SoakDataset {
  graph::Dataset data;
  models::GcnConfig gcn_cfg;
  models::GcnParams gcn_params;
  models::Matrix gcn_x;
  baselines::GcnRun gcn;
  models::GatConfig gat_cfg;
  models::GatParams gat_params;
  models::Matrix gat_x;
  baselines::GatRun gat;
  models::SagePoolConfig pool_cfg;
  models::SagePoolParams pool_params;
  models::Matrix pool_x;
  baselines::SagePoolRun pool;
  models::MultiHeadGatConfig mh_cfg;
  models::MultiHeadGatParams mh_params;
  models::Matrix mh_x;
  baselines::MultiHeadGatRun mh;
};

/// Writes the metrics / journal / Prometheus / trace artifacts both soak
/// modes share. Returns 0, or 1 when a write failed.
int flush_soak_artifacts(CommonArgs& common, const std::string& journal_out,
                         const std::string& prom_out) {
  prof::MetricsSink& sink = prof::MetricsSink::instance();
  if (common.metrics.empty()) {
    const char* env = prof::MetricsSink::env_path();
    if (env) common.metrics = env;
  }
  if (!common.metrics.empty()) {
    if (rt::Status ws = sink.write_file(common.metrics); !ws.ok()) {
      std::fprintf(stderr, "gnnbridge_cli: %s\n", ws.to_string().c_str());
      return 1;
    }
    std::printf("soak: metrics (%zu run%s) -> %s\n", sink.size(), sink.size() == 1 ? "" : "s",
                common.metrics.c_str());
  }
  if (!journal_out.empty()) {
    obs::EventJournal& journal = obs::EventJournal::instance();
    if (rt::Status js = journal.write_file(journal_out); !js.ok()) {
      std::fprintf(stderr, "gnnbridge_cli: %s\n", js.to_string().c_str());
      return 1;
    }
    std::printf("soak: journal (%zu event%s) -> %s\n", journal.size(),
                journal.size() == 1 ? "" : "s", journal_out.c_str());
  }
  if (!prom_out.empty()) {
    if (rt::Status ps =
            obs::write_prometheus_file(prom_out, obs::TelemetryRegistry::instance().snapshot());
        !ps.ok()) {
      std::fprintf(stderr, "gnnbridge_cli: %s\n", ps.to_string().c_str());
      return 1;
    }
    std::printf("soak: prometheus exposition -> %s\n", prom_out.c_str());
  }
  if (!common.trace.empty()) {
    if (rt::Status ts = prof::write_chrome_trace_file(common.trace,
                                                      prof::Tracer::instance().snapshot(),
                                                      nullptr, nullptr);
        !ts.ok()) {
      std::fprintf(stderr, "gnnbridge_cli: %s\n", ts.to_string().c_str());
      return 1;
    }
    std::printf("soak: %zu spans -> %s\n", prof::Tracer::instance().size(),
                common.trace.c_str());
  }
  return 0;
}

/// `gnnbridge_cli soak --chaos`: the DESIGN.md §17 recovery-contract
/// sweep (engine::run_chaos_sweep) over the soak datasets' GCN/GAT runs,
/// one line per cell and per out-of-engine probe. The schedule is fixed
/// and the engine deterministic, so stdout and every artifact are
/// byte-identical at any --threads value. Exits 5 on any violation.
int run_chaos(double scale, int breaker_threshold, const std::string& env_plan,
              CommonArgs& common, const std::string& journal_out, const std::string& prom_out,
              bool pin_meta, const std::deque<SoakDataset>& sets, const sim::DeviceSpec& spec) {
  if (!env_plan.empty()) {
    std::printf("soak --chaos: ignoring GNNBRIDGE_FAULT_PLAN='%s' (the chaos schedule "
                "arms its own per-cell plans)\n",
                env_plan.c_str());
  }

  prof::MetricsSink& sink = prof::MetricsSink::instance();
  sink.configure("gnnbridge_cli soak --chaos", scale);
  if (pin_meta) {
    sink.set_meta(prof::MetaInfo{.git_sha = "fixed",
                                 .timestamp = "2026-01-01T00:00:00Z",
                                 .hostname = "fixed",
                                 .scale_env = "",
                                 .threads = 0});
  }

  const std::span<const engine::ChaosCell> cells = engine::chaos_cells();
  std::vector<engine::ChaosJobSet> job_sets;
  for (const SoakDataset& s : sets) job_sets.push_back({&s.data, &s.gcn, &s.gat});
  std::printf("soak --chaos: %zu cell(s) x %zu job(s) @ scale %.3g, shard seams at K=4\n",
              cells.size(), job_sets.size() * 2, scale);

  const rt::Result<engine::ChaosReport> report =
      engine::run_chaos_sweep(job_sets, scale, breaker_threshold, spec);
  if (!report.ok()) {
    std::fprintf(stderr, "soak --chaos: %s\n", report.status().message().c_str());
    return 1;
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const engine::ChaosCellVerdict& v = report->cells[c];
    std::printf("chaos cell %2zu/%zu: %-18s shards=%d attempts=%d shard_retries=%llu: %s\n",
                c + 1, cells.size(), v.name.c_str(), cells[c].shards, cells[c].max_attempts,
                static_cast<unsigned long long>(v.shard_retries), v.ok ? "ok" : "VIOLATED");
  }
  for (const engine::ChaosProbe& p : report->probes) {
    std::printf("chaos seam %s: %s\n", p.plan.c_str(), p.summary.c_str());
  }
  std::printf("chaos journal: %zu event(s), %llu fault fire(s)\n", report->journal_events,
              static_cast<unsigned long long>(report->fault_fires));

  const obs::TelemetryRegistry& reg = obs::TelemetryRegistry::instance();
  std::printf("recovery: shard_retries=%llu shards_reexecuted=%llu fallback_unsharded=%llu "
              "wasted_cycles=%.12g\n",
              static_cast<unsigned long long>(reg.counter_value("recovery.shard_retries")),
              static_cast<unsigned long long>(reg.counter_value("recovery.shards_reexecuted")),
              static_cast<unsigned long long>(reg.counter_value("recovery.shard_fallbacks")),
              reg.histogram_snapshot("recovery.wasted_cycles").sum);

  if (int rc = flush_soak_artifacts(common, journal_out, prom_out); rc != 0) return rc;

  for (const std::string& v : report->violations) {
    std::fprintf(stderr, "soak --chaos: contract violation: %s\n", v.c_str());
  }
  if (!report->violations.empty()) {
    std::printf("chaos contract: VIOLATED (%zu violation%s)\n", report->violations.size(),
                report->violations.size() == 1 ? "" : "s");
    return 5;
  }
  std::printf("chaos contract: held (%zu cell(s), %zu job(s), %zu/%zu seams exercised, "
              "shard recovery bit-identical)\n",
              cells.size(), report->jobs_run, rt::kKnownSeams.size(), rt::kKnownSeams.size());
  return 0;
}

// `gnnbridge_cli soak`: replay a deterministic (model, dataset) job stream
// through OptimizedEngine::run_batch in waves, under the fault plan from
// GNNBRIDGE_FAULT_PLAN (applied per job, so every job sees its own shot
// counters), with per-job deadlines, retries and the circuit breaker. The
// headline demo of DESIGN.md §12: with faults armed and deadlines set,
// every job must still reach a final state.
int cmd_soak(int argc, char** argv) {
  int jobs = 10, wave = 4, max_attempts = 2, breaker_threshold = 3;
  double scale = 0.05, deadline_ms = 0.0;
  CommonArgs common;
  std::string journal_out, prom_out;
  bool pin_meta = false, chaos = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (parse_common_flag(arg, next, common)) {
    } else if (arg == "--jobs") {
      jobs = parse_int_flag("--jobs", next(), 1, 100000);
    } else if (arg == "--wave") {
      wave = parse_int_flag("--wave", next(), 1, 4096);
    } else if (arg == "--scale") {
      scale = parse_double_flag("--scale", next());
    } else if (arg == "--deadline-ms") {
      deadline_ms = parse_double_flag("--deadline-ms", next());
    } else if (arg == "--max-attempts") {
      max_attempts = parse_int_flag("--max-attempts", next(), 1, 64);
    } else if (arg == "--breaker-threshold") {
      breaker_threshold = parse_int_flag("--breaker-threshold", next(), 1, 1000);
    } else if (arg == "--journal") {
      journal_out = next();
    } else if (arg == "--prom") {
      prom_out = next();
    } else if (arg == "--pin-meta") {
      pin_meta = true;
    } else if (arg == "--chaos") {
      chaos = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown soak option '%s'\n", arg.c_str());
      usage();
      return 2;
    }
  }
  if (!journal_out.empty()) obs::EventJournal::instance().set_enabled(true);
  if (!common.trace.empty()) prof::Tracer::instance().set_enabled(true);
  if (scale <= 0.0 || scale > 1.0) {
    std::fprintf(stderr, "--scale must be in (0, 1]\n");
    return 2;
  }
  if (deadline_ms < 0.0) {
    std::fprintf(stderr, "--deadline-ms must be >= 0\n");
    return 2;
  }

  // The process-wide injector is disarmed; the plan rides on each BatchJob
  // instead so concurrent jobs never race on shared shot counters. Validate
  // it up front for a clean usage error.
  std::string plan;
  if (const char* env = std::getenv("GNNBRIDGE_FAULT_PLAN")) plan = env;
  rt::FaultInjector::instance().clear();
  if (!plan.empty()) {
    rt::FaultInjector::ScopedJobPlan probe(plan);
    if (!probe.status().ok()) {
      std::fprintf(stderr, "gnnbridge_cli: bad GNNBRIDGE_FAULT_PLAN: %s\n",
                   probe.status().to_string().c_str());
      return 2;
    }
  }

  const sim::DeviceSpec spec = sim::v100();
  const graph::DatasetId dataset_ids[] = {graph::DatasetId::kCollab, graph::DatasetId::kCitation};
  std::deque<SoakDataset> sets;
  for (graph::DatasetId id : dataset_ids) {
    rt::Result<graph::Dataset> loaded = graph::try_make_dataset(id, scale);
    if (!loaded.ok()) {
      std::fprintf(stderr, "gnnbridge_cli: dataset load failed: %s\n",
                   loaded.status().to_string().c_str());
      return 3;
    }
    SoakDataset& s = sets.emplace_back();
    s.data = std::move(loaded).value();
    const int n = s.data.csr.num_nodes;
    s.gcn_params = models::init_gcn(s.gcn_cfg, 1);
    s.gcn_x = models::init_features(n, s.gcn_cfg.dims[0], 1);
    s.gcn = {&s.gcn_cfg, &s.gcn_params, &s.gcn_x};
    s.gat_params = models::init_gat(s.gat_cfg, 2);
    s.gat_x = models::init_features(n, s.gat_cfg.dims[0], 2);
    s.gat = {&s.gat_cfg, &s.gat_params, &s.gat_x};
    s.pool_params = models::init_sage_pool(s.pool_cfg, 4);
    s.pool_x = models::init_features(n, s.pool_cfg.in_feat, 4);
    s.pool = {&s.pool_cfg, &s.pool_params, &s.pool_x};
    s.mh_params = models::init_multihead_gat(s.mh_cfg, 5);
    s.mh_x = models::init_features(n, s.mh_cfg.in_feat, 5);
    s.mh = {&s.mh_cfg, &s.mh_params, &s.mh_x};
  }

  if (chaos) {
    return run_chaos(scale, breaker_threshold, plan, common, journal_out, prom_out, pin_meta,
                     sets, spec);
  }

  engine::EngineConfig ecfg;
  ecfg.auto_tune = true;
  ecfg.breaker.failure_threshold = breaker_threshold;
  ecfg.shards = common.shards;
  engine::OptimizedEngine eng(ecfg);

  // The stream cycles models fast and datasets slowly, so consecutive jobs
  // hit different breaker keys but every (model, dataset) cell recurs.
  const char* kKinds[] = {"gcn", "gat", "pool", "mhgat"};
  std::vector<engine::OptimizedEngine::BatchJob> stream(static_cast<std::size_t>(jobs));
  std::vector<std::string> labels(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const SoakDataset& s = sets[(i / 4) % sets.size()];
    engine::OptimizedEngine::BatchJob& job = stream[i];
    job.data = &s.data;
    switch (i % 4) {
      case 0: job.gcn = &s.gcn; break;
      case 1: job.gat = &s.gat; break;
      case 2: job.sage_pool = &s.pool; break;
      default: job.multihead_gat = &s.mh; break;
    }
    job.mode = kernels::ExecMode::kSimulateOnly;
    job.spec = spec;
    if (deadline_ms > 0.0) {
      job.deadline = rt::Deadline::cycles(deadline_ms * spec.clock_ghz * 1e6);
    }
    job.max_attempts = max_attempts;
    job.fault_plan = plan;
    // Stable ID matching the sink-label suffix ("<kind>/<dataset>/job<i>"),
    // so journal events join to gap_report runs.
    job.request_id = "job" + std::to_string(i);
    labels[i] = std::string(kKinds[i % 4]) + "/" + s.data.name;
  }

  prof::MetricsSink& sink = prof::MetricsSink::instance();
  sink.configure("gnnbridge_cli soak", scale);
  if (pin_meta) {
    sink.set_meta(prof::MetaInfo{.git_sha = "fixed",
                                 .timestamp = "2026-01-01T00:00:00Z",
                                 .hostname = "fixed",
                                 .scale_env = "",
                                 .threads = 0});
  }

  std::printf("soak: %d job(s) in waves of %d over %zu dataset(s) @ scale %.3g, "
              "deadline %.3g sim-ms, max attempts %d, plan '%s'\n",
              jobs, wave, sets.size(), scale, deadline_ms, max_attempts, plan.c_str());

  std::size_t ok = 0, timed_out = 0, cancelled = 0, failed = 0;
  for (std::size_t start = 0, w = 0; start < stream.size(); start += static_cast<std::size_t>(wave), ++w) {
    const std::size_t n = std::min(static_cast<std::size_t>(wave), stream.size() - start);
    const auto results = eng.run_batch(std::span(stream).subspan(start, n));
    std::size_t wave_ok = 0;
    for (std::size_t j = 0; j < results.size(); ++j) {
      const baselines::RunResult& r = results[j];
      const std::size_t idx = start + j;
      if (r.status.ok()) {
        ++ok;
        ++wave_ok;
        sink.record({.label = labels[idx] + "/job" + std::to_string(idx),
                     .model = labels[idx].substr(0, labels[idx].find('/')),
                     .backend = "ours",
                     .dataset = stream[idx].data->name,
                     .ms = r.ms,
                     .oom = r.oom,
                     .stats = r.stats,
                     .spec = spec});
      } else if (r.timed_out) {
        ++timed_out;
      } else if (r.status.code() == rt::StatusCode::kCancelled) {
        ++cancelled;
      } else {
        ++failed;
      }
      if (!r.status.ok()) {
        std::fprintf(stderr, "soak: job %zu (%s, %d attempt(s), breaker %s): %s\n", idx,
                     labels[idx].c_str(), r.attempts,
                     r.breaker_state.empty() ? "closed" : r.breaker_state.c_str(),
                     r.status.to_string().c_str());
      }
    }
    std::printf("wave %zu: %zu/%zu ok\n", w, wave_ok, n);
  }

  const obs::TelemetryRegistry& reg = obs::TelemetryRegistry::instance();
  const auto count = [&](const char* name) {
    return static_cast<unsigned long long>(reg.counter_value(name));
  };
  std::printf("robustness: jobs=%llu attempts=%llu retries=%llu deadline_hits=%llu "
              "cancellations=%llu breaker_trips=%llu open_admissions=%llu "
              "half_open_probes=%llu recoveries=%llu cancel_points=%llu "
              "backoff_cycles=%.12g\n",
              count("serve.jobs"), count("serve.attempts"), count("serve.retries"),
              count("serve.jobs_deadline"), count("serve.jobs_cancelled"),
              count("serve.breaker_trips"), count("serve.breaker_open_admissions"),
              count("serve.breaker_half_open_probes"), count("serve.breaker_recoveries"),
              count("serve.cancel_points"), reg.histogram_snapshot("serve.backoff_cycles").sum);

  // Sim-cycle latency percentiles of the successful jobs, from the
  // telemetry registry the engine's fold filled.
  const obs::HistogramSnapshot lat = reg.histogram_snapshot("serve.job_cycles");
  std::printf("latency: n=%llu p50=%.12g p90=%.12g p99=%.12g max=%.12g sim-cycles\n",
              static_cast<unsigned long long>(lat.count), lat.p50, lat.p90, lat.p99, lat.max);

  if (int rc = flush_soak_artifacts(common, journal_out, prom_out); rc != 0) return rc;

  const std::size_t total = stream.size();
  std::printf("survival: %.1f%% (%zu/%zu ok, %zu timed out, %zu cancelled, %zu failed)\n",
              100.0 * static_cast<double>(ok) / static_cast<double>(total), ok, total, timed_out,
              cancelled, failed);
  return ok == total ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string model = "gcn", backend_name = "ours", dataset = "collab";
  double scale = 0.1;
  bool full = false, show_kernels = false, profile = false;
  int heads = 4;
  engine::EngineConfig ecfg;
  CommonArgs common;

  int first_arg = 1;
  if (argc > 1 && std::strcmp(argv[1], "profile") == 0) {
    profile = true;
    first_arg = 2;
  } else if (argc > 1 && std::strcmp(argv[1], "analyze") == 0) {
    if (argc != 3) {
      usage();
      return 2;
    }
    return cmd_analyze(argv[2]);
  } else if (argc > 1 && std::strcmp(argv[1], "compare") == 0) {
    if (argc != 4) {
      usage();
      return 2;
    }
    return cmd_compare(argv[2], argv[3]);
  } else if (argc > 1 && std::strcmp(argv[1], "soak") == 0) {
    return cmd_soak(argc, argv);
  } else if (argc > 1 && std::strcmp(argv[1], "faults") == 0) {
    return cmd_faults();
  } else if (argc > 1 && std::strcmp(argv[1], "stats") == 0) {
    return cmd_stats(argc, argv);
  }
  for (int i = first_arg; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (parse_common_flag(arg, next, common)) {
    } else if (arg == "--model") {
      model = next();
    } else if (arg == "--backend") {
      backend_name = next();
    } else if (arg == "--dataset") {
      dataset = next();
    } else if (arg == "--scale") {
      scale = parse_double_flag("--scale", next());
    } else if (arg == "--heads") {
      heads = parse_int_flag("--heads", next(), 1, 64);
    } else if (arg == "--full") {
      full = true;
    } else if (arg == "--kernels") {
      show_kernels = true;
    } else if (arg == "--tune") {
      ecfg.auto_tune = true;
    } else if (arg == "--no-las") {
      ecfg.use_las = false;
    } else if (arg == "--no-ng") {
      ecfg.use_neighbor_grouping = false;
    } else if (arg == "--no-fusion") {
      ecfg.use_adapter = ecfg.use_linear = false;
    } else if (arg == "--no-linear") {
      ecfg.use_linear = false;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage();
      return 2;
    }
  }
  if (scale <= 0.0 || scale > 1.0) {
    std::fprintf(stderr, "--scale must be in (0, 1]\n");
    return 2;
  }
  if (profile) {
    if (common.trace.empty()) {
      const char* env = prof::trace_env_path();
      common.trace = env ? env : "gnnbridge_trace.json";
    }
    if (common.metrics.empty()) {
      const char* env = prof::MetricsSink::env_path();
      common.metrics = env ? env : "gnnbridge_metrics.json";
    }
    prof::Tracer::instance().set_enabled(true);
  }

  ecfg.shards = common.shards;
  std::unique_ptr<baselines::Backend> backend;
  if (backend_name == "dgl") {
    backend = std::make_unique<baselines::DglBackend>();
  } else if (backend_name == "pyg") {
    backend = std::make_unique<baselines::PygBackend>();
  } else if (backend_name == "roc") {
    backend = std::make_unique<baselines::RocBackend>();
  } else if (backend_name == "ours") {
    backend = std::make_unique<engine::OptimizedEngine>(ecfg);
  } else {
    std::fprintf(stderr, "unknown backend '%s'\n", backend_name.c_str());
    return 2;
  }

  rt::Result<graph::Dataset> loaded = graph::try_make_dataset(parse_dataset(dataset), scale);
  if (!loaded.ok()) {
    std::fprintf(stderr, "gnnbridge_cli: dataset load failed: %s\n",
                 loaded.status().to_string().c_str());
    return 3;
  }
  const graph::Dataset data = std::move(loaded).value();
  std::printf("dataset %s @ scale %.3g: %d nodes, %lld edges (avg deg %.1f, max %lld)\n",
              data.name.c_str(), scale, data.stats.num_nodes,
              static_cast<long long>(data.stats.num_edges), data.stats.avg_degree,
              static_cast<long long>(data.stats.max_degree));

  const kernels::ExecMode mode = full ? kernels::ExecMode::kFull
                                      : kernels::ExecMode::kSimulateOnly;
  baselines::RunResult r;
  if (model == "gcn") {
    const models::GcnConfig cfg;
    const auto params = models::init_gcn(cfg, 1);
    const auto x = models::init_features(data.csr.num_nodes, cfg.dims[0], 1);
    r = backend->run_gcn(data, {&cfg, &params, &x}, mode, sim::v100());
  } else if (model == "gat") {
    const models::GatConfig cfg;
    const auto params = models::init_gat(cfg, 2);
    const auto x = models::init_features(data.csr.num_nodes, cfg.dims[0], 2);
    r = backend->run_gat(data, {&cfg, &params, &x}, mode, sim::v100());
  } else if (model == "sage") {
    const models::SageLstmConfig cfg;
    const auto params = models::init_sage_lstm(cfg, 3);
    const auto x = models::init_features(data.csr.num_nodes, cfg.in_feat, 3);
    if (!backend->supports(models::ModelKind::kSageLstm)) {
      std::printf("%s does not implement GraphSAGE-LSTM ('x' in Figure 7c)\n",
                  backend_name.c_str());
      return 0;
    }
    r = backend->run_sage_lstm(data, {&cfg, &params, &x}, mode, sim::v100());
  } else if (model == "mhgat") {
    models::MultiHeadGatConfig cfg;
    cfg.heads = heads;
    const auto params = models::init_multihead_gat(cfg, 5);
    const auto x = models::init_features(data.csr.num_nodes, cfg.in_feat, 5);
    if (!backend->supports(models::ModelKind::kMultiHeadGat)) {
      std::printf("%s does not implement multi-head GAT\n", backend_name.c_str());
      return 0;
    }
    r = backend->run_multihead_gat(data, {&cfg, &params, &x}, mode, sim::v100());
  } else if (model == "pool") {
    const models::SagePoolConfig cfg;
    const auto params = models::init_sage_pool(cfg, 4);
    const auto x = models::init_features(data.csr.num_nodes, cfg.in_feat, 4);
    if (!backend->supports(models::ModelKind::kSagePool)) {
      std::printf("%s does not implement GraphSAGE-Pool\n", backend_name.c_str());
      return 0;
    }
    r = backend->run_sage_pool(data, {&cfg, &params, &x}, mode, sim::v100());
  } else {
    std::fprintf(stderr, "unknown model '%s'\n", model.c_str());
    return 2;
  }

  if (!r.status.ok()) {
    std::fprintf(stderr, "gnnbridge_cli: run failed: %s\n", r.status.to_string().c_str());
    return 1;
  }
  if (backend_name == "ours") {
    const auto& eng = static_cast<const engine::OptimizedEngine&>(*backend);
    const auto knobs = eng.degraded_knobs();
    if (!knobs.empty()) {
      std::string joined;
      for (const auto& k : knobs) joined += (joined.empty() ? "" : " ") + k;
      std::printf("degraded knobs: %s\n", joined.c_str());
    }
  }

  const sim::DeviceSpec spec = sim::v100();
  if (profile) {
    prof::MetricsSink& sink = prof::MetricsSink::instance();
    sink.configure("gnnbridge_cli profile", scale);
    sink.record({.label = model + "/" + backend_name + "/" + data.name,
                 .model = model,
                 .backend = backend_name,
                 .dataset = data.name,
                 .ms = r.ms,
                 .oom = r.oom,
                 .stats = r.stats,
                 .spec = spec});
    if (rt::Status ws = sink.write_file(common.metrics); !ws.ok()) {
      std::fprintf(stderr, "gnnbridge_cli: %s\n", ws.to_string().c_str());
      return 1;
    }
    if (rt::Status ts = prof::write_chrome_trace_file(common.trace,
                                                      prof::Tracer::instance().snapshot(),
                                                      &r.stats, &spec);
        !ts.ok()) {
      std::fprintf(stderr, "gnnbridge_cli: %s\n", ts.to_string().c_str());
      return 1;
    }
    std::printf("profile: %zu spans -> %s (open in ui.perfetto.dev or chrome://tracing)\n",
                prof::Tracer::instance().size(), common.trace.c_str());
    std::printf("profile: metrics (%zu run%s) -> %s\n", sink.size(),
                sink.size() == 1 ? "" : "s", common.metrics.c_str());
  }
  if (r.oom) {
    std::printf("OOM at paper scale: footprint %.1f GB > 32 GB device\n",
                static_cast<double>(r.paper_bytes) / 1e9);
    return 0;
  }
  std::printf("%s on %s: %.3f simulated ms, %d launches, L2 hit %.1f%%, %.1f GFLOPS\n",
              model.c_str(), backend_name.c_str(), r.ms, r.stats.num_launches(),
              100.0 * r.stats.l2_hit_rate(), r.stats.gflops(spec));
  if (full && !r.output.empty()) {
    std::printf("output [%lld x %lld], Frobenius norm %.4f\n",
                static_cast<long long>(r.output.rows()),
                static_cast<long long>(r.output.cols()),
                static_cast<double>(tensor::frobenius_norm(r.output)));
  }
  if (show_kernels) {
    std::printf("%-24s %8s %12s %10s %10s\n", "kernel", "blocks", "cycles", "hit %", "MFLOP");
    for (const auto& k : r.stats.kernels) {
      std::printf("%-24s %8d %12.0f %9.1f%% %10.2f\n", k.name.c_str(), k.num_blocks, k.cycles,
                  100.0 * k.l2_hit_rate(), k.flops / 1e6);
    }
  }
  return 0;
}
