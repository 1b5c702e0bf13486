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
//   gnnbridge_cli soak --overload --jobs 48 --offered-x 4
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "baselines/dgl.hpp"
#include "baselines/pyg.hpp"
#include "baselines/roc.hpp"
#include "engine/engine.hpp"
#include "graph/datasets.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/journal.hpp"
#include "obs/prometheus.hpp"
#include "obs/registry.hpp"
#include "obs/slo.hpp"
#include "par/thread_pool.hpp"
#include "prof/chrome_trace.hpp"
#include "prof/critical_path.hpp"
#include "prof/gap_report.hpp"
#include "prof/json_reader.hpp"
#include "prof/metrics_json.hpp"
#include "prof/span.hpp"
#include "rt/deadline.hpp"
#include "rt/fault.hpp"
#include "rt/status.hpp"
#include "serve/admission.hpp"
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
      "       gnnbridge_cli triage METRICS.json --journal JOURNAL.jsonl [--top K]\n"
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
      "                                  --slo-ms D (per-request latency objective in\n"
      "                                  sim-ms; arms the per-tenant SLO tracker),\n"
      "                                  --slo-window-ms W (tumbling SLO window;\n"
      "                                  0 = one all-time window),\n"
      "                                  --slo-target P (good fraction, default 0.99),\n"
      "                                  --flight-recorder PATH (arm the anomaly\n"
      "                                  flight recorder; postmortem JSON on trigger),\n"
      "                                  --pin-meta\n"
      "                                exits 0 only when every job survived\n"
      "  soak --overload               open-loop overload demo: two tenants share one\n"
      "                                AdmissionController in front of run_batch.\n"
      "                                t-steady offers ~0.5x capacity at normal priority\n"
      "                                within its quota; t-burst offers --offered-x R\n"
      "                                (default 4) times capacity at low priority on a\n"
      "                                quota sized for R/4 — admission control must shed\n"
      "                                or quota-reject the excess while the steady tenant\n"
      "                                sails through. Prints the overload counters,\n"
      "                                per-tenant verdicts and a shed-rate line; exits 4\n"
      "                                when the overload contract is violated (a steady\n"
      "                                job shed/rejected, an accepted job missing its\n"
      "                                deadline, or the queue bound exceeded)\n"
      "  soak --chaos                  chaos sweep over every fault seam (DESIGN.md §17):\n"
      "                                a fixed schedule of fault-plan cells runs the same\n"
      "                                GCN/GAT job set on a fresh engine per cell — the\n"
      "                                degradation-ladder seams unsharded, the shard seams\n"
      "                                at K=4, dataset_load/metrics_write via the global\n"
      "                                injector — and checks the recovery contract: every\n"
      "                                job survives, shard-seam and control cells\n"
      "                                reproduce the fault-free outputs bit for bit,\n"
      "                                ladder cells stay numerically correct, retries and\n"
      "                                fallbacks surface in stats/journal, and the\n"
      "                                critical-path phase sums hold; exits 5 on any\n"
      "                                contract violation\n"
      "  faults                        print the fault-seam table (plan-syntax name plus\n"
      "                                where each seam fires and what absorbs it)\n"
      "  stats METRICS.json            print the telemetry block (counters, gauges,\n"
      "                                latency histograms with p50/p90/p99) of a\n"
      "                                schema v%d metrics file; --prom re-renders it\n"
      "                                as Prometheus text exposition, --journal\n"
      "                                summarizes an event journal written by soak\n"
      "                                or $GNNBRIDGE_EVENT_JOURNAL\n"
      "  triage METRICS.json --journal JOURNAL.jsonl\n"
      "                                reconstruct each request's critical-path\n"
      "                                waterfall (queue wait, quota wait, backoff,\n"
      "                                degraded attempts, compute with gap sub-split)\n"
      "                                from a soak journal + metrics pair; print the\n"
      "                                top --top K slowest requests (default 5) and\n"
      "                                the per-tenant SLO table, and verify that the\n"
      "                                phase cycles sum to each request's end-to-end\n"
      "                                cycles; exits 1 on invariant violation\n"
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
      "                                per-layer ghost exchange (ours only; default:\n"
      "                                $GNNBRIDGE_SHARDS, else 1 = unsharded); outputs\n"
      "                                stay bit-identical to the unsharded engine\n"
      "  --full                        run real numerics (default: trace-only)\n"
      "  --heads K                     attention heads for mhgat (default 4)\n"
      "  --kernels                     print the per-kernel breakdown\n"
      "  --tune                        run the online tuner before executing (ours only)\n"
      "  --no-las / --no-ng / --no-fusion / --no-linear\n"
      "                                disable individual optimizations (ours only)\n"
      "exit status: 0 success, 1 runtime failure (run, output write, metrics read, or\n"
      "             triage invariant violation), 2 usage error, 3 dataset load failure,\n"
      "             4 overload contract violation (soak --overload),\n"
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
  int shards = 0;  // 0 = unset: EngineConfig falls back to $GNNBRIDGE_SHARDS
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
  if (const prof::JsonValue* gs = telemetry.find("gauges"); gs && gs->is_array()) {
    for (const auto& g : gs->items) {
      snap.gauges.emplace_back(g.str_or("name", ""), g.num_or("value", 0.0));
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
/// metrics file (schema v5 or later), with optional Prometheus re-render
/// and event journal summary.
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
  const prof::JsonValue* telemetry = doc->find("telemetry");
  if (!telemetry || !telemetry->is_object()) {
    std::fprintf(stderr,
                 "gnnbridge_cli: '%s' has no telemetry block (needs metrics schema v5+ (v%d "
                 "current), found v%lld)\n",
                 metrics_path.c_str(), prof::kMetricsSchemaVersion,
                 static_cast<long long>(doc->int_or("schema_version", 0)));
    return 1;
  }
  const obs::RegistrySnapshot snap = snapshot_from_json(*telemetry);
  std::printf("telemetry of '%s' (schema v%lld): %zu counter(s), %zu gauge(s), %zu histogram(s)\n",
              metrics_path.c_str(), static_cast<long long>(doc->int_or("schema_version", 0)),
              snap.counters.size(), snap.gauges.size(), snap.histograms.size());
  if (!snap.counters.empty()) {
    std::printf("%-28s %16s\n", "counter", "value");
    for (const auto& [name, value] : snap.counters) {
      std::printf("%-28s %16llu\n", name.c_str(), static_cast<unsigned long long>(value));
    }
  }
  if (!snap.gauges.empty()) {
    std::printf("%-28s %16s\n", "gauge", "value");
    for (const auto& [name, value] : snap.gauges) {
      std::printf("%-28s %16.6g\n", name.c_str(), value);
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

/// `gnnbridge_cli triage`: the serving-side "where did the cycles go"
/// view. Reconstructs per-request waterfalls from a journal, sub-splits
/// compute by the metrics file's gap_report runs, prints the per-tenant
/// SLO table from the v7 `slo` block, and checks the phase-sum == e2e
/// invariant. Pure function of the two input files, so its stdout is
/// byte-identical whenever the inputs are.
int cmd_triage(int argc, char** argv) {
  std::string metrics_path, journal_path;
  int top_k = 5;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--journal") {
      journal_path = next();
    } else if (arg == "--top") {
      top_k = parse_int_flag("--top", next(), 0, 100000);
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown triage option '%s'\n", arg.c_str());
      usage();
      return 2;
    } else if (metrics_path.empty()) {
      metrics_path = arg;
    } else {
      usage();
      return 2;
    }
  }
  if (metrics_path.empty() || journal_path.empty()) {
    usage();
    return 2;
  }

  std::ifstream in(journal_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "gnnbridge_cli: cannot read journal '%s'\n", journal_path.c_str());
    return 1;
  }
  std::string journal_text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  auto events = prof::parse_journal_jsonl(journal_text);
  if (!events.ok()) {
    std::fprintf(stderr, "gnnbridge_cli: journal '%s': %s\n", journal_path.c_str(),
                 events.status().to_string().c_str());
    return 1;
  }

  auto loaded = prof::load_metrics_file(metrics_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "gnnbridge_cli: %s\n", loaded.status().to_string().c_str());
    return 1;
  }
  auto doc = prof::parse_json_file(metrics_path);
  if (!doc.ok()) {
    std::fprintf(stderr, "gnnbridge_cli: %s\n", doc.status().to_string().c_str());
    return 1;
  }

  const prof::CriticalPathReport report = prof::analyze_critical_path(*events, &*loaded);
  std::printf("triage: %zu event(s), %zu request(s) from '%s' + '%s'\n", events->size(),
              report.requests.size(), journal_path.c_str(), metrics_path.c_str());
  std::fputs(prof::render_waterfall_table(report, static_cast<std::size_t>(top_k)).c_str(),
             stdout);

  // Per-tenant SLO table from the metrics v7 `slo` block.
  const prof::JsonValue* slo = doc->find("slo");
  if (slo && slo->is_object() && slo->bool_or("enabled", false) && slo->find("tenants") &&
      slo->find("tenants")->is_array() && !slo->find("tenants")->items.empty()) {
    std::printf("\nslo: latency objective %.12g cycles, target %.12g, window %.12g cycles\n",
                slo->num_or("latency_objective_cycles", 0.0),
                slo->num_or("success_objective", 0.0), slo->num_or("window_cycles", 0.0));
    std::printf("%-12s %9s %9s %13s %13s %12s %10s\n", "tenant", "requests", "good",
                "latency_viol", "failure_viol", "burn_rate", "exhausted");
    for (const auto& t : slo->find("tenants")->items) {
      const std::string tenant = t.str_or("tenant", "");
      std::printf("%-12s %9llu %9llu %13llu %13llu %12.6g %10s\n",
                  tenant.empty() ? "-" : tenant.c_str(),
                  static_cast<unsigned long long>(t.uint_or("requests", 0)),
                  static_cast<unsigned long long>(t.uint_or("good", 0)),
                  static_cast<unsigned long long>(t.uint_or("latency_violations", 0)),
                  static_cast<unsigned long long>(t.uint_or("failure_violations", 0)),
                  t.num_or("burn_rate", 0.0), t.bool_or("budget_exhausted", false) ? "yes" : "no");
    }
  } else {
    std::printf("\nslo: tracker inactive\n");
  }

  if (report.invariant_violations > 0) {
    std::printf("critical-path invariant: VIOLATED (%llu of %llu request(s), max rel err %.6g)\n",
                static_cast<unsigned long long>(report.invariant_violations),
                static_cast<unsigned long long>(report.invariant_checked),
                report.max_invariant_rel_error);
    return 1;
  }
  std::printf("critical-path invariant: OK (%llu request(s) checked, max rel err %.6g)\n",
              static_cast<unsigned long long>(report.invariant_checked),
              report.max_invariant_rel_error);
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

/// Prints the per-tenant SLO tally both soak modes share, from the
/// tracker the engine/admission folds filled. No-op when the tracker is
/// inactive, so pre-existing soak goldens are unchanged without --slo-ms.
void print_slo_summary() {
  obs::SloTracker& tracker = obs::SloTracker::instance();
  if (!tracker.enabled()) return;
  const obs::SloSnapshot snap = tracker.snapshot();
  if (snap.tenants.empty()) {
    std::printf("slo[-]: requests=0 good=0 latency_viol=0 failure_viol=0 windows=0 "
                "burn=0 exhausted=0\n");
    return;
  }
  for (const obs::TenantSlo& t : snap.tenants) {
    std::printf("slo[%s]: requests=%llu good=%llu latency_viol=%llu failure_viol=%llu "
                "windows=%llu burn=%.12g exhausted=%d\n",
                t.tenant.empty() ? "-" : t.tenant.c_str(),
                static_cast<unsigned long long>(t.requests),
                static_cast<unsigned long long>(t.good),
                static_cast<unsigned long long>(t.latency_violations),
                static_cast<unsigned long long>(t.failure_violations),
                static_cast<unsigned long long>(t.windows), t.burn_rate,
                t.budget_exhausted ? 1 : 0);
  }
}

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
    // The SLO series ride along whenever the tracker is armed; the render
    // helper emits nothing for an inactive snapshot, so passing it
    // unconditionally keeps the no-SLO exposition byte-identical.
    const obs::SloSnapshot slo = obs::SloTracker::instance().snapshot();
    if (rt::Status ps = obs::write_prometheus_file(
            prom_out, obs::TelemetryRegistry::instance().snapshot(), &slo);
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

const char* job_kind_name(const engine::OptimizedEngine::BatchJob& job) {
  if (job.gcn) return "gcn";
  if (job.gat) return "gat";
  if (job.sage_pool) return "pool";
  if (job.multihead_gat) return "mhgat";
  return "?";
}

/// `gnnbridge_cli soak --overload`: the DESIGN.md §14 demo. An open-loop
/// two-tenant stream is pushed through one AdmissionController at an
/// aggregate offered load of roughly (0.5 + R)x the virtual server's
/// capacity. The contract under test: the queue stays bounded, every
/// accepted job reaches a successful final state, the steady in-quota
/// tenant is never shed or rejected, and the burst tenant absorbs all of
/// the shedding. Arrival stamps and ladder thresholds both derive from
/// serve::estimate_job_cost, and the whole stream goes through a single
/// serve() call, so every admission decision is made in the same analytic
/// cost units — byte-identical output at any --threads value.
int run_overload(int jobs, int wave, double scale, double offered_x, double deadline_ms,
                 int max_attempts, int breaker_threshold, const std::string& plan,
                 CommonArgs& common, const std::string& journal_out, const std::string& prom_out,
                 bool pin_meta, std::deque<SoakDataset>& sets, const sim::DeviceSpec& spec) {
  engine::EngineConfig ecfg;
  ecfg.auto_tune = true;
  ecfg.breaker.failure_threshold = breaker_threshold;
  ecfg.shards = common.shards;
  engine::OptimizedEngine eng(ecfg);

  // t-steady offers kSteadyRate x capacity; t-burst offers offered_x x
  // capacity. Job counts are split so both tenants keep arriving over the
  // same sim horizon (n_burst/offered_x == n_steady/kSteadyRate).
  const double kSteadyRate = 0.5;
  const int n_steady =
      std::max(1, static_cast<int>(static_cast<double>(jobs) / (1.0 + offered_x / kSteadyRate)));
  const int n_burst = jobs - n_steady;

  auto make_job = [&](int seq) {
    const SoakDataset& s = sets[(static_cast<std::size_t>(seq) / 4) % sets.size()];
    engine::OptimizedEngine::BatchJob job;
    job.data = &s.data;
    switch (seq % 4) {
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
    return job;
  };

  std::vector<engine::OptimizedEngine::BatchJob> stream;
  stream.reserve(static_cast<std::size_t>(jobs));
  double total_est = 0.0;
  auto push_tenant = [&](const char* tenant, int priority, int count, double offered) {
    double arrival = 0.0;
    for (int i = 0; i < count; ++i) {
      engine::OptimizedEngine::BatchJob job = make_job(i);
      job.tenant = tenant;
      job.priority = priority;
      job.arrival_cycles = arrival;
      const double est = serve::estimate_job_cost(job);
      total_est += est;
      arrival += est / offered;
      stream.push_back(std::move(job));
    }
  };
  push_tenant("t-steady", static_cast<int>(serve::Priority::kNormal), n_steady, kSteadyRate);
  push_tenant("t-burst", static_cast<int>(serve::Priority::kLow), n_burst, offered_x);
  // Merge the two arrival sequences; stable so t-steady wins exact ties.
  std::stable_sort(stream.begin(), stream.end(),
                   [](const engine::OptimizedEngine::BatchJob& a,
                      const engine::OptimizedEngine::BatchJob& b) {
                     return a.arrival_cycles < b.arrival_cycles;
                   });
  const double mean_est = total_est / static_cast<double>(jobs);

  // Ladder thresholds and quotas in units of the mean analytic job cost:
  // pre-degrade at 2 jobs of backlog, shed low-priority work at 4, and
  // keep the shed-normal rung far out of reach so the in-quota tenant is
  // protected by a wide margin. t-steady's bucket refills at 1.5x its
  // offered rate (never the limiter); t-burst's refills at offered_x/4 —
  // i.e. the default demo runs it at exactly 4x quota.
  serve::AdmissionConfig cfg;
  cfg.max_queue_depth = 32;
  cfg.service_rate = 1.0;
  cfg.wave_size = static_cast<std::size_t>(wave);
  cfg.degrade_backlog_cycles = 2.0 * mean_est;
  cfg.shed_low_backlog_cycles = 4.0 * mean_est;
  cfg.shed_normal_backlog_cycles = 50.0 * mean_est;
  cfg.quotas["t-steady"] =
      serve::TenantQuota{.rate = 1.5 * kSteadyRate, .burst_cycles = 8.0 * mean_est, .weight = 4.0};
  cfg.quotas["t-burst"] =
      serve::TenantQuota{.rate = offered_x / 4.0, .burst_cycles = 4.0 * mean_est, .weight = 1.0};

  prof::MetricsSink& sink = prof::MetricsSink::instance();
  sink.configure("gnnbridge_cli soak --overload", scale);
  if (pin_meta) {
    sink.set_meta(prof::MetaInfo{.git_sha = "fixed",
                                 .timestamp = "2026-01-01T00:00:00Z",
                                 .hostname = "fixed",
                                 .scale_env = "",
                                 .threads = 0});
  }

  std::printf("soak --overload: %d job(s): t-steady %d @ %.3gx capacity (normal), "
              "t-burst %d @ %.3gx capacity (low); aggregate ~%.3gx; "
              "mean est cost %.6g cycles\n",
              jobs, n_steady, kSteadyRate, n_burst, offered_x, kSteadyRate + offered_x, mean_est);

  serve::AdmissionController ctl(cfg);
  const serve::ServeResult sr = ctl.serve(eng, stream);

  // Per-tenant verdicts, plus the overload contract checks.
  struct Tally {
    std::size_t submitted = 0, admitted = 0, shed = 0, rejected = 0;
  };
  std::map<std::string, Tally> tallies;
  std::vector<std::string> violations;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const engine::OptimizedEngine::BatchJob& job = stream[i];
    const serve::Decision& d = sr.decisions[i];
    const baselines::RunResult& r = sr.results[i];
    Tally& t = tallies[job.tenant];
    ++t.submitted;
    const std::string label = std::string(job_kind_name(job)) + "/" + job.data->name;
    if (d.outcome == serve::Decision::Outcome::kAdmitted) {
      ++t.admitted;
      if (r.status.ok()) {
        sink.record({.label = label + "/" + sr.request_ids[i],
                     .model = job_kind_name(job),
                     .backend = "ours",
                     .dataset = job.data->name,
                     .ms = r.ms,
                     .oom = r.oom,
                     .stats = r.stats,
                     .spec = spec});
      } else {
        violations.push_back("accepted job " + sr.request_ids[i] + " (" + job.tenant + ", " +
                             label + ") did not finish: " + r.status.to_string());
      }
    } else {
      if (d.outcome == serve::Decision::Outcome::kShed) {
        ++t.shed;
      } else {
        ++t.rejected;
      }
      if (job.tenant == std::string("t-steady")) {
        violations.push_back("in-quota tenant t-steady lost job " + sr.request_ids[i] + " (" +
                             label + "): " + d.status.to_string());
      }
    }
  }
  if (sr.stats.peak_queue_depth > static_cast<std::uint64_t>(cfg.max_queue_depth)) {
    violations.push_back("queue bound exceeded: peak depth " +
                         std::to_string(sr.stats.peak_queue_depth) + " > " +
                         std::to_string(cfg.max_queue_depth));
  }

  const serve::OverloadStats& os = sr.stats;
  std::printf("overload: submitted=%llu admitted=%llu shed_low=%llu shed_normal=%llu "
              "quota=%llu queue_full=%llu deadline=%llu memory=%llu transitions=%llu "
              "peak_depth=%llu peak_backlog=%.12g queue_wait=%.12g\n",
              static_cast<unsigned long long>(os.submitted),
              static_cast<unsigned long long>(os.admitted),
              static_cast<unsigned long long>(os.shed_low),
              static_cast<unsigned long long>(os.shed_normal),
              static_cast<unsigned long long>(os.rejected_quota),
              static_cast<unsigned long long>(os.rejected_queue_full),
              static_cast<unsigned long long>(os.rejected_deadline),
              static_cast<unsigned long long>(os.rejected_memory),
              static_cast<unsigned long long>(os.overload_transitions),
              static_cast<unsigned long long>(os.peak_queue_depth), os.peak_backlog_cycles,
              os.queue_wait_cycles);
  for (const auto& [tenant, t] : tallies) {
    std::printf("tenant %s: submitted=%zu admitted=%zu shed=%zu rejected=%zu\n", tenant.c_str(),
                t.submitted, t.admitted, t.shed, t.rejected);
  }
  const std::size_t total_shed = os.shed_low + os.shed_normal + os.shed_high;
  std::printf("shed-rate: %.1f%% (%zu/%d)\n",
              100.0 * static_cast<double>(total_shed) / static_cast<double>(jobs), total_shed,
              jobs);

  const obs::HistogramSnapshot qw =
      obs::TelemetryRegistry::instance().histogram_snapshot("serve.queue_wait_cycles");
  std::printf("queue-wait: n=%llu p50=%.12g p90=%.12g p99=%.12g max=%.12g sim-cycles\n",
              static_cast<unsigned long long>(qw.count), qw.p50, qw.p90, qw.p99, qw.max);
  print_slo_summary();

  if (int rc = flush_soak_artifacts(common, journal_out, prom_out); rc != 0) return rc;

  for (const std::string& v : violations) {
    std::fprintf(stderr, "soak --overload: contract violation: %s\n", v.c_str());
  }
  if (!violations.empty()) {
    std::printf("overload contract: VIOLATED (%zu violation%s)\n", violations.size(),
                violations.size() == 1 ? "" : "s");
    return 4;
  }
  std::printf("overload contract: held (steady tenant clean, %llu/%llu accepted ok, "
              "queue bounded)\n",
              static_cast<unsigned long long>(os.admitted),
              static_cast<unsigned long long>(os.submitted));
  return 0;
}

/// `gnnbridge_cli soak --chaos`: the DESIGN.md §17 recovery-contract
/// sweep. A fixed schedule of fault-plan cells covers every seam in
/// rt::kSeamTable: the degradation-ladder seams on the unsharded engine,
/// the three shard seams at K=4 (single-shot, multi-shot and persistent
/// arms), and the two out-of-engine seams (dataset_load, metrics_write)
/// through the process-wide injector. Every cell runs the same GCN/GAT
/// job set on a fresh engine in ExecMode::kFull and is held to the
/// documented contract: every job reaches an ok final state, shard-seam
/// and control cells reproduce the fault-free reference outputs bit for
/// bit, ladder cells stay numerically correct, retries and fallbacks
/// surface in RunStats and the journal, and the critical-path phase-sum
/// invariant holds across the whole journal. The schedule is fixed and
/// the engine deterministic, so stdout and every artifact are
/// byte-identical at any --threads value. Exits 5 on any violation.
int run_chaos(double scale, int breaker_threshold, const std::string& env_plan,
              CommonArgs& common, const std::string& journal_out, const std::string& prom_out,
              bool pin_meta, std::deque<SoakDataset>& sets, const sim::DeviceSpec& spec) {
  // The journal backs the fallback and phase-sum checks, so chaos mode
  // records it even without --journal; the file itself is still only
  // written when the flag asks for it.
  obs::EventJournal::instance().set_enabled(true);
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

  struct ChaosCell {
    const char* plan;      // per-job fault plan ("" = fault-free control)
    int shards;            // engine shard count for the cell
    int max_attempts;      // batch retry budget (shard_partition needs 2)
    bool bit_identical;    // outputs must match the reference byte for byte
    bool expect_retry;     // every job must report stats.shard_retries > 0
    bool expect_fallback;  // every job must journal one shard_fallback
  };
  // The ladder seams get their documented single-shot and multi-shot
  // arms; persistent ladder arms (las_cluster=*, sim_launch=*) are the
  // documented ladder-exhaustion failures, so they are deliberately
  // absent. The shard seams get single-shot, multi-shot and persistent
  // arms — persistent is the fallback-to-unsharded rung.
  const ChaosCell cells[] = {
      {"", 1, 1, true, false, false},
      {"", 4, 1, true, false, false},
      {"las_cluster=1", 1, 1, false, false, false},
      // The first shot (the LAS pass the tuner probes with) turns LAS off
      // for the job, so nothing in it reaches the second shot: one
      // attempt survives a multi-shot arm.
      {"las_cluster=2", 1, 1, false, false, false},
      {"tuner_probe=1", 1, 1, false, false, false},
      {"tuner_probe=3", 1, 1, false, false, false},
      {"fusion_pass=1", 1, 1, false, false, false},
      {"fusion_pass=*", 1, 1, false, false, false},
      {"sim_launch=1", 1, 1, false, false, false},
      {"sim_launch=2", 1, 1, false, false, false},
      {"shard_partition=1", 4, 2, true, false, false},
      {"shard_compute=1", 4, 1, true, true, false},
      {"shard_compute=2", 4, 1, true, true, false},
      {"shard_compute=*", 4, 1, true, false, true},
      {"shard_exchange=1", 4, 1, true, true, false},
      {"shard_exchange=*", 4, 1, true, false, true},
  };
  const std::size_t ncells = sizeof(cells) / sizeof(cells[0]);

  // Every cell replays the same GCN/GAT jobs (the two models the sharded
  // pipelines cover) across all soak datasets, in ExecMode::kFull so the
  // outputs are byte-comparable.
  auto make_jobs = [&](const char* plan, int max_attempts, const std::string& id_prefix) {
    std::vector<engine::OptimizedEngine::BatchJob> jobs;
    for (std::size_t d = 0; d < sets.size(); ++d) {
      for (int kind = 0; kind < 2; ++kind) {
        engine::OptimizedEngine::BatchJob& job = jobs.emplace_back();
        job.data = &sets[d].data;
        if (kind == 0) {
          job.gcn = &sets[d].gcn;
        } else {
          job.gat = &sets[d].gat;
        }
        job.mode = kernels::ExecMode::kFull;
        job.spec = spec;
        job.max_attempts = max_attempts;
        job.fault_plan = plan;
        job.request_id = id_prefix + "-job" + std::to_string(jobs.size() - 1);
      }
    }
    return jobs;
  };
  auto bytes_equal = [](const models::Matrix& a, const models::Matrix& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
  };

  std::printf("soak --chaos: %zu cell(s) x %zu job(s) @ scale %.3g, shard seams at K=4\n",
              ncells, sets.size() * 2, scale);

  // Fault-free reference outputs from an unsharded engine. The §16/§17
  // contracts promise the sharded control and every shard-seam recovery
  // reproduce these bit for bit; ladder cells must stay allclose.
  std::vector<models::Matrix> reference;
  {
    engine::EngineConfig ref_cfg;
    ref_cfg.auto_tune = true;
    ref_cfg.breaker.failure_threshold = breaker_threshold;
    ref_cfg.shards = 1;
    engine::OptimizedEngine ref_eng(ref_cfg);
    const auto jobs = make_jobs("", 1, "ref");
    const auto results = ref_eng.run_batch(jobs);
    for (std::size_t j = 0; j < results.size(); ++j) {
      if (!results[j].status.ok()) {
        std::fprintf(stderr, "soak --chaos: fault-free reference job %zu (%s/%s) failed: %s\n",
                     j, job_kind_name(jobs[j]), jobs[j].data->name.c_str(),
                     results[j].status.to_string().c_str());
        return 1;
      }
      reference.push_back(results[j].output);
    }
  }

  std::vector<std::string> violations;
  std::size_t jobs_run = 0;
  for (std::size_t c = 0; c < ncells; ++c) {
    const ChaosCell& cell = cells[c];
    const std::string cell_name = cell.plan[0] != '\0'
                                      ? std::string(cell.plan)
                                      : (cell.shards > 1 ? "control(K=4)" : "control");
    // Fresh engine per cell: no ladder, breaker or cache state crosses
    // cell boundaries, so each cell is its own failure-domain experiment.
    engine::EngineConfig ecfg;
    ecfg.auto_tune = true;
    ecfg.breaker.failure_threshold = breaker_threshold;
    ecfg.shards = cell.shards;
    engine::OptimizedEngine eng(ecfg);

    const auto jobs = make_jobs(cell.plan, cell.max_attempts, "c" + std::to_string(c));
    const std::size_t journal_before = obs::EventJournal::instance().size();
    const auto results = eng.run_batch(jobs);
    jobs_run += results.size();

    const std::size_t violations_before = violations.size();
    std::uint64_t cell_retries = 0;
    for (std::size_t j = 0; j < results.size(); ++j) {
      const baselines::RunResult& r = results[j];
      const std::string label = cell_name + " " + job_kind_name(jobs[j]) + "/" +
                                jobs[j].data->name;
      if (!r.status.ok()) {
        violations.push_back(label + ": job did not survive: " + r.status.to_string());
        continue;
      }
      if (cell.bit_identical) {
        if (!bytes_equal(r.output, reference[j])) {
          violations.push_back(label + ": output differs from the fault-free reference");
        }
      } else if (!tensor::allclose(r.output, reference[j], 2e-3f, 2e-4f)) {
        violations.push_back(label + ": degraded output is numerically wrong");
      }
      if (cell.expect_retry && r.stats.shard_retries == 0) {
        violations.push_back(label + ": expected shard retries, stats report none");
      }
      cell_retries += r.stats.shard_retries;
    }
    if (cell.expect_fallback) {
      const auto events = obs::EventJournal::instance().snapshot();
      std::size_t fallbacks = 0;
      for (std::size_t e = journal_before; e < events.size(); ++e) {
        if (events[e].type == "shard_fallback") ++fallbacks;
      }
      if (fallbacks != results.size()) {
        violations.push_back(cell_name + ": expected " + std::to_string(results.size()) +
                             " shard_fallback event(s), journal has " +
                             std::to_string(fallbacks));
      }
    }
    std::printf("chaos cell %2zu/%zu: %-18s shards=%d attempts=%d shard_retries=%llu: %s\n",
                c + 1, ncells, cell_name.c_str(), cell.shards, cell.max_attempts,
                static_cast<unsigned long long>(cell_retries),
                violations.size() == violations_before ? "ok" : "VIOLATED");
  }

  // The two seams outside the engine, exercised through the process-wide
  // injector exactly as the seam table documents them: dataset_load is
  // fail-stop with a structured error and a consumed shot; metrics_write
  // is absorbed by the sink's 3-attempt write retry.
  rt::FaultInjector& injector = rt::FaultInjector::instance();
  if (rt::Status ps = injector.set_plan("dataset_load=1"); !ps.ok()) {
    violations.push_back("dataset_load=1: plan rejected: " + ps.to_string());
  } else {
    const auto faulted = graph::try_make_dataset(graph::DatasetId::kArxiv, scale);
    const auto reload = graph::try_make_dataset(graph::DatasetId::kArxiv, scale);
    injector.clear();
    if (faulted.ok() || faulted.status().code() != rt::StatusCode::kFaultInjected) {
      violations.push_back("dataset_load=1: expected a structured kFaultInjected load error");
    }
    if (!reload.ok()) {
      violations.push_back("dataset_load=1: reload after the consumed shot failed: " +
                           reload.status().to_string());
    }
    std::printf("chaos seam dataset_load=1: structured load error, reload ok\n");
  }
  if (rt::Status ps = injector.set_plan("metrics_write=1"); !ps.ok()) {
    violations.push_back("metrics_write=1: plan rejected: " + ps.to_string());
  } else {
    // The pid keeps concurrent sweeps in one directory off each other's
    // probe file and its ".tmp" sibling.
    const std::string probe =
        "gnnbridge_chaos_probe_metrics." + std::to_string(::getpid()) + ".json";
    const rt::Status ws = sink.write_file(probe);
    injector.clear();
    std::remove(probe.c_str());
    if (!ws.ok()) {
      violations.push_back("metrics_write=1: write retry did not absorb the fault: " +
                           ws.to_string());
    }
    std::printf("chaos seam metrics_write=1: write retried through the injected fault\n");
  }

  // Whole-journal checks: every armed seam must have journalled its
  // fault_injected fire, and the §15 phase-sum invariant must survive
  // recovery (retried shards and fallback rounds are part of the attempt
  // cycles, never unaccounted time).
  {
    const std::vector<obs::JournalEvent> events = obs::EventJournal::instance().snapshot();
    std::size_t fires = 0;
    for (const obs::JournalEvent& ev : events) {
      if (ev.type == "fault_injected") ++fires;
    }
    if (fires == 0) {
      violations.push_back("journal recorded no fault_injected events across the sweep");
    }
    const prof::CriticalPathReport report = prof::analyze_critical_path(events);
    if (report.invariant_checked == 0) {
      violations.push_back("phase-sum check: journal produced no e2e events");
    } else if (report.invariant_violations > 0) {
      violations.push_back("phase-sum invariant violated for " +
                           std::to_string(report.invariant_violations) + " of " +
                           std::to_string(report.invariant_checked) + " request(s)");
    }
    std::printf("chaos journal: %zu event(s), %llu fault fire(s), phase sums checked for "
                "%llu request(s)\n",
                events.size(), static_cast<unsigned long long>(fires),
                static_cast<unsigned long long>(report.invariant_checked));
  }

  const obs::TelemetryRegistry& reg = obs::TelemetryRegistry::instance();
  const std::uint64_t shard_retries = reg.counter_value("recovery.shard_retries");
  const std::uint64_t shard_fallbacks = reg.counter_value("recovery.shard_fallbacks");
  std::printf("recovery: shard_retries=%llu shards_reexecuted=%llu fallback_unsharded=%llu "
              "wasted_cycles=%.12g\n",
              static_cast<unsigned long long>(shard_retries),
              static_cast<unsigned long long>(reg.counter_value("recovery.shards_reexecuted")),
              static_cast<unsigned long long>(shard_fallbacks),
              reg.histogram_snapshot("recovery.wasted_cycles").sum);
  if (shard_retries == 0 || shard_fallbacks == 0) {
    violations.push_back("recovery counters did not register the injected shard faults");
  }

  if (int rc = flush_soak_artifacts(common, journal_out, prom_out); rc != 0) return rc;

  for (const std::string& v : violations) {
    std::fprintf(stderr, "soak --chaos: contract violation: %s\n", v.c_str());
  }
  if (!violations.empty()) {
    std::printf("chaos contract: VIOLATED (%zu violation%s)\n", violations.size(),
                violations.size() == 1 ? "" : "s");
    return 5;
  }
  std::printf("chaos contract: held (%zu cell(s), %zu job(s), %zu/%zu seams exercised, "
              "shard recovery bit-identical)\n",
              ncells, jobs_run, rt::kKnownSeams.size(), rt::kKnownSeams.size());
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
  double scale = 0.05, deadline_ms = 0.0, offered_x = 4.0;
  double slo_ms = 0.0, slo_window_ms = 0.0, slo_target = 0.99;
  CommonArgs common;
  std::string journal_out, prom_out, flight_recorder_out;
  bool pin_meta = false, overload = false, chaos = false;
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
    } else if (arg == "--slo-ms") {
      slo_ms = parse_double_flag("--slo-ms", next());
    } else if (arg == "--slo-window-ms") {
      slo_window_ms = parse_double_flag("--slo-window-ms", next());
    } else if (arg == "--slo-target") {
      slo_target = parse_double_flag("--slo-target", next());
    } else if (arg == "--flight-recorder") {
      flight_recorder_out = next();
    } else if (arg == "--pin-meta") {
      pin_meta = true;
    } else if (arg == "--overload") {
      overload = true;
    } else if (arg == "--chaos") {
      chaos = true;
    } else if (arg == "--offered-x") {
      offered_x = parse_double_flag("--offered-x", next());
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
  if (!flight_recorder_out.empty()) obs::FlightRecorder::instance().arm(flight_recorder_out);
  if (!common.trace.empty()) prof::Tracer::instance().set_enabled(true);
  if (scale <= 0.0 || scale > 1.0) {
    std::fprintf(stderr, "--scale must be in (0, 1]\n");
    return 2;
  }
  if (deadline_ms < 0.0) {
    std::fprintf(stderr, "--deadline-ms must be >= 0\n");
    return 2;
  }
  if (slo_ms < 0.0 || slo_window_ms < 0.0) {
    std::fprintf(stderr, "--slo-ms / --slo-window-ms must be >= 0\n");
    return 2;
  }
  if (slo_target <= 0.0 || slo_target > 1.0) {
    std::fprintf(stderr, "--slo-target must be in (0, 1]\n");
    return 2;
  }
  if (overload && (offered_x <= 0.0 || offered_x > 1000.0)) {
    std::fprintf(stderr, "--offered-x must be in (0, 1000]\n");
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
  // Arm the SLO tracker before any serving traffic. A latency objective of
  // --slo-ms sim-milliseconds converts through the device clock, matching
  // the --deadline-ms convention above.
  if (slo_ms > 0.0 || slo_window_ms > 0.0) {
    obs::SloConfig slo_cfg;
    slo_cfg.latency_objective_cycles = slo_ms * spec.clock_ghz * 1e6;
    slo_cfg.window_cycles = slo_window_ms * spec.clock_ghz * 1e6;
    slo_cfg.success_objective = slo_target;
    obs::SloTracker::instance().configure(slo_cfg);
  }
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

  if (chaos && overload) {
    std::fprintf(stderr, "--chaos and --overload are mutually exclusive\n");
    return 2;
  }
  if (chaos) {
    return run_chaos(scale, breaker_threshold, plan, common, journal_out, prom_out, pin_meta,
                     sets, spec);
  }
  if (overload) {
    return run_overload(jobs, wave, scale, offered_x, deadline_ms, max_attempts,
                        breaker_threshold, plan, common, journal_out, prom_out, pin_meta, sets,
                        spec);
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
    // so `triage` can join journal events to gap_report runs.
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
  // telemetry registry the engine's fold filled (tools/soak_runner.py
  // parses this line).
  const obs::HistogramSnapshot lat = reg.histogram_snapshot("serve.job_cycles");
  std::printf("latency: n=%llu p50=%.12g p90=%.12g p99=%.12g max=%.12g sim-cycles\n",
              static_cast<unsigned long long>(lat.count), lat.p50, lat.p90, lat.p99, lat.max);
  print_slo_summary();

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
  } else if (argc > 1 && std::strcmp(argv[1], "triage") == 0) {
    return cmd_triage(argc, argv);
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
