#include "engine/chaos.hpp"

#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "graph/datasets.hpp"
#include "obs/registry.hpp"
#include "prof/metrics_json.hpp"
#include "rt/fault.hpp"
#include "tensor/matrix.hpp"

namespace gnnbridge::engine {

namespace {

// The ladder seams get their documented single-shot and multi-shot arms;
// persistent ladder arms (las_cluster=*, sim_launch=*) are the documented
// ladder-exhaustion failures, so they are deliberately absent. The shard
// seams get single-shot, multi-shot and persistent arms — persistent is
// the fallback-to-unsharded rung.
constexpr ChaosCell kCells[] = {
    {"", 1, 1, true, false, false},
    {"", 4, 1, true, false, false},
    {"las_cluster=1", 1, 1, false, false, false},
    // The first shot (the LAS pass the tuner probes with) turns LAS off
    // for the job, so nothing in it reaches the second shot: one attempt
    // survives a multi-shot arm.
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
    {"shard_compute=*", 4, 1, true, true, true},
    {"shard_exchange=1", 4, 1, true, true, false},
    {"shard_exchange=*", 4, 1, true, true, true},
};

bool bytes_equal(const models::Matrix& a, const models::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.size()) * sizeof(float)) ==
             0;
}

}  // namespace

std::span<const ChaosCell> chaos_cells() { return kCells; }

rt::Result<ChaosReport> run_chaos_sweep(std::span<const ChaosJobSet> sets, double scale,
                                        const sim::DeviceSpec& spec, obs::EventJournal& journal) {
  const std::size_t journal_start = journal.size();
  // The GCN and GAT job of every set (the two models the sharded pipelines
  // cover), with request IDs that name the cell.
  const auto make_jobs = [&](const char* plan, int max_attempts, const std::string& id_prefix) {
    std::vector<OptimizedEngine::BatchJob> jobs;
    for (const ChaosJobSet& set : sets) {
      for (int kind = 0; kind < 2; ++kind) {
        OptimizedEngine::BatchJob& job = jobs.emplace_back();
        job.data = set.data;
        if (kind == 0) {
          job.gcn = set.gcn;
        } else {
          job.gat = set.gat;
        }
        job.mode = ExecMode::kFull;
        job.spec = spec;
        job.max_attempts = max_attempts;
        job.fault_plan = plan;
        job.request_id = id_prefix + "-job" + std::to_string(jobs.size() - 1);
      }
    }
    return jobs;
  };
  const auto job_label = [](const OptimizedEngine::BatchJob& job) {
    return std::string(job.gcn ? "gcn/" : "gat/") + job.data->name;
  };
  const auto engine_cfg = [&](int shards) {
    EngineConfig cfg;
    cfg.auto_tune = true;
    cfg.shards = shards;
    return cfg;
  };

  // Fault-free reference outputs from an unsharded engine. The §16/§17
  // contracts promise the sharded control and every shard-seam recovery
  // reproduce these bit for bit; ladder cells must stay allclose.
  std::vector<models::Matrix> reference;
  {
    OptimizedEngine ref_eng(engine_cfg(1));
    const auto jobs = make_jobs("", 1, "ref");
    const auto results = ref_eng.run_batch(jobs, &journal);
    for (std::size_t j = 0; j < results.size(); ++j) {
      if (!results[j].status.ok()) {
        return rt::Status(results[j].status.code(),
                          "fault-free reference job " + std::to_string(j) + " (" +
                              job_label(jobs[j]) + ") failed: " + results[j].status.to_string());
      }
      reference.push_back(results[j].output);
    }
  }

  ChaosReport report;
  std::vector<std::string>& violations = report.violations;
  for (std::size_t c = 0; c < std::size(kCells); ++c) {
    const ChaosCell& cell = kCells[c];
    ChaosCellVerdict& verdict = report.cells.emplace_back();
    verdict.name = cell.plan[0] != '\0' ? std::string(cell.plan)
                                        : (cell.shards > 1 ? "control(K=4)" : "control");
    // Fresh engine per cell: no ladder or cache state crosses cell
    // boundaries, so each cell is its own failure-domain experiment.
    OptimizedEngine eng(engine_cfg(cell.shards));
    const auto jobs = make_jobs(cell.plan, cell.max_attempts, "c" + std::to_string(c));
    const std::size_t journal_before = journal.size();
    const auto results = eng.run_batch(jobs, &journal);
    report.jobs_run += results.size();

    const std::size_t violations_before = violations.size();
    for (std::size_t j = 0; j < results.size(); ++j) {
      const RunResult& r = results[j];
      const std::string label = verdict.name + " " + job_label(jobs[j]);
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
      if (cell.expect_retry && r.stats.recovery.shard_retries == 0) {
        violations.push_back(label + ": expected shard retries, stats report none");
      }
      verdict.shard_retries += r.stats.recovery.shard_retries;
    }
    if (cell.expect_fallback) {
      const auto events = journal.snapshot();
      std::size_t fallbacks = 0;
      for (std::size_t e = journal_before; e < events.size(); ++e) {
        if (events[e].type == "shard_fallback") ++fallbacks;
      }
      if (fallbacks != results.size()) {
        violations.push_back(verdict.name + ": expected " + std::to_string(results.size()) +
                             " shard_fallback event(s), journal has " + std::to_string(fallbacks));
      }
    }
    verdict.ok = violations.size() == violations_before;
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
    report.probes.push_back({"dataset_load=1", "structured load error, reload ok"});
  }
  if (rt::Status ps = injector.set_plan("metrics_write=1"); !ps.ok()) {
    violations.push_back("metrics_write=1: plan rejected: " + ps.to_string());
  } else {
    // The pid keeps concurrent sweeps in one directory off each other's
    // probe file and its ".tmp" sibling.
    const std::string probe =
        "gnnbridge_chaos_probe_metrics." + std::to_string(::getpid()) + ".json";
    const rt::Status ws = prof::MetricsSink::instance().write_file(probe);
    injector.clear();
    std::remove(probe.c_str());
    if (!ws.ok()) {
      violations.push_back("metrics_write=1: write retry did not absorb the fault: " +
                           ws.to_string());
    }
    report.probes.push_back({"metrics_write=1", "write retried through the injected fault"});
  }

  // Every armed seam journals its fault_injected fire, and the shard
  // faults must have reached the recovery counters.
  const std::vector<obs::JournalEvent> events = journal.snapshot();
  report.journal_events = events.size() - journal_start;
  for (std::size_t e = journal_start; e < events.size(); ++e) {
    if (events[e].type == "fault_injected") ++report.fault_fires;
  }
  if (report.fault_fires == 0) {
    violations.push_back("journal recorded no fault_injected events across the sweep");
  }
  const obs::TelemetryRegistry& reg = prof::MetricsSink::instance().telemetry();
  if (reg.counter_value("recovery.shard_retries") == 0 ||
      reg.counter_value("recovery.shard_fallbacks") == 0) {
    violations.push_back("recovery counters did not register the injected shard faults");
  }
  return report;
}

}  // namespace gnnbridge::engine
