// The chaos sweep (DESIGN.md §17): one fixed schedule of fault-plan cells
// that covers every seam in rt::kSeamTable, run over the caller's GCN/GAT
// job sets and held to the recovery contract. The degradation-ladder seams
// run on the unsharded engine, the three shard seams at K=4 (single-shot,
// multi-shot and persistent arms), and the two seams outside the engine
// (dataset_load, metrics_write) through the process-wide injector.
//
// `gnnbridge_cli soak --chaos` prints the sweep's verdicts. The
// ShardRecovery tests run it in process at 1, 2, 3, 4 and 8 host threads
// and byte-compare the metrics document and the journal it leaves behind.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "obs/journal.hpp"
#include "rt/status.hpp"

namespace gnnbridge::engine {

/// One cell of the sweep: a per-job fault plan and what it must produce.
struct ChaosCell {
  const char* plan;      ///< per-job fault plan ("" = fault-free control)
  int shards;            ///< engine shard count for the cell
  int max_attempts;      ///< batch retry budget (shard_partition needs 2)
  bool bit_identical;    ///< outputs must match the reference byte for byte
  bool expect_retry;     ///< every job must report stats.recovery.shard_retries > 0
  bool expect_fallback;  ///< every job must journal one shard_fallback
};

/// The fixed cell schedule, in run order.
std::span<const ChaosCell> chaos_cells();

/// One dataset's runs. Every cell replays one GCN and one GAT job per set,
/// in ExecMode::kFull so the outputs are byte-comparable.
struct ChaosJobSet {
  const Dataset* data = nullptr;
  const GcnRun* gcn = nullptr;
  const GatRun* gat = nullptr;
};

/// The verdict of one chaos_cells() entry.
struct ChaosCellVerdict {
  std::string name;                 ///< the plan, or "control" / "control(K=4)"
  std::uint64_t shard_retries = 0;  ///< summed over the cell's jobs
  bool ok = true;                   ///< the cell added no violation
};

/// One probe of a seam outside the engine.
struct ChaosProbe {
  std::string plan;     ///< the injector plan it armed, e.g. "dataset_load=1"
  std::string summary;  ///< what the probe exercised
};

struct ChaosReport {
  std::vector<ChaosCellVerdict> cells;  ///< one per chaos_cells() entry, in order
  std::vector<ChaosProbe> probes;
  std::size_t jobs_run = 0;
  std::size_t journal_events = 0;  ///< events the sweep appended to the journal
  std::uint64_t fault_fires = 0;   ///< fault_injected events among them
  std::vector<std::string> violations;  ///< empty = the contract held
};

/// Runs every cell on a fresh auto-tuned engine, then the two
/// out-of-engine probes, and checks the contract: every job survives,
/// shard-seam and control cells reproduce the fault-free unsharded outputs
/// bit for bit, ladder cells stay allclose, the expected shard retries and
/// fallbacks show up in RunStats and the journal, and the recovery counters
/// register. Every batch of the sweep appends to `journal`, which the
/// fallback checks read. The schedule is fixed and the engine
/// deterministic, so the metrics sink, its registry and the journal end up
/// byte-identical at any host thread count. `scale` sizes the dataset_load
/// probe's graph. Errors only when the fault-free reference run fails.
rt::Result<ChaosReport> run_chaos_sweep(std::span<const ChaosJobSet> sets, double scale,
                                        const sim::DeviceSpec& spec, obs::EventJournal& journal);

}  // namespace gnnbridge::engine
