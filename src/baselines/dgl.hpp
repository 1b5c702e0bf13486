// DGL-style backend.
//
// Node-parallel (center-neighbor) graph operations in CSR form, one task
// per center node in natural order, one kernel per computation-graph op
// (Listing 1 of the paper), and the cuSPARSE fallback for sum-reduce
// aggregations. This backend embodies the five gaps of Section 3:
// graph-determined task order (Obs 1), whole-row tasks (Obs 2), op-per-
// kernel execution with [E] round trips (Obs 3), expansion-based
// center-neighbor neural ops (Obs 4), and a fixed 32-lane thread mapping
// regardless of feature length (Obs 5).
#pragma once

#include "baselines/backend.hpp"

namespace gnnbridge::baselines {

class DglBackend final : public Backend {
 public:
  std::string_view name() const override { return "DGL"; }
  bool supports(ModelKind) const override { return true; }

  RunResult run_gcn(const Dataset& data, const GcnRun& run, ExecMode mode,
                    const sim::DeviceSpec& spec) override;
  RunResult run_gat(const Dataset& data, const GatRun& run, ExecMode mode,
                    const sim::DeviceSpec& spec) override;
  RunResult run_sage_lstm(const Dataset& data, const SageLstmRun& run, ExecMode mode,
                          const sim::DeviceSpec& spec) override;
  RunResult run_sage_pool(const Dataset& data, const SagePoolRun& run, ExecMode mode,
                          const sim::DeviceSpec& spec) override;
  RunResult run_multihead_gat(const Dataset& data, const MultiHeadGatRun& run, ExecMode mode,
                              const sim::DeviceSpec& spec) override;
};

}  // namespace gnnbridge::baselines
