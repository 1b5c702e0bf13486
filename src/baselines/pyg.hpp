// PyG-style backend.
//
// Edge-parallel execution over a COO edge list (Figure 2, upper half):
// aggregations materialize an [E, F] source-feature matrix with an
// index-select kernel and scatter-reduce it into the output. Edge-chunked
// blocks make the load naturally balanced (the paper's Observation 2
// notes PyG is "less subject to load imbalance"), but every aggregation
// pays E*F loads and an E*F footprint — the expansion costs of
// Observations 1 and 4, and the source of PyG's OOM cells in Figure 7.
// GraphSAGE-LSTM is not implemented ("x" in Figure 7c), as in PyG 1.5.
#pragma once

#include "baselines/backend.hpp"

namespace gnnbridge::baselines {

class PygBackend final : public Backend {
 public:
  std::string_view name() const override { return "PyG"; }
  bool supports(ModelKind kind) const override {
    return kind == ModelKind::kGcn || kind == ModelKind::kGat;
  }

  RunResult run_gcn(const Dataset& data, const GcnRun& run, ExecMode mode,
                    const sim::DeviceSpec& spec) override;
  RunResult run_gat(const Dataset& data, const GatRun& run, ExecMode mode,
                    const sim::DeviceSpec& spec) override;
};

}  // namespace gnnbridge::baselines
