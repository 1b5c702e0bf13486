// ROC-style backend.
//
// ROC (Jia et al., MLSys 2020) targets multi-GPU/multi-node training via
// graph partitioning; its single-GPU graph operations are node-parallel
// like DGL's (the paper notes this in §3.1), with extra partition-staging
// data movement on top. We model it as: block-per-node aggregation with a
// wide fixed thread mapping (256 lanes — tuned for its large-partition
// batches, wasteful at small feature lengths), plus two partition-staging
// copy kernels per layer for halo features. GAT and GraphSAGE-LSTM are
// not implemented ("x" rows in Figure 7), matching the released system.
#pragma once

#include "baselines/backend.hpp"

namespace gnnbridge::baselines {

class RocBackend final : public Backend {
 public:
  std::string_view name() const override { return "ROC"; }
  bool supports(ModelKind kind) const override { return kind == ModelKind::kGcn; }

  RunResult run_gcn(const Dataset& data, const GcnRun& run, ExecMode mode,
                    const sim::DeviceSpec& spec) override;
};

}  // namespace gnnbridge::baselines
