// Backend interface.
//
// A backend is one framework's way of running a model's forward pass on
// the simulated GPU: the DGL-style node-parallel op-per-kernel pipeline,
// the PyG-style edge-parallel expansion pipeline, the ROC-style partitioned
// pipeline, or our optimized engine. All backends consume the same graphs,
// weights and input features, so outputs are directly comparable (the
// semantics-preservation contract) and so are the simulator's counters
// (the performance comparison of Figure 7).
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "graph/datasets.hpp"
#include "kernels/common.hpp"
#include "models/common.hpp"
#include "models/multihead_gat.hpp"
#include "models/pool_model.hpp"
#include "rt/status.hpp"
#include "sim/context.hpp"

namespace gnnbridge::baselines {

using graph::Dataset;
using kernels::ExecMode;
using models::GatConfig;
using models::GatParams;
using models::GcnConfig;
using models::GcnParams;
using models::Matrix;
using models::ModelKind;
using models::SageLstmConfig;
using models::SageLstmParams;

/// Outcome of one forward pass.
struct RunResult {
  /// All kernels launched, with counters (empty when OOM).
  sim::RunStats stats;
  /// Simulated wall time in milliseconds.
  double ms = 0.0;
  /// The run would exceed device memory at the original (paper-scale)
  /// dataset size — reported instead of a time, as in Figure 7.
  bool oom = false;
  /// Estimated device footprint at paper scale, bytes.
  std::uint64_t paper_bytes = 0;
  /// Model output in ExecMode::kFull (empty otherwise).
  Matrix output;
  /// Non-ok when the run could not complete even after the backend
  /// exhausted its degradation options (structured error model, DESIGN.md
  /// §10). `stats`/`ms`/`output` are meaningless when this is set.
  rt::Status status;
  /// Run attempts consumed (batch runs, DESIGN.md §12). 1 for the direct
  /// run_* entry points; OptimizedEngine::run_batch counts retries.
  int attempts = 1;
};

/// The result of a run that would not fit in device memory at paper scale.
inline RunResult oom_result(std::uint64_t paper_bytes) {
  RunResult r;
  r.oom = true;
  r.paper_bytes = paper_bytes;
  return r;
}

/// Shared per-run inputs: weights are created once by the harness so that
/// every backend runs the same parameters.
struct GcnRun {
  const GcnConfig* cfg = nullptr;
  const GcnParams* params = nullptr;
  const Matrix* features = nullptr;
};
struct GatRun {
  const GatConfig* cfg = nullptr;
  const GatParams* params = nullptr;
  const Matrix* features = nullptr;
};
struct SageLstmRun {
  const SageLstmConfig* cfg = nullptr;
  const SageLstmParams* params = nullptr;
  const Matrix* features = nullptr;
};
struct SagePoolRun {
  const models::SagePoolConfig* cfg = nullptr;
  const models::SagePoolParams* params = nullptr;
  const Matrix* features = nullptr;
};
struct MultiHeadGatRun {
  const models::MultiHeadGatConfig* cfg = nullptr;
  const models::MultiHeadGatParams* params = nullptr;
  const Matrix* features = nullptr;
};

/// Abstract framework backend. Each run_* defaults to a
/// kFailedPrecondition result naming the backend and the model; a backend
/// overrides the ones its supports() admits.
class Backend {
 public:
  virtual ~Backend() = default;

  virtual std::string_view name() const = 0;

  /// Whether the framework implements the model at all ("x" in Figure 7).
  virtual bool supports(ModelKind kind) const = 0;

  virtual RunResult run_gcn(const Dataset&, const GcnRun&, ExecMode, const sim::DeviceSpec&) {
    return unsupported(ModelKind::kGcn);
  }
  virtual RunResult run_gat(const Dataset&, const GatRun&, ExecMode, const sim::DeviceSpec&) {
    return unsupported(ModelKind::kGat);
  }
  virtual RunResult run_sage_lstm(const Dataset&, const SageLstmRun&, ExecMode,
                                  const sim::DeviceSpec&) {
    return unsupported(ModelKind::kSageLstm);
  }
  /// GraphSAGE-Pool (max aggregator) — an extension model.
  virtual RunResult run_sage_pool(const Dataset&, const SagePoolRun&, ExecMode,
                                  const sim::DeviceSpec&) {
    return unsupported(ModelKind::kSagePool);
  }
  /// Multi-head GAT — an extension model (one layer, K heads,
  /// concatenated outputs).
  virtual RunResult run_multihead_gat(const Dataset&, const MultiHeadGatRun&, ExecMode,
                                      const sim::DeviceSpec&) {
    return unsupported(ModelKind::kMultiHeadGat);
  }

 private:
  RunResult unsupported(ModelKind kind) const {
    RunResult r;
    r.status = rt::Status(rt::StatusCode::kFailedPrecondition,
                          std::string(name()) + " does not implement " +
                              std::string(models::model_name(kind)));
    return r;
  }
};

}  // namespace gnnbridge::baselines
