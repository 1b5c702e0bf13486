// Tuner integration: measuring graph-op configurations on the simulator.
//
// The online tuner (core/tuner) needs a cost estimate per candidate
// configuration. This helper runs one aggregation kernel on a *sampled*
// subset of tasks in trace-only mode — the paper's "less than half an
// epoch, asynchronously" overhead story — and reports its simulated
// cycles. The benchmark harness uses it for the tuned feature-length sweep
// (Figure 12).
#pragma once

#include "core/tuner/tuner.hpp"
#include "graph/datasets.hpp"
#include "sim/device.hpp"

namespace gnnbridge::engine {

/// Measured cost (simulated cycles) of one aggregation over `csr` with
/// feature length `feat_len` under `config`, evaluated on roughly
/// `sample_fraction` of the tasks.
double measure_aggregation(const graph::Csr& csr, tensor::Index feat_len,
                           const core::TuneConfig& config, const sim::DeviceSpec& spec,
                           double sample_fraction = 0.25,
                           const std::vector<graph::NodeId>* las_order = nullptr);

/// Runs the full tuner search for (graph, feature length). `las_order` is
/// the LAS order probes run with; null tunes without LAS (the search then
/// never toggles it on).
core::TuneResult tune_for(const graph::Csr& csr, tensor::Index feat_len,
                          const sim::DeviceSpec& spec,
                          const std::vector<graph::NodeId>* las_order = nullptr);

}  // namespace gnnbridge::engine
