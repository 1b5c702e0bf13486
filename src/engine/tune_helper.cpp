#include "engine/tune_helper.hpp"

#include "core/locality/schedule.hpp"
#include "kernels/spmm.hpp"
#include "prof/span.hpp"
#include "rt/fault.hpp"

namespace gnnbridge::engine {

namespace k = gnnbridge::kernels;

double measure_aggregation(const graph::Csr& csr, tensor::Index feat_len,
                           const core::TuneConfig& config, const sim::DeviceSpec& spec,
                           double sample_fraction, const std::vector<graph::NodeId>* las_order) {
  // Fault seam: a failed measurement surfaces as a stage failure the
  // engine's degradation ladder answers by falling back to the heuristic
  // configuration. (A *silently* broken probe — NaN cycles — is caught
  // separately by the tuner's probe validation.)
  rt::raise_if_armed(rt::kSeamTunerProbe, "measure_aggregation");
  prof::Span span("tune_probe", "engine");
  span.arg("lanes", config.lanes);
  span.arg("group_bound", static_cast<double>(config.group_bound));
  sim::SimContext ctx(spec);
  const auto gdev = k::device_graph(ctx, csr, "csr");
  auto src = k::device_mat_shape(ctx, csr.num_nodes, feat_len, "feat");
  auto out = k::device_mat_shape(ctx, csr.num_nodes, feat_len, "out");

  // LAS order is an offline artifact; during tuning we reuse a precomputed
  // one if provided (the tuner should never pay for computing it).
  std::vector<graph::NodeId> order;
  if (config.use_las && !las_order) {
    order = core::locality_aware_schedule(csr).order;
    las_order = &order;
  }
  core::GroupedTasks grouped = core::neighbor_group_tasks(
      csr, config.group_bound,
      config.use_las ? std::span<const graph::NodeId>(*las_order)
                     : std::span<const graph::NodeId>());

  // Sampled prefix of tasks (a contiguous prefix keeps wave co-residency
  // realistic).
  const std::size_t count = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(grouped.tasks.size()) * sample_fraction));
  const std::span<const k::Task> sample(grouped.tasks.data(),
                                        std::min(count, grouped.tasks.size()));

  k::SpmmArgs args{.graph = &gdev,
                   .tasks = sample,
                   .src = &src,
                   .edge_weight = nullptr,
                   .out = &out,
                   .lanes = config.lanes,
                   .atomic_merge = grouped.any_split,
                   .mode = k::ExecMode::kSimulateOnly,
                   .name = "tune_probe"};
  const sim::KernelStats& ks = k::spmm_node(ctx, args);
  return ks.cycles;
}

core::TuneResult tune_for(const graph::Csr& csr, tensor::Index feat_len,
                          const sim::DeviceSpec& spec, const std::vector<graph::NodeId>* las_order) {
  // Without an order the search never probes (so never computes) LAS.
  core::TuneConfig base;
  base.use_las = las_order != nullptr;
  return core::tune_graph_op(
      csr,
      [&](const core::TuneConfig& cfg) {
        return measure_aggregation(csr, feat_len, cfg, spec, 0.25, las_order);
      },
      base);
}

}  // namespace gnnbridge::engine
