#include "engine/tune_helper.hpp"

#include <cassert>

#include "kernels/spmm.hpp"
#include "prof/span.hpp"

namespace gnnbridge::engine {

namespace k = gnnbridge::kernels;

double measure_aggregation(const graph::Csr& csr, tensor::Index feat_len,
                           const core::TuneConfig& config, const sim::DeviceSpec& spec,
                           double sample_fraction, const std::vector<graph::NodeId>* las_order) {
  assert(!config.use_las || las_order);
  prof::Span span("tune_probe", "engine");
  span.arg("lanes", config.lanes);
  span.arg("group_bound", static_cast<double>(config.group_bound));
  sim::SimContext ctx(spec);
  const auto gdev = k::device_graph(ctx, csr, "csr");
  auto src = k::device_mat_shape(ctx, csr.num_nodes, feat_len, "feat");
  auto out = k::device_mat_shape(ctx, csr.num_nodes, feat_len, "out");

  k::GroupedTasks grouped = k::neighbor_group_tasks(
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
