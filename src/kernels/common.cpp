#include "kernels/common.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace gnnbridge::kernels {

FeatureMat device_mat(sim::SimContext& ctx, Matrix& m, const char* name) {
  FeatureMat fm;
  fm.host = &m;
  fm.rows = m.rows();
  fm.cols = m.cols();
  fm.buf = ctx.mem().alloc(name, static_cast<std::uint64_t>(m.size()) * 4);
  return fm;
}

FeatureMat device_mat_shape(sim::SimContext& ctx, Index rows, Index cols, const char* name) {
  FeatureMat fm;
  fm.host = nullptr;
  fm.rows = rows;
  fm.cols = cols;
  fm.buf = ctx.mem().alloc(name, static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols) * 4);
  return fm;
}

GraphOnDevice device_graph(sim::SimContext& ctx, const Csr& csr, const char* name) {
  GraphOnDevice g;
  g.csr = &csr;
  g.row_ptr = ctx.mem().alloc(std::string(name) + ".row_ptr",
                              (static_cast<std::uint64_t>(csr.num_nodes) + 1) * 8);
  g.col_idx = ctx.mem().alloc(std::string(name) + ".col_idx",
                              static_cast<std::uint64_t>(csr.num_edges()) * 4);
  return g;
}

GroupedTasks neighbor_group_tasks(const Csr& g, EdgeId group_bound,
                                  std::span<const NodeId> order) {
  GroupedTasks out;
  const bool grouped = group_bound > 0;
  out.tasks.reserve(static_cast<std::size_t>(g.num_nodes));

  auto emit_row = [&](NodeId v) {
    const EdgeId begin = g.row_ptr[static_cast<std::size_t>(v)];
    const EdgeId end = g.row_ptr[static_cast<std::size_t>(v) + 1];
    if (!grouped || end - begin <= group_bound) {
      out.tasks.push_back({v, begin, end});
      return;
    }
    out.any_split = true;
    for (EdgeId b = begin; b < end; b += group_bound) {
      out.tasks.push_back({v, b, std::min(b + group_bound, end)});
    }
  };

  if (order.empty()) {
    for (NodeId v = 0; v < g.num_nodes; ++v) emit_row(v);
  } else {
    assert(static_cast<NodeId>(order.size()) == g.num_nodes);
    for (NodeId v : order) emit_row(v);
  }
  return out;
}

std::vector<Task> natural_tasks(const Csr& csr) { return neighbor_group_tasks(csr, 0).tasks; }

std::size_t block_grain(std::size_t blocks) {
  constexpr std::size_t kMaxChunks = 64, kMinGrain = 8;
  return std::max(kMinGrain, (blocks + kMaxChunks - 1) / kMaxChunks);
}

double pad_factor(Index feat_len, int lanes) {
  if (feat_len <= 0 || lanes <= 0) return 1.0;
  const double useful = static_cast<double>(feat_len);
  const double issued = static_cast<double>((feat_len + lanes - 1) / lanes) * lanes;
  return issued / useful;
}

}  // namespace gnnbridge::kernels
