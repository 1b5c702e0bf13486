#include "kernels/common.hpp"

#include <algorithm>
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

std::vector<Task> natural_tasks(const Csr& csr) {
  std::vector<Task> tasks;
  tasks.reserve(static_cast<std::size_t>(csr.num_nodes));
  for (NodeId v = 0; v < csr.num_nodes; ++v) {
    tasks.push_back({v, csr.row_ptr[v], csr.row_ptr[static_cast<std::size_t>(v) + 1]});
  }
  return tasks;
}

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
