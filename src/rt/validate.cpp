#include "rt/validate.hpp"

#include <cmath>
#include <cstdio>

namespace gnnbridge::rt {

namespace {

std::string format(const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

}  // namespace

Status validate_csr(const graph::Csr& g) {
  using graph::EdgeId;
  if (g.num_nodes < 0) {
    return Status(StatusCode::kFailedPrecondition,
                  format("negative node count %d", g.num_nodes));
  }
  const std::size_t n = static_cast<std::size_t>(g.num_nodes);
  if (g.row_ptr.size() != n + 1) {
    return Status(StatusCode::kFailedPrecondition,
                  format("row_ptr has %zu entries, want num_nodes+1 = %zu",
                         g.row_ptr.size(), n + 1));
  }
  if (g.row_ptr[0] != 0) {
    return Status(StatusCode::kFailedPrecondition,
                  format("row_ptr[0] = %lld, want 0",
                         static_cast<long long>(g.row_ptr[0])));
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (g.row_ptr[v + 1] < g.row_ptr[v]) {
      return Status(StatusCode::kFailedPrecondition,
                    format("row_ptr not monotone at node %zu: %lld > %lld", v,
                           static_cast<long long>(g.row_ptr[v]),
                           static_cast<long long>(g.row_ptr[v + 1])));
    }
  }
  if (g.row_ptr[n] != static_cast<EdgeId>(g.col_idx.size())) {
    return Status(StatusCode::kFailedPrecondition,
                  format("row_ptr[%zu] = %lld but col_idx holds %zu edges", n,
                         static_cast<long long>(g.row_ptr[n]), g.col_idx.size()));
  }
  for (std::size_t e = 0; e < g.col_idx.size(); ++e) {
    if (g.col_idx[e] < 0 || g.col_idx[e] >= g.num_nodes) {
      return Status(StatusCode::kFailedPrecondition,
                    format("col_idx[%zu] = %d out of [0, %d)", e, g.col_idx[e],
                           g.num_nodes));
    }
  }
  return OkStatus();
}

Status validate_matrix(const tensor::Matrix& m, std::string_view what) {
  const std::string name(what);
  if (m.rows() < 0 || m.cols() < 0) {
    return Status(StatusCode::kFailedPrecondition,
                  format("%s has negative shape [%lld x %lld]", name.c_str(),
                         static_cast<long long>(m.rows()),
                         static_cast<long long>(m.cols())));
  }
  const float* data = m.data();
  const std::size_t size = static_cast<std::size_t>(m.size());
  for (std::size_t i = 0; i < size; ++i) {
    if (!std::isfinite(data[i])) {
      return Status(
          StatusCode::kFailedPrecondition,
          format("%s has non-finite value at (%lld, %lld)", name.c_str(),
                 static_cast<long long>(static_cast<tensor::Index>(i) / m.cols()),
                 static_cast<long long>(static_cast<tensor::Index>(i) % m.cols())));
    }
  }
  return OkStatus();
}

}  // namespace gnnbridge::rt
