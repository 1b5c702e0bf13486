// Shared test fixtures and builders.
#pragma once

#include <cstring>
#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "kernels/common.hpp"
#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"

namespace gnnbridge::testing {

using graph::Coo;
using graph::Csr;
using graph::EdgeId;
using graph::NodeId;
using tensor::Index;
using tensor::Matrix;
using tensor::Rng;

/// Builds a CSR directly from an explicit (dst <- src) edge list.
inline Csr csr_from_edges(NodeId n, std::vector<std::pair<NodeId, NodeId>> dst_src) {
  Coo coo;
  coo.num_nodes = n;
  for (auto [d, s] : dst_src) coo.add_edge(s, d);
  return graph::csr_from_coo(graph::canonicalize(coo));
}

/// The CSR of `coo` with every edge reversed: row u lists the v of each
/// edge u -> v. A graph is symmetric when this equals csr_from_coo(coo).
inline Csr transposed_csr(const Coo& coo) {
  Coo rev;
  rev.num_nodes = coo.num_nodes;
  rev.src = coo.dst;
  rev.dst = coo.src;
  return graph::csr_from_coo(rev);
}

/// A directed path 0 <- 1 <- 2 <- ... (node v aggregates node v+1).
inline Csr path_graph(NodeId n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  return csr_from_edges(n, std::move(edges));
}

/// A star: node 0 aggregates every other node.
inline Csr star_graph(NodeId n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 1; v < n; ++v) edges.push_back({0, v});
  return csr_from_edges(n, std::move(edges));
}

/// Random symmetric graph (may include isolated nodes for small avg_deg).
inline Csr random_graph(NodeId n, double avg_degree, std::uint64_t seed) {
  Rng rng(seed);
  return graph::csr_from_coo(graph::erdos_renyi(n, avg_degree, rng));
}

/// Random matrix filled from `seed`.
inline Matrix random_matrix(Index rows, Index cols, std::uint64_t seed, float lo = -1.0f,
                            float hi = 1.0f) {
  Rng rng(seed);
  Matrix m(rows, cols);
  tensor::fill_uniform(m, rng, lo, hi);
  return m;
}

/// True when `a` and `b` have the same shape and the same bytes. Unlike
/// Matrix::operator==, it tells -0.0f from +0.0f.
inline bool same_bytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.size()) * sizeof(float)) == 0);
}

}  // namespace gnnbridge::testing
