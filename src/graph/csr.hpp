// Compressed Sparse Row graph representation.
//
// DGL-style backends and all of our optimized kernels consume graphs in CSR
// keyed by destination (center) node: row v lists the sources u with an edge
// u -> v, i.e. the in-neighbors whose features v aggregates (Figure 2, lower
// half, of the paper). `Csr` is immutable after construction.
#pragma once

#include <cassert>
#include <span>
#include <vector>

#include "graph/coo.hpp"

namespace gnnbridge::graph {

/// CSR adjacency, rows keyed by center (destination) node.
struct Csr {
  NodeId num_nodes = 0;
  /// row_ptr has num_nodes + 1 entries; neighbors of v are
  /// col_idx[row_ptr[v] .. row_ptr[v+1]).
  std::vector<EdgeId> row_ptr;
  std::vector<NodeId> col_idx;

  EdgeId num_edges() const { return static_cast<EdgeId>(col_idx.size()); }

  /// In-degree of center node v.
  EdgeId degree(NodeId v) const {
    assert(v >= 0 && v < num_nodes);
    return row_ptr[static_cast<std::size_t>(v) + 1] - row_ptr[v];
  }

  /// The neighbor (source) ids aggregated by center node v.
  std::span<const NodeId> neighbors(NodeId v) const {
    assert(v >= 0 && v < num_nodes);
    return {col_idx.data() + row_ptr[v], static_cast<std::size_t>(degree(v))};
  }
};

/// Builds center-keyed CSR from an edge list: edge u->v lands in row v.
/// Rows are sorted; duplicates and self-loops are kept. Throws
/// std::out_of_range naming the edge when an endpoint is outside
/// [0, num_nodes), before the endpoint indexes anything.
Csr csr_from_coo(const Coo& coo);

/// Converts back to a (dst,src)-sorted edge list. Takes `csr` by value so
/// a caller done with it can move its col_idx in as the sources.
Coo coo_from_csr(Csr csr);

/// Structural invariant check: monotone row_ptr, in-range columns,
/// row_ptr[0] == 0 and row_ptr[N] == E.
bool valid(const Csr& g);

}  // namespace gnnbridge::graph
