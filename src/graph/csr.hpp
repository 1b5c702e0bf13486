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
Csr csr_from_coo(const Coo& coo);

/// Builds source-keyed CSR (i.e. CSC of the center-keyed form): row u lists
/// destinations v of edges u->v. Used by push-style traversals.
Csr csc_from_coo(const Coo& coo);

/// Converts back to a (dst,src)-sorted edge list.
Coo coo_from_csr(const Csr& csr);

/// Structural invariant check: monotone row_ptr, in-range columns,
/// row_ptr[0] == 0 and row_ptr[N] == E.
bool valid(const Csr& g);

}  // namespace gnnbridge::graph
