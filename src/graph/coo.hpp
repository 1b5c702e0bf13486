// Edge-list (COO) graph representation.
//
// PyG-style backends parallelize over edges and therefore consume graphs in
// COO form (Figure 2, upper half, of the paper). The COO struct is also the
// interchange format produced by all generators; CSR/CSC are built from it.
#pragma once

#include <cstdint>
#include <vector>

namespace gnnbridge::graph {

/// Node identifier. 32-bit: the largest synthetic dataset has ~120k nodes.
using NodeId = std::int32_t;
/// Edge identifier / edge-array offset. 64-bit: E*F products are large.
using EdgeId = std::int64_t;

/// A directed edge list. Edge i goes src[i] -> dst[i]. In GNN terms the
/// message flows from the source (neighbor) to the destination (center).
struct Coo {
  NodeId num_nodes = 0;
  std::vector<NodeId> src;
  std::vector<NodeId> dst;

  EdgeId num_edges() const { return static_cast<EdgeId>(src.size()); }

  /// Appends edge u -> v. Does not deduplicate.
  void add_edge(NodeId u, NodeId v) {
    src.push_back(u);
    dst.push_back(v);
  }
};

// canonicalize and symmetrize, like merge_edges and csr_from_coo, bucket
// the edges by a counting sort and sort each row on the pool
// (graph/bucket.hpp); the result depends only on the edge set, not on input
// order or thread count. An endpoint outside [0, num_nodes) throws
// std::out_of_range naming the edge; src and dst of different lengths throw
// std::invalid_argument.

/// Sorts edges by (dst, src) and removes duplicates and self-loops
/// (self-loops optionally kept). Returns the cleaned list.
Coo canonicalize(const Coo& in, bool keep_self_loops = false);

/// Adds the reverse of every edge (making the graph symmetric), then
/// canonicalizes. Most OGB graphs used by the paper are undirected.
Coo symmetrize(const Coo& in);

/// True if every endpoint is within [0, num_nodes).
bool valid(const Coo& g);

}  // namespace gnnbridge::graph
