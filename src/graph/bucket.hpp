// The one edge-bucketing primitive every graph build goes through.
//
// canonicalize, symmetrize, merge_edges and csr_from_coo all reduce to:
// count the edges per key node, scatter them stably into their rows, then
// sort (and, for an edge set, deduplicate) each row on the pool in fixed row
// chunks. The result is a function of the edge multiset alone —
// never of the input order, the chunking or the thread count (DESIGN.md §2).
#pragma once

#include <cstddef>
#include <initializer_list>

#include "graph/csr.hpp"

namespace gnnbridge::graph {

/// One edge list fed to bucket_edges. Edge i goes edges.src[i] ->
/// edges.dst[i] and lands in row dst[i] with value src[i]; with `by_src`
/// it lands in row src[i] with value dst[i] (symmetrize's reversed copy).
struct EdgeRun {
  const Coo& edges;
  bool by_src = false;
};

/// What a row keeps once sorted.
enum class RowRule {
  kMultiset,        ///< every edge, duplicates and self-loops included
  kSet,             ///< each value once
  kSetNoSelfLoops,  ///< each value once, value == row dropped
};

/// Buckets the edges of every run into `num_nodes` rows and sorts each row
/// ascending under `rule`. Rows are sorted in chunks of kBucketRowGrain rows
/// through par::parallel_chunks; a row that arrives sorted is not re-sorted.
/// Throws std::invalid_argument for a negative node count or a run whose
/// src and dst lengths differ, and std::out_of_range naming the edge (its
/// index in its run and its endpoints) when an endpoint is outside
/// [0, num_nodes); each edge is checked before its key indexes anything.
Csr bucket_edges(NodeId num_nodes, std::initializer_list<EdgeRun> runs, RowRule rule);

/// Rows per pool task in bucket_edges. Fixed: the chunks depend only on
/// the node count.
inline constexpr std::size_t kBucketRowGrain = 512;

}  // namespace gnnbridge::graph
