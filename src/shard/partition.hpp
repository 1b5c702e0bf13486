// Deterministic edge-cut graph partitioner (DESIGN.md §16).
//
// Splits a center-keyed CSR into K shards for partitioned execution: each
// shard owns a contiguous-by-construction set of center nodes (greedy
// weight-balanced seeding refined by seeded label-propagation sweeps) and
// carries a self-contained *local* CSR over its owned rows plus the ghost
// (remote-owned) sources those rows read. Between layers the engine
// exchanges ghost features shard-to-shard (the Dorylus scatter step); the
// ghost tables here are exactly the routing information that exchange
// needs.
//
// Determinism contract: the partition is a pure function of (adjacency,
// shard count) — byte-stable across runs, platforms and host thread
// counts. All tie-breaks are hashes under a fixed seed or lowest-id rules;
// nothing depends on iteration order of unordered containers.
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "rt/status.hpp"

namespace gnnbridge::shard {

using graph::Csr;
using graph::EdgeId;
using graph::NodeId;

/// One shard: the owned center rows plus the ghost sources they read.
///
/// Local id space: owned nodes map to local rows [0, num_owned()) in
/// ascending global-id order; ghosts follow as rows [num_owned(),
/// local.num_nodes) in ascending global-id order. `local` keeps every
/// owned row's neighbor list in the *same order* as the global CSR (only
/// the column ids are remapped), which is what makes per-row float
/// accumulation — and therefore sharded outputs — bit-identical to the
/// unsharded engine. Ghost rows are empty: ghosts are read, never
/// aggregated here.
struct Shard {
  std::vector<NodeId> owned;   ///< global ids, ascending
  std::vector<NodeId> ghosts;  ///< global ids, ascending; disjoint from owned
  Csr local;                   ///< num_owned()+ghosts rows; ghost rows empty
  /// Maps each local edge to its global edge id (for gathering per-edge
  /// values such as the GCN normalization).
  std::vector<EdgeId> edge_origin;
  /// Exchange routing, parallel to `ghosts`: the shard that owns each
  /// ghost and its local row index there (always < owner's num_owned()).
  std::vector<int> ghost_owner;
  std::vector<NodeId> ghost_owner_row;

  NodeId num_owned() const { return static_cast<NodeId>(owned.size()); }
  NodeId num_local() const { return local.num_nodes; }
};

/// A complete K-way edge-cut partition.
struct Partition {
  int k = 1;                 ///< effective shard count (after clamping)
  std::vector<int> assign;   ///< global node -> owning shard
  std::vector<Shard> shards; ///< size k; every shard non-empty when N > 0
  EdgeId cut_edges = 0;      ///< edges whose source is owned elsewhere
  NodeId total_ghosts = 0;   ///< sum of per-shard ghost-table sizes
};

/// Partitions `g` into `shards` edge-cut shards. Validates the CSR once,
/// at entry (rt::validate_csr), so a corrupt graph surfaces as a
/// structured error instead of an out-of-range read; the rows are then
/// read unchecked. The shard count K is clamped to [1, max(1,
/// num_nodes)]: K > num_nodes degrades to one node per shard; K <= 1
/// yields the identity partition (one shard whose local CSR equals `g`).
rt::Result<Partition> partition_graph(const Csr& g, int shards);

}  // namespace gnnbridge::shard
