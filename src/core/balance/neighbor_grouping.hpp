// Neighbor grouping (paper §4.1.2).
//
// Splits each center node's neighbor list into groups of at most
// `group_bound` neighbors; each group becomes one scheduling task (one
// thread block). Heavy hubs that would otherwise serialize a whole block
// spread across many blocks, and the per-wave working set shrinks — the
// synergy with locality-aware scheduling the paper calls out. Because the
// GNN reducers (sum/mean/max) are order-insensitive, split groups merge
// their partial results through atomics with no cross-SM data exchange.
//
// The grouping is an *online* O(N) pass over the CSR index (one row_ptr
// scan), cheap enough to redo whenever the graph or the tuned bound
// changes.
#pragma once

#include <span>
#include <vector>

#include "kernels/common.hpp"

namespace gnnbridge::core {

using graph::Csr;
using graph::EdgeId;
using graph::NodeId;
using kernels::Task;

/// The task list plus whether any row was split (callers must enable
/// atomic merging in the kernels when it was).
struct GroupedTasks {
  std::vector<Task> tasks;
  bool any_split = false;
};

/// Builds the neighbor-grouped task list. Rows are visited in `order`
/// (a LAS permutation) or natural order when `order` is empty; each row
/// contributes ceil(degree / group_bound) tasks, emitted contiguously.
/// `group_bound` <= 0 means "no grouping" (whole rows).
GroupedTasks neighbor_group_tasks(const Csr& g, EdgeId group_bound,
                                  std::span<const NodeId> order = {});

/// The untuned grouping bound: the average degree rounded up to a multiple
/// of 16, at least 16. The engine groups with it when it does not tune, and
/// the tuner holds it fixed while it searches the lane count.
EdgeId default_group_bound(const Csr& g);

/// Cap on the tuner's grouping-bound rounds (paper §4.4: never exceeded 20).
inline constexpr int kMaxBoundRounds = 20;

/// The tuner's candidate bounds for a graph: multiples of 16 up to
/// 10x the average degree (paper §4.4), never more than kMaxBoundRounds.
std::vector<EdgeId> candidate_group_bounds(const Csr& g);

}  // namespace gnnbridge::core
