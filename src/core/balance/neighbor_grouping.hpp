// Neighbor grouping's bound policy (paper §4.1.2, §4.4).
//
// Neighbor grouping splits each center node's neighbor list into groups of
// at most a bound's neighbors; each group becomes one scheduling task (one
// thread block). Heavy hubs that would otherwise serialize a whole block
// spread across many blocks, and the per-wave working set shrinks — the
// synergy with locality-aware scheduling the paper calls out. Because the
// GNN reducers (sum/max) are order-insensitive, split groups merge their
// partial results through atomics with no cross-SM data exchange.
//
// The split itself is kernels::neighbor_group_tasks, the one task-list
// builder every backend uses; this header holds how the engine and the
// tuner choose the bound.
#pragma once

#include <vector>

#include "graph/csr.hpp"

namespace gnnbridge::core {

using graph::Csr;
using graph::EdgeId;

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
