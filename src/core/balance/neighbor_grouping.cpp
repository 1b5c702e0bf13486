#include "core/balance/neighbor_grouping.hpp"

#include <algorithm>
#include <cassert>

namespace gnnbridge::core {

GroupedTasks neighbor_group_tasks(const Csr& g, EdgeId group_bound,
                                  std::span<const NodeId> order) {
  GroupedTasks out;
  const bool grouped = group_bound > 0;
  out.tasks.reserve(static_cast<std::size_t>(g.num_nodes));

  auto emit_row = [&](NodeId v) {
    const EdgeId begin = g.row_ptr[static_cast<std::size_t>(v)];
    const EdgeId end = g.row_ptr[static_cast<std::size_t>(v) + 1];
    if (!grouped || end - begin <= group_bound) {
      out.tasks.push_back({v, begin, end});
      return;
    }
    out.any_split = true;
    for (EdgeId b = begin; b < end; b += group_bound) {
      out.tasks.push_back({v, b, std::min(b + group_bound, end)});
    }
  };

  if (order.empty()) {
    for (NodeId v = 0; v < g.num_nodes; ++v) emit_row(v);
  } else {
    assert(static_cast<NodeId>(order.size()) == g.num_nodes);
    for (NodeId v : order) emit_row(v);
  }
  return out;
}

EdgeId default_group_bound(const Csr& g) {
  const double avg = g.num_nodes > 0
                         ? static_cast<double>(g.num_edges()) / static_cast<double>(g.num_nodes)
                         : 0.0;
  return std::max<EdgeId>(16, (static_cast<EdgeId>(avg) + 15) / 16 * 16);
}

std::vector<EdgeId> candidate_group_bounds(const Csr& g) {
  std::vector<EdgeId> out;
  if (g.num_nodes == 0) return out;
  const double avg = static_cast<double>(g.num_edges()) / static_cast<double>(g.num_nodes);
  const EdgeId cap = std::max<EdgeId>(16, static_cast<EdgeId>(avg * 10.0) / 16 * 16);
  // Multiples of 16 spaced so the whole (16 .. 10*avg_degree] range fits in
  // at most kMaxBoundRounds rounds.
  const EdgeId steps = std::max<EdgeId>(1, cap / 16);
  const EdgeId stride = std::max<EdgeId>(1, (steps + kMaxBoundRounds - 1) / kMaxBoundRounds);
  for (EdgeId s = stride; s <= steps; s += stride) out.push_back(s * 16);
  return out;
}

}  // namespace gnnbridge::core
