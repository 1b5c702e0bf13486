#include "core/balance/neighbor_grouping.hpp"

#include <algorithm>

namespace gnnbridge::core {

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
