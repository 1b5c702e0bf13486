#include "graph/coo.hpp"

#include "graph/bucket.hpp"

namespace gnnbridge::graph {

Coo canonicalize(const Coo& in, bool keep_self_loops) {
  return coo_from_csr(bucket_edges(in.num_nodes, {{in}},
                                   keep_self_loops ? RowRule::kSet : RowRule::kSetNoSelfLoops));
}

Coo symmetrize(const Coo& in) {
  return coo_from_csr(bucket_edges(in.num_nodes, {{in}, {in, /*by_src=*/true}},
                                   RowRule::kSetNoSelfLoops));
}

bool valid(const Coo& g) {
  if (g.src.size() != g.dst.size()) return false;
  for (EdgeId i = 0; i < g.num_edges(); ++i) {
    if (g.src[i] < 0 || g.src[i] >= g.num_nodes) return false;
    if (g.dst[i] < 0 || g.dst[i] >= g.num_nodes) return false;
  }
  return true;
}

}  // namespace gnnbridge::graph
