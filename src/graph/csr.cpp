#include "graph/csr.hpp"

#include <algorithm>
#include <utility>

#include "graph/bucket.hpp"
#include "par/thread_pool.hpp"
#include "rt/validate.hpp"

namespace gnnbridge::graph {

Csr csr_from_coo(const Coo& coo) {
  return bucket_edges(coo.num_nodes, {{coo}}, RowRule::kMultiset);
}

Coo coo_from_csr(Csr csr) {
  Coo out;
  out.num_nodes = csr.num_nodes;
  out.dst.resize(csr.col_idx.size());
  par::parallel_chunks(static_cast<std::size_t>(csr.num_nodes), kBucketRowGrain,
                       [&](std::size_t, std::size_t b, std::size_t e) {
                         for (std::size_t v = b; v < e; ++v) {
                           std::fill(out.dst.begin() + csr.row_ptr[v],
                                     out.dst.begin() + csr.row_ptr[v + 1], static_cast<NodeId>(v));
                         }
                       });
  out.src = std::move(csr.col_idx);
  return out;
}

bool valid(const Csr& g) { return rt::validate_csr(g).ok(); }

}  // namespace gnnbridge::graph
