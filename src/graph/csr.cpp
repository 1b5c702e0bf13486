#include "graph/csr.hpp"

#include <algorithm>

#include "rt/validate.hpp"

namespace gnnbridge::graph {

namespace {
Csr build_keyed(const Coo& coo, const std::vector<NodeId>& key, const std::vector<NodeId>& val) {
  Csr out;
  out.num_nodes = coo.num_nodes;
  out.row_ptr.assign(static_cast<std::size_t>(coo.num_nodes) + 1, 0);
  for (NodeId k : key) out.row_ptr[static_cast<std::size_t>(k) + 1]++;
  for (std::size_t i = 1; i < out.row_ptr.size(); ++i) out.row_ptr[i] += out.row_ptr[i - 1];

  out.col_idx.resize(key.size());
  std::vector<EdgeId> cursor(out.row_ptr.begin(), out.row_ptr.end() - 1);
  for (std::size_t i = 0; i < key.size(); ++i) {
    out.col_idx[static_cast<std::size_t>(cursor[key[i]]++)] = val[i];
  }
  // Sort each row so neighbor lists are canonical (tests and MinHash rely
  // on set semantics).
  for (NodeId v = 0; v < out.num_nodes; ++v) {
    std::sort(out.col_idx.begin() + out.row_ptr[v], out.col_idx.begin() + out.row_ptr[v + 1]);
  }
  return out;
}
}  // namespace

Csr csr_from_coo(const Coo& coo) { return build_keyed(coo, coo.dst, coo.src); }

Csr csc_from_coo(const Coo& coo) { return build_keyed(coo, coo.src, coo.dst); }

Coo coo_from_csr(const Csr& csr) {
  Coo out;
  out.num_nodes = csr.num_nodes;
  out.src.reserve(csr.col_idx.size());
  out.dst.reserve(csr.col_idx.size());
  for (NodeId v = 0; v < csr.num_nodes; ++v) {
    for (NodeId u : csr.neighbors(v)) {
      out.src.push_back(u);
      out.dst.push_back(v);
    }
  }
  return out;
}

bool valid(const Csr& g) { return rt::validate_csr(g).ok(); }

}  // namespace gnnbridge::graph
