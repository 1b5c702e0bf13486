#include "graph/bucket.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "par/thread_pool.hpp"

namespace gnnbridge::graph {

namespace {

bool in_range(NodeId v, NodeId n) {
  return static_cast<std::uint32_t>(v) < static_cast<std::uint32_t>(n);
}

[[noreturn]] void throw_out_of_range(const Coo& g, std::size_t i, NodeId n) {
  throw std::out_of_range("edge " + std::to_string(i) + " (" + std::to_string(g.src[i]) + " -> " +
                          std::to_string(g.dst[i]) + ") has an endpoint outside [0, " +
                          std::to_string(n) + ")");
}

/// Sorts one row in place under `rule`; returns the end of what it keeps.
NodeId* tidy_row(NodeId* begin, NodeId* end, NodeId row, RowRule rule) {
  if (!std::is_sorted(begin, end)) std::sort(begin, end);
  if (rule == RowRule::kMultiset) return end;
  NodeId* kept = begin;
  for (const NodeId* v = begin; v != end; ++v) {
    if (rule == RowRule::kSetNoSelfLoops && *v == row) continue;
    if (kept != begin && kept[-1] == *v) continue;
    *kept++ = *v;
  }
  return kept;
}

}  // namespace

Csr bucket_edges(NodeId num_nodes, std::initializer_list<EdgeRun> runs, RowRule rule) {
  if (num_nodes < 0) {
    throw std::invalid_argument("negative node count " + std::to_string(num_nodes));
  }
  std::size_t total = 0;
  for (const EdgeRun& r : runs) {
    if (r.edges.src.size() != r.edges.dst.size()) {
      throw std::invalid_argument("edge list has " + std::to_string(r.edges.src.size()) +
                                  " sources but " + std::to_string(r.edges.dst.size()) +
                                  " destinations");
    }
    total += r.edges.src.size();
  }
  const std::size_t n = static_cast<std::size_t>(num_nodes);

  // Counting sort, checking each edge before it is counted. Row k's count
  // goes to start[k + 2], so after the prefix sum start[k + 1] is row k's
  // first slot; the scatter advances it to the row's end, which is row
  // k + 1's first slot, leaving start[0 .. n] the row pointers.
  std::vector<EdgeId> start(n + 2, 0);
  for (const EdgeRun& r : runs) {
    const std::vector<NodeId>& key = r.by_src ? r.edges.src : r.edges.dst;
    for (std::size_t i = 0; i < key.size(); ++i) {
      if (!in_range(r.edges.src[i], num_nodes) || !in_range(r.edges.dst[i], num_nodes)) {
        throw_out_of_range(r.edges, i, num_nodes);
      }
      ++start[static_cast<std::size_t>(key[i]) + 2];
    }
  }
  for (std::size_t k = 2; k < start.size(); ++k) start[k] += start[k - 1];
  std::vector<NodeId> col(total);
  for (const EdgeRun& r : runs) {
    const std::vector<NodeId>& key = r.by_src ? r.edges.src : r.edges.dst;
    const std::vector<NodeId>& val = r.by_src ? r.edges.dst : r.edges.src;
    for (std::size_t i = 0; i < key.size(); ++i) {
      col[static_cast<std::size_t>(start[static_cast<std::size_t>(key[i]) + 1]++)] = val[i];
    }
  }
  start.pop_back();

  Csr out;
  out.num_nodes = num_nodes;
  if (rule == RowRule::kMultiset) {
    par::parallel_chunks(n, kBucketRowGrain, [&](std::size_t, std::size_t b, std::size_t e) {
      for (std::size_t v = b; v < e; ++v) {
        tidy_row(col.data() + start[v], col.data() + start[v + 1], static_cast<NodeId>(v), rule);
      }
    });
    out.row_ptr = std::move(start);
    out.col_idx = std::move(col);
    return out;
  }

  // A set rule shrinks rows: tidy each row in place, then pack the kept
  // prefixes into an exactly sized col_idx.
  out.row_ptr.assign(n + 1, 0);
  par::parallel_chunks(n, kBucketRowGrain, [&](std::size_t, std::size_t b, std::size_t e) {
    for (std::size_t v = b; v < e; ++v) {
      NodeId* row = col.data() + start[v];
      out.row_ptr[v + 1] =
          tidy_row(row, col.data() + start[v + 1], static_cast<NodeId>(v), rule) - row;
    }
  });
  for (std::size_t v = 1; v <= n; ++v) out.row_ptr[v] += out.row_ptr[v - 1];
  out.col_idx.resize(static_cast<std::size_t>(out.row_ptr[n]));
  par::parallel_chunks(n, kBucketRowGrain, [&](std::size_t, std::size_t b, std::size_t e) {
    for (std::size_t v = b; v < e; ++v) {
      std::copy_n(col.data() + start[v], out.row_ptr[v + 1] - out.row_ptr[v],
                  out.col_idx.data() + out.row_ptr[v]);
    }
  });
  return out;
}

}  // namespace gnnbridge::graph
