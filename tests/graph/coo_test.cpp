#include "graph/coo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "par/thread_pool.hpp"
#include "tensor/rng.hpp"

namespace gnnbridge::graph {
namespace {

using Pairs = std::vector<std::pair<NodeId, NodeId>>;

/// (dst, src) pairs of every edge, sorted.
Pairs sorted_pairs(const Coo& in) {
  Pairs kv;
  for (EdgeId i = 0; i < in.num_edges(); ++i) kv.emplace_back(in.dst[i], in.src[i]);
  std::sort(kv.begin(), kv.end());
  return kv;
}

/// The comparison-sort canonicalize: std::sort of (dst, src) pairs, then
/// std::unique, with self-loops dropped first unless kept.
Coo reference_canonicalize(const Coo& in, bool keep_self_loops) {
  Pairs ds = sorted_pairs(in);
  if (!keep_self_loops) {
    ds.erase(std::remove_if(ds.begin(), ds.end(), [](const auto& e) { return e.first == e.second; }),
             ds.end());
  }
  ds.erase(std::unique(ds.begin(), ds.end()), ds.end());
  Coo out;
  out.num_nodes = in.num_nodes;
  for (const auto& [d, s] : ds) out.add_edge(s, d);
  return out;
}

/// Row-sorted CSR keyed by dst with duplicates kept.
Csr reference_csr(const Coo& in) {
  Csr out;
  out.num_nodes = in.num_nodes;
  out.row_ptr.assign(static_cast<std::size_t>(in.num_nodes) + 1, 0);
  for (const auto& [k, v] : sorted_pairs(in)) {
    ++out.row_ptr[static_cast<std::size_t>(k) + 1];
    out.col_idx.push_back(v);
  }
  std::partial_sum(out.row_ptr.begin(), out.row_ptr.end(), out.row_ptr.begin());
  return out;
}

Coo reversed(const Coo& in) {
  Coo out;
  out.num_nodes = in.num_nodes;
  out.src = in.dst;
  out.dst = in.src;
  return out;
}

Coo concatenated(const Coo& a, const Coo& b) {
  Coo out = a;
  out.src.insert(out.src.end(), b.src.begin(), b.src.end());
  out.dst.insert(out.dst.end(), b.dst.begin(), b.dst.end());
  return out;
}

/// Random edges among the first 3/4 of `n` nodes (the rest stay isolated),
/// with every 9th edge a self-loop, every 5th a repeat of an earlier edge,
/// and `hub` edges into node 1, drawn from few sources so they repeat.
Coo messy_edges(NodeId n, int edges, int hub, std::uint64_t seed) {
  tensor::Rng rng(seed);
  const auto draw = [&](NodeId below) {
    return static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(below)));
  };
  const NodeId reach = std::max<NodeId>(2, n * 3 / 4);
  Coo g;
  g.num_nodes = n;
  for (int i = 0; i < edges; ++i) {
    if (i % 9 == 8) {
      const NodeId v = draw(reach);
      g.add_edge(v, v);
    } else if (i % 5 == 4) {
      const std::size_t j = rng.below(g.src.size());
      g.add_edge(g.src[j], g.dst[j]);
    } else {
      g.add_edge(draw(reach), draw(reach));
    }
  }
  for (int i = 0; i < hub; ++i) g.add_edge(draw(reach / 2 + 1), 1);
  return g;
}

void expect_same(const Coo& got, const Coo& want) {
  EXPECT_EQ(got.num_nodes, want.num_nodes);
  EXPECT_EQ(got.src, want.src);
  EXPECT_EQ(got.dst, want.dst);
}

void expect_same(const Csr& got, const Csr& want) {
  EXPECT_EQ(got.num_nodes, want.num_nodes);
  EXPECT_EQ(got.row_ptr, want.row_ptr);
  EXPECT_EQ(got.col_idx, want.col_idx);
}

TEST(Coo, AddEdgeAppends) {
  Coo g;
  g.num_nodes = 3;
  g.add_edge(0, 1);
  g.add_edge(2, 1);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.src[1], 2);
  EXPECT_EQ(g.dst[1], 1);
}

TEST(Canonicalize, SortsByDstThenSrc) {
  Coo g;
  g.num_nodes = 4;
  g.add_edge(3, 0);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  Coo c = canonicalize(g);
  ASSERT_EQ(c.num_edges(), 3);
  EXPECT_EQ(c.dst[0], 0);
  EXPECT_EQ(c.dst[1], 2);
  EXPECT_EQ(c.src[1], 0);
  EXPECT_EQ(c.src[2], 1);
}

TEST(Canonicalize, RemovesDuplicates) {
  Coo g;
  g.num_nodes = 2;
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  EXPECT_EQ(canonicalize(g).num_edges(), 1);
}

TEST(Canonicalize, DropsSelfLoopsByDefault) {
  Coo g;
  g.num_nodes = 2;
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  EXPECT_EQ(canonicalize(g).num_edges(), 1);
  EXPECT_EQ(canonicalize(g, /*keep_self_loops=*/true).num_edges(), 2);
}

// Every builder on the bucket primitive against plain sorts, at thread
// counts that split the 512-row chunks evenly and unevenly. The inputs hold
// duplicates, self-loops, isolated nodes and a hub row of 6,000 edges; one
// graph is smaller than a chunk, and two edge lists are empty.
TEST(Canonicalize, MatchesComparisonSortReference) {
  Coo empty;
  empty.num_nodes = 7;
  Coo none;
  const std::vector<Coo> inputs = {messy_edges(3000, 20000, 6000, 11), messy_edges(37, 400, 90, 12),
                                   empty, none};
  const Coo other = messy_edges(3000, 5000, 0, 13);
  for (int threads : {1, 2, 3, 4, 8}) {
    par::set_max_threads(threads);
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      const Coo& in = inputs[k];
      SCOPED_TRACE("input " + std::to_string(k) + " at " + std::to_string(threads) + " threads");
      expect_same(canonicalize(in), reference_canonicalize(in, false));
      expect_same(canonicalize(in, /*keep_self_loops=*/true), reference_canonicalize(in, true));
      expect_same(symmetrize(in), reference_canonicalize(concatenated(in, reversed(in)), false));
      expect_same(csr_from_coo(in), reference_csr(in));
    }
    SCOPED_TRACE("merge_edges at " + std::to_string(threads) + " threads");
    expect_same(merge_edges(inputs[0], other),
                reference_canonicalize(concatenated(inputs[0], other), false));
  }
  par::set_max_threads(0);
}

TEST(Canonicalize, RejectsOutOfRangeEndpoints) {
  for (const auto& [u, v] : Pairs{{-1, 2}, {2, -1}, {4, 0}, {0, 4}, {1 << 30, 1}}) {
    Coo g;
    g.num_nodes = 4;
    g.add_edge(0, 1);
    g.add_edge(u, v);
    SCOPED_TRACE(std::to_string(u) + " -> " + std::to_string(v));
    EXPECT_THROW(canonicalize(g), std::out_of_range);
    EXPECT_THROW(symmetrize(g), std::out_of_range);
    try {
      canonicalize(g, /*keep_self_loops=*/true);
      ADD_FAILURE() << "no exception";
    } catch (const std::out_of_range& e) {
      const std::string edge = "edge 1 (" + std::to_string(u) + " -> " + std::to_string(v) + ")";
      EXPECT_NE(std::string(e.what()).find(edge), std::string::npos) << e.what();
    }
  }
  Coo ragged;
  ragged.num_nodes = 4;
  ragged.add_edge(0, 1);
  ragged.src.push_back(2);
  EXPECT_THROW(canonicalize(ragged), std::invalid_argument);
  Coo negative;
  negative.num_nodes = -1;
  EXPECT_THROW(canonicalize(negative), std::invalid_argument);
  EXPECT_THROW(csr_from_coo(negative), std::invalid_argument);
}

TEST(Symmetrize, AddsReverseEdges) {
  Coo g;
  g.num_nodes = 3;
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  Coo s = symmetrize(g);
  EXPECT_EQ(s.num_edges(), 4);
}

TEST(Symmetrize, IdempotentOnSymmetricInput) {
  Coo g;
  g.num_nodes = 2;
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  Coo s = symmetrize(g);
  EXPECT_EQ(s.num_edges(), 2);
  EXPECT_EQ(symmetrize(s).num_edges(), 2);
}

TEST(Valid, DetectsOutOfRange) {
  Coo g;
  g.num_nodes = 2;
  g.add_edge(0, 1);
  EXPECT_TRUE(valid(g));
  g.add_edge(0, 2);
  EXPECT_FALSE(valid(g));
}

TEST(Valid, DetectsLengthMismatch) {
  Coo g;
  g.num_nodes = 2;
  g.src.push_back(0);
  EXPECT_FALSE(valid(g));
}

}  // namespace
}  // namespace gnnbridge::graph
