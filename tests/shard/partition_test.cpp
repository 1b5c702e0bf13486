// The deterministic edge-cut partitioner (DESIGN.md §16): shard
// construction edge cases, ghost routing tables, byte-stability, and the
// checked-accessor error path for corrupt graphs.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "shard/partition.hpp"
#include "tests/testing/util.hpp"

namespace gnnbridge {
namespace {

using graph::Csr;
using graph::EdgeId;
using graph::NodeId;
using shard::Partition;
using shard::partition_graph;

Partition must_partition(const Csr& g, int k) {
  rt::Result<Partition> p = partition_graph(g, k);
  EXPECT_TRUE(p.ok()) << p.status().to_string();
  return *std::move(p);
}

/// Structural invariants every partition must satisfy, whatever the graph:
/// owned sets partition the node set, ghost tables route to real owned
/// rows, local CSRs preserve the global within-row neighbor order.
void check_invariants(const Csr& g, const Partition& p) {
  ASSERT_EQ(p.shards.size(), static_cast<std::size_t>(p.k));
  ASSERT_EQ(p.assign.size(), static_cast<std::size_t>(g.num_nodes));
  std::vector<int> seen(static_cast<std::size_t>(g.num_nodes), 0);
  NodeId total_owned = 0;
  NodeId total_ghosts = 0;
  EdgeId total_edges = 0;
  for (std::size_t s = 0; s < p.shards.size(); ++s) {
    const shard::Shard& sh = p.shards[s];
    if (g.num_nodes > 0) {
      EXPECT_FALSE(sh.owned.empty()) << "empty shard " << s;
    }
    EXPECT_TRUE(graph::valid(sh.local)) << "invalid local CSR, shard " << s;
    EXPECT_EQ(sh.local.num_nodes, sh.num_owned() + static_cast<NodeId>(sh.ghosts.size()));
    EXPECT_EQ(sh.ghost_owner.size(), sh.ghosts.size());
    EXPECT_EQ(sh.ghost_owner_row.size(), sh.ghosts.size());
    total_owned += sh.num_owned();
    total_ghosts += static_cast<NodeId>(sh.ghosts.size());
    total_edges += sh.local.num_edges();
    for (std::size_t r = 0; r < sh.owned.size(); ++r) {
      const NodeId v = sh.owned[r];
      seen[static_cast<std::size_t>(v)]++;
      EXPECT_EQ(p.assign[static_cast<std::size_t>(v)], static_cast<int>(s));
      if (r > 0) {
        EXPECT_LT(sh.owned[r - 1], v) << "owned not ascending";
      }
      // The local row must mirror the global row: same length, same
      // within-row order, every local column resolving to the same global
      // source id.
      const auto global_nbrs = g.neighbors(v);
      const auto local_nbrs = sh.local.neighbors(static_cast<NodeId>(r));
      ASSERT_EQ(local_nbrs.size(), global_nbrs.size()) << "row " << v;
      for (std::size_t i = 0; i < local_nbrs.size(); ++i) {
        const NodeId lc = local_nbrs[i];
        const NodeId global_src =
            lc < sh.num_owned() ? sh.owned[static_cast<std::size_t>(lc)]
                                : sh.ghosts[static_cast<std::size_t>(lc - sh.num_owned())];
        EXPECT_EQ(global_src, global_nbrs[i]) << "row " << v << " slot " << i;
      }
    }
    for (std::size_t gi = 0; gi < sh.ghosts.size(); ++gi) {
      if (gi > 0) {
        EXPECT_LT(sh.ghosts[gi - 1], sh.ghosts[gi]) << "ghosts not ascending";
      }
      const int owner = sh.ghost_owner[gi];
      ASSERT_GE(owner, 0);
      ASSERT_LT(owner, p.k);
      EXPECT_NE(owner, static_cast<int>(s)) << "ghost owned by its own shard";
      const shard::Shard& osh = p.shards[static_cast<std::size_t>(owner)];
      const NodeId row = sh.ghost_owner_row[gi];
      ASSERT_GE(row, 0);
      ASSERT_LT(row, osh.num_owned());
      EXPECT_EQ(osh.owned[static_cast<std::size_t>(row)], sh.ghosts[gi])
          << "ghost routing points at the wrong owned row";
      // Ghost rows carry no edges: ghosts are read, never aggregated.
      EXPECT_EQ(sh.local.degree(sh.num_owned() + static_cast<NodeId>(gi)), 0);
    }
  }
  EXPECT_EQ(total_owned, g.num_nodes);
  EXPECT_EQ(total_ghosts, p.total_ghosts);
  EXPECT_EQ(total_edges, g.num_edges()) << "local CSRs must cover every global edge";
  for (const int c : seen) EXPECT_EQ(c, 1) << "owned sets must partition the node set";
}

TEST(ShardPartition, KEqualsOneIsTheIdentity) {
  const Csr g = testing::random_graph(200, 5.0, 42);
  const Partition p = must_partition(g, 1);
  EXPECT_EQ(p.k, 1);
  EXPECT_EQ(p.cut_edges, 0);
  EXPECT_EQ(p.total_ghosts, 0);
  ASSERT_EQ(p.shards.size(), 1u);
  const shard::Shard& sh = p.shards[0];
  EXPECT_TRUE(sh.ghosts.empty());
  // One shard owning everything: the local CSR *is* the input.
  EXPECT_EQ(sh.local.num_nodes, g.num_nodes);
  EXPECT_EQ(sh.local.row_ptr, g.row_ptr);
  EXPECT_EQ(sh.local.col_idx, g.col_idx);
  check_invariants(g, p);
}

TEST(ShardPartition, KLargerThanNodeCountClampsToOneNodePerShard) {
  const Csr g = testing::path_graph(6);
  const Partition p = must_partition(g, 64);
  EXPECT_EQ(p.k, 6);
  ASSERT_EQ(p.shards.size(), 6u);
  for (const shard::Shard& sh : p.shards) EXPECT_EQ(sh.num_owned(), 1);
  check_invariants(g, p);
}

TEST(ShardPartition, ShardWithZeroInternalEdges) {
  // One node per shard on a cycle: every edge crosses shards, so every
  // shard aggregates exclusively from ghosts (zero internal edges).
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v < 8; ++v) edges.push_back({v, (v + 1) % 8});
  const Csr g = testing::csr_from_edges(8, std::move(edges));
  const Partition p = must_partition(g, 8);
  EXPECT_EQ(p.k, 8);
  EXPECT_EQ(p.cut_edges, g.num_edges());
  for (const shard::Shard& sh : p.shards) {
    EXPECT_EQ(sh.ghosts.size(), 1u);
    // The owned row still has its full (remote-sourced) neighbor list.
    EXPECT_EQ(sh.local.degree(0), 1);
  }
  check_invariants(g, p);
}

TEST(ShardPartition, GhostReferencedByEveryShard) {
  // Every center aggregates node 0: whichever shard owns node 0, all
  // others must carry it as a ghost with consistent routing.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 1; v < 40; ++v) edges.push_back({v, 0});
  const Csr g = testing::csr_from_edges(40, std::move(edges));
  const Partition p = must_partition(g, 4);
  EXPECT_EQ(p.k, 4);
  const int owner = p.assign[0];
  int shards_with_ghost0 = 0;
  for (std::size_t s = 0; s < p.shards.size(); ++s) {
    const shard::Shard& sh = p.shards[s];
    const bool has_ghost0 = !sh.ghosts.empty() && sh.ghosts.front() == 0;
    if (static_cast<int>(s) == owner) {
      EXPECT_FALSE(has_ghost0);
    } else if (has_ghost0) {
      shards_with_ghost0++;
      EXPECT_EQ(sh.ghost_owner.front(), owner);
    }
  }
  EXPECT_EQ(shards_with_ghost0, 3) << "node 0 must be a ghost in every non-owning shard";
  check_invariants(g, p);
}

TEST(ShardPartition, InvariantsOnSkewedGraph) {
  const Csr g = testing::random_graph(3000, 8.0, 7);
  for (const int k : {2, 3, 8}) {
    const Partition p = must_partition(g, k);
    EXPECT_EQ(p.k, k);
    check_invariants(g, p);
  }
}

TEST(ShardPartition, ByteStableAcrossRuns) {
  const Csr g = testing::random_graph(2000, 6.0, 11);
  const Partition a = must_partition(g, 4);
  const Partition b = must_partition(g, 4);
  EXPECT_EQ(a.assign, b.assign);
  EXPECT_EQ(a.cut_edges, b.cut_edges);
  EXPECT_EQ(a.total_ghosts, b.total_ghosts);
  for (int s = 0; s < 4; ++s) {
    const auto& sa = a.shards[static_cast<std::size_t>(s)];
    const auto& sb = b.shards[static_cast<std::size_t>(s)];
    EXPECT_EQ(sa.owned, sb.owned);
    EXPECT_EQ(sa.ghosts, sb.ghosts);
    EXPECT_EQ(sa.local.row_ptr, sb.local.row_ptr);
    EXPECT_EQ(sa.local.col_idx, sb.local.col_idx);
    EXPECT_EQ(sa.edge_origin, sb.edge_origin);
  }
}

// Regression: a corrupt graph — out-of-range column / truncated row_ptr /
// non-monotone row bounds — must surface as a structured Status from
// partition_graph, not an assert or out-of-range read. The partitioner
// checks its input once, at entry (rt::validate_csr), before it reads a
// row.
TEST(ShardPartition, CorruptGraphReportsStructuredError) {
  Csr bad = testing::path_graph(8);
  bad.col_idx[0] = 99;  // source id beyond num_nodes
  const rt::Result<Partition> r1 = partition_graph(bad, 2);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), rt::StatusCode::kFailedPrecondition)
      << r1.status().to_string();

  Csr truncated = testing::path_graph(8);
  truncated.row_ptr.pop_back();  // num_nodes + 1 invariant broken
  const rt::Result<Partition> r2 = partition_graph(truncated, 2);
  ASSERT_FALSE(r2.ok());
  EXPECT_FALSE(r2.status().to_string().empty());

  Csr negative = testing::path_graph(8);
  negative.row_ptr[1] = -3;  // non-monotone row bounds
  const rt::Result<Partition> r3 = partition_graph(negative, 2);
  ASSERT_FALSE(r3.ok());
}

TEST(ShardPartition, EmptyAndTinyGraphs) {
  Csr empty;  // zero nodes, structurally valid (row_ptr = {0})
  empty.row_ptr = {0};
  const Partition p0 = must_partition(empty, 4);
  EXPECT_EQ(p0.k, 1);
  EXPECT_EQ(p0.total_ghosts, 0);

  const Csr one = testing::path_graph(1);
  const Partition p1 = must_partition(one, 4);
  EXPECT_EQ(p1.k, 1);
  ASSERT_EQ(p1.shards.size(), 1u);
  EXPECT_EQ(p1.shards[0].num_owned(), 1);
}

}  // namespace
}  // namespace gnnbridge
