#include "graph/csr.hpp"

#include <gtest/gtest.h>

#include "tests/testing/util.hpp"

namespace gnnbridge::graph {
namespace {

Coo small_coo() {
  // Figure 2 of the paper: edges (src -> dst)
  // 1->2, 1->3, 2->1, 2->3, 3->2, 3->3(self, dropped), 3->4, 4->3 on a
  // 5-node graph (0 unused).
  Coo g;
  g.num_nodes = 5;
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 1);
  g.add_edge(2, 3);
  g.add_edge(3, 2);
  g.add_edge(3, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 3);
  return canonicalize(g);
}

TEST(CsrFromCoo, RowsAreInNeighbors) {
  const Csr csr = csr_from_coo(small_coo());
  ASSERT_TRUE(valid(csr));
  EXPECT_EQ(csr.degree(0), 0);
  EXPECT_EQ(csr.degree(2), 2);  // 1->2, 3->2
  const auto n3 = csr.neighbors(3);
  ASSERT_EQ(n3.size(), 3u);  // 1, 2, 4 (self loop dropped)
  EXPECT_EQ(n3[0], 1);
  EXPECT_EQ(n3[1], 2);
  EXPECT_EQ(n3[2], 4);
}

TEST(CscFromCoo, RowsAreOutNeighbors) {
  const Csr csc = csc_from_coo(small_coo());
  ASSERT_TRUE(valid(csc));
  const auto out1 = csc.neighbors(1);
  ASSERT_EQ(out1.size(), 2u);  // 1->2, 1->3
  EXPECT_EQ(out1[0], 2);
  EXPECT_EQ(out1[1], 3);
}

TEST(CooFromCsr, RoundTrips) {
  const Coo original = small_coo();
  const Coo round = coo_from_csr(csr_from_coo(original));
  EXPECT_EQ(round.src, original.src);
  EXPECT_EQ(round.dst, original.dst);
}

TEST(CsrValid, CatchesBrokenRowPtr) {
  Csr g = csr_from_coo(small_coo());
  EXPECT_TRUE(valid(g));
  g.row_ptr[2] = g.row_ptr[3] + 1;
  EXPECT_FALSE(valid(g));
}

TEST(CsrValid, CatchesBadColumn) {
  Csr g = csr_from_coo(small_coo());
  g.col_idx[0] = 99;
  EXPECT_FALSE(valid(g));
}

TEST(Degrees, SumToEdgeCount) {
  const Csr g = testing::random_graph(100, 6.0, 5);
  EdgeId total = 0;
  for (NodeId v = 0; v < g.num_nodes; ++v) total += g.degree(v);
  EXPECT_EQ(total, g.num_edges());
}

}  // namespace
}  // namespace gnnbridge::graph
