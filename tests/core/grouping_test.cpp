#include "core/balance/neighbor_grouping.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "kernels/common.hpp"
#include "tests/testing/util.hpp"

namespace gnnbridge::core {
namespace {

using graph::NodeId;
using kernels::GroupedTasks;
using kernels::neighbor_group_tasks;
using kernels::Task;

/// Tasks must tile each row's [row_ptr[v], row_ptr[v+1]) exactly.
void expect_exact_cover(const Csr& g, const std::vector<Task>& tasks) {
  std::vector<EdgeId> covered(static_cast<std::size_t>(g.num_nodes), 0);
  for (const Task& t : tasks) {
    EXPECT_GE(t.begin, g.row_ptr[static_cast<std::size_t>(t.v)]);
    EXPECT_LE(t.end, g.row_ptr[static_cast<std::size_t>(t.v) + 1]);
    covered[static_cast<std::size_t>(t.v)] += t.size();
  }
  for (NodeId v = 0; v < g.num_nodes; ++v) {
    EXPECT_EQ(covered[static_cast<std::size_t>(v)], g.degree(v)) << "node " << v;
  }
}

TEST(NeighborGrouping, NoBoundMeansWholeRows) {
  const Csr g = testing::random_graph(50, 6.0, 1);
  const GroupedTasks r = neighbor_group_tasks(g, 0);
  EXPECT_FALSE(r.any_split);
  EXPECT_EQ(r.tasks.size(), 50u);
  expect_exact_cover(g, r.tasks);
}

TEST(NeighborGrouping, BoundRespected) {
  const Csr g = testing::star_graph(100);  // node 0: degree 99
  const GroupedTasks r = neighbor_group_tasks(g, 16);
  EXPECT_TRUE(r.any_split);
  for (const Task& t : r.tasks) EXPECT_LE(t.size(), 16);
  expect_exact_cover(g, r.tasks);
}

TEST(NeighborGrouping, SplitCountIsCeilDegreeOverBound) {
  const Csr g = testing::star_graph(100);
  const GroupedTasks r = neighbor_group_tasks(g, 16);
  int tasks_for_0 = 0;
  for (const Task& t : r.tasks) tasks_for_0 += (t.v == 0);
  EXPECT_EQ(tasks_for_0, (99 + 15) / 16);
}

TEST(NeighborGrouping, ZeroDegreeRowsStillGetATask) {
  const Csr g = testing::csr_from_edges(5, {{0, 1}});
  const GroupedTasks r = neighbor_group_tasks(g, 8);
  EXPECT_EQ(r.tasks.size(), 5u);  // every node appears (writes its output)
}

TEST(NeighborGrouping, HonorsCustomOrder) {
  const Csr g = testing::random_graph(20, 3.0, 2);
  std::vector<NodeId> order(20);
  std::iota(order.begin(), order.end(), 0);
  std::reverse(order.begin(), order.end());
  const GroupedTasks r = neighbor_group_tasks(g, 0, order);
  EXPECT_EQ(r.tasks.front().v, 19);
  EXPECT_EQ(r.tasks.back().v, 0);
  expect_exact_cover(g, r.tasks);
}

TEST(NeighborGrouping, GroupsOfOneRowStayContiguousUnderOrder) {
  const Csr g = testing::star_graph(40);
  std::vector<NodeId> order(40);
  std::iota(order.begin(), order.end(), 0);
  std::swap(order[0], order[39]);  // hub scheduled last
  const GroupedTasks r = neighbor_group_tasks(g, 8, order);
  // The hub's split tasks are the trailing ones and contiguous.
  const std::size_t first_hub =
      static_cast<std::size_t>(std::find_if(r.tasks.begin(), r.tasks.end(),
                                            [](const Task& t) { return t.v == 0; }) -
                               r.tasks.begin());
  for (std::size_t i = first_hub; i < r.tasks.size(); ++i) EXPECT_EQ(r.tasks[i].v, 0);
}

TEST(CandidateBounds, MultiplesOf16UpToTenXAvg) {
  const Csr g = testing::random_graph(100, 8.0, 3);
  const auto bounds = candidate_group_bounds(g);
  ASSERT_FALSE(bounds.empty());
  const double avg = static_cast<double>(g.num_edges()) / 100.0;
  for (EdgeId b : bounds) {
    EXPECT_EQ(b % 16, 0);
    EXPECT_LE(b, static_cast<EdgeId>(avg * 10.0) + 16);
  }
}

TEST(CandidateBounds, CapAtMaxCandidates) {
  // 10x the average degree spans about 60 multiples of 16 here.
  const Csr dense = testing::random_graph(200, 100.0, 4);
  const auto bounds = candidate_group_bounds(dense);
  EXPECT_LE(bounds.size(), static_cast<std::size_t>(kMaxBoundRounds));
  EXPECT_GT(bounds.size(), 1u);
}

TEST(NeighborGrouping, TaskSizeHelper) {
  Task t{3, 10, 25};
  EXPECT_EQ(t.size(), 15);
}

}  // namespace
}  // namespace gnnbridge::core
