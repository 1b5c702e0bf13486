#include "kernels/sddmm.hpp"

#include <gtest/gtest.h>

#include "tests/testing/util.hpp"

namespace gnnbridge::kernels {
namespace {

using testing::random_graph;
using testing::random_matrix;

TEST(UAddV, MatchesPerEdgeSum) {
  const graph::Csr csr = random_graph(40, 5.0, 1);
  sim::SimContext ctx(sim::v100());
  auto gdev = device_graph(ctx, csr, "g");
  Matrix src_host = random_matrix(40, 1, 2);
  Matrix dst_host = random_matrix(40, 1, 3);
  Matrix e_host(csr.num_edges(), 1);
  auto src = device_mat(ctx, src_host, "src");
  auto dst = device_mat(ctx, dst_host, "dst");
  auto e = device_mat(ctx, e_host, "e");
  const auto tasks = natural_tasks(csr);
  u_add_v(ctx, {.graph = &gdev, .tasks = tasks, .src_scalar = &src, .dst_scalar = &dst,
                .edge_out = &e});
  for (graph::NodeId v = 0; v < csr.num_nodes; ++v) {
    for (graph::EdgeId idx = csr.row_ptr[v]; idx < csr.row_ptr[static_cast<std::size_t>(v) + 1];
         ++idx) {
      const graph::NodeId u = csr.col_idx[static_cast<std::size_t>(idx)];
      EXPECT_FLOAT_EQ(e_host(idx, 0), src_host(u, 0) + dst_host(v, 0));
    }
  }
}

TEST(UAddV, SplitTasksCoverAllEdges) {
  const graph::Csr csr = testing::star_graph(20);
  sim::SimContext ctx(sim::v100());
  auto gdev = device_graph(ctx, csr, "g");
  Matrix src_host = random_matrix(20, 1, 4);
  Matrix dst_host = random_matrix(20, 1, 5);
  Matrix e_host(csr.num_edges(), 1);
  e_host.fill(-99.0f);
  auto src = device_mat(ctx, src_host, "src");
  auto dst = device_mat(ctx, dst_host, "dst");
  auto e = device_mat(ctx, e_host, "e");
  // Split node 0's 19 edges into tasks of <= 4.
  std::vector<Task> tasks;
  for (graph::EdgeId b = 0; b < csr.num_edges(); b += 4) {
    tasks.push_back({0, b, std::min<graph::EdgeId>(b + 4, csr.num_edges())});
  }
  u_add_v(ctx, {.graph = &gdev, .tasks = tasks, .src_scalar = &src, .dst_scalar = &dst,
                .edge_out = &e});
  for (graph::EdgeId idx = 0; idx < csr.num_edges(); ++idx) {
    EXPECT_NE(e_host(idx, 0), -99.0f) << idx;
  }
}

}  // namespace
}  // namespace gnnbridge::kernels
