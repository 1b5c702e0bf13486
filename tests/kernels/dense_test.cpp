#include "kernels/dense.hpp"

#include <gtest/gtest.h>

#include "tensor/ops.hpp"
#include "tests/testing/util.hpp"

namespace gnnbridge::kernels {
namespace {

using testing::random_matrix;

struct DenseHarness {
  sim::SimContext ctx{sim::v100()};
};

TEST(DenseGemm, MatchesHostGemm) {
  DenseHarness h;
  Matrix a_host = random_matrix(70, 33, 1);
  Matrix b_host = random_matrix(33, 65, 2);
  Matrix c_host(70, 65);
  auto a = device_mat(h.ctx, a_host, "a");
  auto b = device_mat(h.ctx, b_host, "b");
  auto c = device_mat(h.ctx, c_host, "c");
  dense_gemm(h.ctx, {.a = &a, .b = &b, .c = &c});
  EXPECT_TRUE(tensor::allclose(c_host, tensor::gemm_ref(a_host, b_host), 1e-3f, 1e-4f));
}

TEST(DenseGemm, BlockCountIsTileGrid) {
  DenseHarness h;
  Matrix a_host(130, 64), b_host(64, 65), c_host(130, 65);
  auto a = device_mat(h.ctx, a_host, "a");
  auto b = device_mat(h.ctx, b_host, "b");
  auto c = device_mat(h.ctx, c_host, "c");
  const sim::KernelStats& ks = dense_gemm(h.ctx, {.a = &a, .b = &b, .c = &c});
  EXPECT_EQ(ks.num_blocks, 5 * 3);  // ceil(130/32) x ceil(65/32)
}

TEST(DenseGemm, FlopsAreTwoMNK) {
  DenseHarness h;
  Matrix a_host(32, 16), b_host(16, 8), c_host(32, 8);
  auto a = device_mat(h.ctx, a_host, "a");
  auto b = device_mat(h.ctx, b_host, "b");
  auto c = device_mat(h.ctx, c_host, "c");
  const sim::KernelStats& ks = dense_gemm(h.ctx, {.a = &a, .b = &b, .c = &c});
  EXPECT_DOUBLE_EQ(ks.flops, 2.0 * 32 * 16 * 8);
}

TEST(SparseFetchGemm, MatchesGatherThenGemm) {
  DenseHarness h;
  Matrix feat_host = random_matrix(50, 12, 5);
  Matrix b_host = random_matrix(12, 9, 6);
  std::vector<graph::NodeId> index = {3, 3, 7, 49, 0, 21, 11, 7};
  Matrix c_host(static_cast<Index>(index.size()), 9);
  auto feat = device_mat(h.ctx, feat_host, "feat");
  auto b = device_mat(h.ctx, b_host, "b");
  auto c = device_mat(h.ctx, c_host, "c");
  auto idx_buf = h.ctx.mem().alloc("idx", index.size() * 4);
  sparse_fetch_gemm(h.ctx, {.feat = &feat, .row_index = index, .index_buf = idx_buf, .b = &b,
                            .c = &c});

  Matrix gathered(static_cast<Index>(index.size()), 12);
  for (std::size_t i = 0; i < index.size(); ++i) {
    auto src = feat_host.row(index[i]);
    auto dst = gathered.row(static_cast<Index>(i));
    std::copy(src.begin(), src.end(), dst.begin());
  }
  EXPECT_TRUE(tensor::allclose(c_host, tensor::gemm_ref(gathered, b_host), 1e-3f, 1e-4f));
}

TEST(SparseFetchGemm, NoExpansionBufferAllocated) {
  // The point of sparse fetching: no [M, K] intermediate exists.
  DenseHarness h;
  Matrix feat_host = random_matrix(100, 32, 7);
  Matrix b_host = random_matrix(32, 16, 8);
  std::vector<graph::NodeId> index(200, 5);
  Matrix c_host(200, 16);
  auto feat = device_mat(h.ctx, feat_host, "feat");
  auto b = device_mat(h.ctx, b_host, "b");
  auto c = device_mat(h.ctx, c_host, "c");
  auto idx_buf = h.ctx.mem().alloc("idx", index.size() * 4);
  const std::uint64_t before = h.ctx.mem().total_allocated();
  sparse_fetch_gemm(h.ctx, {.feat = &feat, .row_index = index, .index_buf = idx_buf, .b = &b,
                            .c = &c});
  EXPECT_EQ(h.ctx.mem().total_allocated(), before);
}

TEST(DenseMap, AppliesElementwise) {
  DenseHarness h;
  Matrix in_host = random_matrix(20, 7, 9);
  Matrix out_host(20, 7);
  auto in = device_mat(h.ctx, in_host, "in");
  auto out = device_mat(h.ctx, out_host, "out");
  dense_map(h.ctx, {.in = &in, .out = &out, .fn = [](float x) { return x * x; }});
  for (Index r = 0; r < 20; ++r) {
    for (Index c = 0; c < 7; ++c) EXPECT_FLOAT_EQ(out_host(r, c), in_host(r, c) * in_host(r, c));
  }
}

TEST(DenseBinary, CombinesElementwise) {
  DenseHarness h;
  Matrix a_host = random_matrix(15, 6, 10);
  Matrix b_host = random_matrix(15, 6, 11);
  Matrix out_host(15, 6);
  auto a = device_mat(h.ctx, a_host, "a");
  auto b = device_mat(h.ctx, b_host, "b");
  auto out = device_mat(h.ctx, out_host, "out");
  dense_binary(h.ctx,
               {.a = &a, .b = &b, .out = &out, .fn = [](float x, float y) { return x - y; }});
  for (Index r = 0; r < 15; ++r) {
    for (Index c = 0; c < 6; ++c) {
      EXPECT_FLOAT_EQ(out_host(r, c), a_host(r, c) - b_host(r, c));
    }
  }
}

TEST(IndexedBinary, FetchesFirstOperandByIndex) {
  DenseHarness h;
  Matrix a_host = random_matrix(30, 5, 12);
  std::vector<graph::NodeId> index = {7, 7, 0, 29, 13};
  Matrix b_host = random_matrix(5, 5, 13);
  Matrix out_host(5, 5);
  auto a = device_mat(h.ctx, a_host, "a");
  auto b = device_mat(h.ctx, b_host, "b");
  auto out = device_mat(h.ctx, out_host, "out");
  auto idx_buf = h.ctx.mem().alloc("idx", index.size() * 4);
  indexed_binary(h.ctx, {.a = &a, .row_index = index, .index_buf = idx_buf, .b = &b, .out = &out,
                         .fn = [](float x, float y) { return x + y; }});
  for (Index r = 0; r < 5; ++r) {
    for (Index c = 0; c < 5; ++c) {
      EXPECT_FLOAT_EQ(out_host(r, c), a_host(index[static_cast<std::size_t>(r)], c) + b_host(r, c));
    }
  }
}

TEST(RowDot, ComputesAttentionScalars) {
  DenseHarness h;
  Matrix feat_host = random_matrix(25, 10, 14);
  Matrix vec_host = random_matrix(10, 1, 15);
  Matrix out_host(25, 1);
  auto feat = device_mat(h.ctx, feat_host, "feat");
  auto vec = device_mat(h.ctx, vec_host, "vec");
  auto out = device_mat(h.ctx, out_host, "out");
  row_dot(h.ctx, {.feat = &feat, .vec = &vec, .out = &out});
  for (Index r = 0; r < 25; ++r) {
    float expect = 0.0f;
    for (Index c = 0; c < 10; ++c) expect += feat_host(r, c) * vec_host(c, 0);
    EXPECT_NEAR(out_host(r, 0), expect, 1e-4f);
  }
}

TEST(DenseGemm, BoundaryTileIssuedFlopsPadded) {
  DenseHarness h;
  Matrix a_host(65, 64), b_host(64, 65), c_host(65, 65);
  auto a = device_mat(h.ctx, a_host, "a");
  auto b = device_mat(h.ctx, b_host, "b");
  auto c = device_mat(h.ctx, c_host, "c");
  const sim::KernelStats& ks = dense_gemm(h.ctx, {.a = &a, .b = &b, .c = &c});
  EXPECT_GT(ks.issued_flops, ks.flops);
}

}  // namespace
}  // namespace gnnbridge::kernels
