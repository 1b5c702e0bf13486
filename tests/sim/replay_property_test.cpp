// Property tests on the simulation substrate itself: determinism, trace
// value-independence, and cost-model monotonicity. These are the
// invariants every reproduced figure silently relies on.
#include <gtest/gtest.h>

#include "kernels/spmm.hpp"
#include "tests/testing/util.hpp"

namespace gnnbridge::sim {
namespace {

using gnnbridge::testing::random_graph;
using gnnbridge::testing::random_matrix;

namespace k = gnnbridge::kernels;

/// Whether a run's operands have host storage (the kernel computes) or are
/// shapes only (a trace-only run).
enum class Operands { kHost, kShape };

KernelStats run_spmm(const graph::Csr& csr, tensor::Index feat, int lanes,
                     Operands operands, DeviceSpec spec = v100(), std::uint64_t seed = 7) {
  SimContext ctx(spec);
  const auto gdev = k::device_graph(ctx, csr, "g");
  tensor::Matrix src_host = random_matrix(csr.num_nodes, feat, seed);
  tensor::Matrix out_host(csr.num_nodes, feat);
  const bool host = operands == Operands::kHost;
  auto src = host ? k::device_mat(ctx, src_host, "src")
                  : k::device_mat_shape(ctx, csr.num_nodes, feat, "src");
  auto out = host ? k::device_mat(ctx, out_host, "out")
                  : k::device_mat_shape(ctx, csr.num_nodes, feat, "out");
  const auto tasks = k::natural_tasks(csr);
  k::SpmmArgs args{.graph = &gdev, .tasks = tasks, .src = &src, .out = &out, .lanes = lanes};
  return k::spmm_node(ctx, args);
}

class ReplayProperties : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ReplayProperties, DeterministicAcrossRuns) {
  auto [feat, lanes] = GetParam();
  const graph::Csr g = random_graph(150, 8.0, 3);
  const KernelStats a = run_spmm(g, feat, lanes, Operands::kShape);
  const KernelStats b = run_spmm(g, feat, lanes, Operands::kShape);
  EXPECT_EQ(a.l2_hits, b.l2_hits);
  EXPECT_EQ(a.l2_misses, b.l2_misses);
  EXPECT_DOUBLE_EQ(a.cycles, b.cycles);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST_P(ReplayProperties, TraceIsValueIndependent) {
  auto [feat, lanes] = GetParam();
  const graph::Csr g = random_graph(120, 6.0, 5);
  // Different feature *values* (different seeds), identical traces.
  const KernelStats full1 = run_spmm(g, feat, lanes, Operands::kHost, v100(), 11);
  const KernelStats full2 = run_spmm(g, feat, lanes, Operands::kHost, v100(), 99);
  const KernelStats simo = run_spmm(g, feat, lanes, Operands::kShape, v100(), 11);
  EXPECT_EQ(full1.l2_misses, full2.l2_misses);
  EXPECT_EQ(full1.l2_misses, simo.l2_misses);
  EXPECT_DOUBLE_EQ(full1.cycles, simo.cycles);
}

INSTANTIATE_TEST_SUITE_P(FeatLanes, ReplayProperties,
                         ::testing::Combine(::testing::Values(8, 33, 64),
                                            ::testing::Values(8, 32)));

TEST(CostModel, MoreEdgesNeverCheaper) {
  // Adding edges (strictly more work + traffic) must not reduce cycles.
  const graph::Csr small = random_graph(200, 4.0, 7);
  const graph::Csr big = random_graph(200, 16.0, 7);
  ASSERT_GT(big.num_edges(), small.num_edges());
  const KernelStats a = run_spmm(small, 32, 32, Operands::kShape);
  const KernelStats b = run_spmm(big, 32, 32, Operands::kShape);
  EXPECT_GT(b.cycles, a.cycles);
}

TEST(CostModel, WiderFeaturesNeverCheaper) {
  const graph::Csr g = random_graph(200, 8.0, 9);
  const KernelStats narrow = run_spmm(g, 16, 32, Operands::kShape);
  const KernelStats wide = run_spmm(g, 128, 32, Operands::kShape);
  EXPECT_GT(wide.cycles, narrow.cycles);
}

TEST(CostModel, LargerCacheNeverMoreMisses) {
  const graph::Csr g = random_graph(3000, 12.0, 11);
  DeviceSpec small_cache = v100();
  small_cache.l2_bytes = 256 * 1024;
  DeviceSpec big_cache = v100();
  big_cache.l2_bytes = 24ll * 1024 * 1024;
  const KernelStats a = run_spmm(g, 64, 32, Operands::kShape, small_cache);
  const KernelStats b = run_spmm(g, 64, 32, Operands::kShape, big_cache);
  EXPECT_GE(a.l2_misses, b.l2_misses);
}

TEST(CostModel, FrameworkOverheadIsPerLaunch) {
  const graph::Csr g = random_graph(50, 4.0, 13);
  DeviceSpec base = v100();
  DeviceSpec framework = v100();
  framework.framework_overhead_cycles = 30000.0;
  const KernelStats a = run_spmm(g, 16, 32, Operands::kShape, base);
  const KernelStats b = run_spmm(g, 16, 32, Operands::kShape, framework);
  EXPECT_DOUBLE_EQ(b.cycles - a.cycles, 30000.0);
}

TEST(CostModel, LaunchOverheadFloorsTinyKernels) {
  // A one-edge kernel still costs at least the launch overhead.
  const graph::Csr g = gnnbridge::testing::csr_from_edges(2, {{0, 1}});
  const KernelStats ks = run_spmm(g, 4, 32, Operands::kShape);
  EXPECT_GE(ks.cycles, v100().kernel_launch_cycles);
}

}  // namespace
}  // namespace gnnbridge::sim
