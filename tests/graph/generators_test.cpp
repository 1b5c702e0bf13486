#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "graph/csr.hpp"
#include "graph/stats.hpp"
#include "tests/testing/util.hpp"

namespace gnnbridge::graph {
namespace {

using tensor::Rng;

TEST(DiscreteSampler, RespectsWeights) {
  const std::vector<double> w{1.0, 0.0, 3.0};
  DiscreteSampler s(w);
  Rng rng(1);
  std::array<int, 3> counts{};
  for (int i = 0; i < 40000; ++i) counts[s.sample(rng)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(DiscreteSampler, SingleElement) {
  const std::vector<double> w{2.5};
  DiscreteSampler s(w);
  Rng rng(2);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(s.sample(rng), 0u);
}

TEST(PowerLawDegrees, HitsTargetMean) {
  const auto d = power_law_degrees(10000, 12.0, 0.8, 2000.0);
  const double mean = std::accumulate(d.begin(), d.end(), 0.0) / 10000.0;
  EXPECT_NEAR(mean, 12.0, 0.2);
}

TEST(PowerLawDegrees, RespectsCapAndFloor) {
  const auto d = power_law_degrees(1000, 8.0, 1.2, 300.0);
  for (double x : d) {
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 300.0);
  }
  // Skewed: the first (heaviest) node should sit at or near the cap.
  EXPECT_GT(d.front(), 100.0);
}

TEST(PowerLawDegrees, MonotoneNonIncreasing) {
  const auto d = power_law_degrees(500, 5.0, 0.9, 100.0);
  for (std::size_t i = 1; i < d.size(); ++i) EXPECT_LE(d[i], d[i - 1] + 1e-9);
}

TEST(ChungLu, ProducesValidSymmetricGraph) {
  Rng rng(7);
  const auto degrees = power_law_degrees(2000, 10.0, 0.7, 400.0);
  const Coo coo = chung_lu(degrees, rng);
  ASSERT_TRUE(valid(coo));
  // Symmetric: in-CSR equals out-CSR.
  const Csr in = csr_from_coo(coo);
  const Csr out = testing::transposed_csr(coo);
  EXPECT_EQ(in.row_ptr, out.row_ptr);
  EXPECT_EQ(in.col_idx, out.col_idx);
}

TEST(ChungLu, SkewedDegreesRealized) {
  Rng rng(8);
  const auto degrees = power_law_degrees(4000, 10.0, 0.8, 800.0);
  const Csr csr = csr_from_coo(chung_lu(degrees, rng));
  const DegreeStats s = degree_stats(csr);
  // The heavy head should realize a degree far above the mean.
  EXPECT_GT(static_cast<double>(s.max_degree), 10.0 * s.avg_degree);
  EXPECT_NEAR(s.avg_degree, 10.0, 3.0);
}

TEST(ChungLu, DeterministicPerSeed) {
  const auto degrees = power_law_degrees(500, 6.0, 0.7, 100.0);
  Rng a(3), b(3);
  const Coo g1 = chung_lu(degrees, a);
  const Coo g2 = chung_lu(degrees, b);
  EXPECT_EQ(g1.src, g2.src);
  EXPECT_EQ(g1.dst, g2.dst);
}

TEST(PlantedPartition, CommunityEdgesDominate) {
  Rng rng(11);
  const NodeId n = 1024, comm = 64;
  const Coo coo = planted_partition(n, comm, 20.0, 0.9, rng);
  ASSERT_TRUE(valid(coo));
  EdgeId within = 0;
  for (EdgeId i = 0; i < coo.num_edges(); ++i) {
    if (coo.src[i] / comm == coo.dst[i] / comm) ++within;
  }
  EXPECT_GT(static_cast<double>(within) / static_cast<double>(coo.num_edges()), 0.75);
}

TEST(PlantedPartition, MeanDegreeNearTarget) {
  Rng rng(12);
  const Csr csr = csr_from_coo(planted_partition(2000, 100, 30.0, 0.8, rng));
  const DegreeStats s = degree_stats(csr);
  // Duplicate draws get merged, so realized mean is a bit below target.
  EXPECT_GT(s.avg_degree, 18.0);
  EXPECT_LT(s.avg_degree, 32.0);
}

TEST(ErdosRenyi, LowDegreeVariance) {
  Rng rng(13);
  const Csr csr = csr_from_coo(erdos_renyi(3000, 12.0, rng));
  const DegreeStats s = degree_stats(csr);
  // Poisson-ish: variance close to the mean, nothing like a power law.
  EXPECT_LT(s.degree_variance, 3.0 * s.avg_degree);
  EXPECT_NEAR(s.avg_degree, 12.0, 2.0);
}

}  // namespace
}  // namespace gnnbridge::graph
