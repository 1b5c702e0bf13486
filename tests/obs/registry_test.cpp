// TelemetryRegistry + Prometheus exposition (DESIGN.md §13): lexicographic
// snapshot order, thread-safe recording and the text-format shape
// Prometheus scrapers expect.
#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include <string>

#include "obs/prometheus.hpp"
#include "par/thread_pool.hpp"

namespace gnnbridge::obs {
namespace {

class RegistryTest : public ::testing::Test {
 protected:
  void TearDown() override { par::set_max_threads(0); }
};

TEST_F(RegistryTest, SnapshotOrderIsLexicographicNotInsertion) {
  TelemetryRegistry reg;
  reg.counter_add("serve.zeta", 1);
  reg.counter_add("serve.alpha", 2);
  reg.counter_add("serve.mid", 3);
  reg.observe("lat.y", 4.0);
  reg.observe("lat.x", 8.0);

  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "serve.alpha");
  EXPECT_EQ(snap.counters[1].first, "serve.mid");
  EXPECT_EQ(snap.counters[2].first, "serve.zeta");
  ASSERT_EQ(snap.histograms.size(), 2u);
  EXPECT_EQ(snap.histograms[0].first, "lat.x");
  EXPECT_EQ(snap.histograms[1].first, "lat.y");
}

TEST_F(RegistryTest, CountersAccumulate) {
  TelemetryRegistry reg;
  reg.counter_add("c", 3);
  reg.counter_add("c", 4);
  EXPECT_EQ(reg.counter_value("c"), 7u);
  EXPECT_EQ(reg.counter_value("absent"), 0u);
  EXPECT_EQ(reg.snapshot().counters.size(), 1u);
}

TEST_F(RegistryTest, CountersAndHistogramSumsAccumulate) {
  TelemetryRegistry reg;
  reg.counter_add("c", 8);
  reg.observe("h", 1024.0);
  reg.counter_add("c", 4);
  reg.observe("h", 512.0);
  EXPECT_EQ(reg.counter_value("c"), 12u);
  EXPECT_EQ(reg.histogram_snapshot("h").count, 2u);
  EXPECT_EQ(reg.histogram_snapshot("h").sum, 1536.0);
  EXPECT_EQ(reg.snapshot().counters.size(), 1u);
  EXPECT_EQ(reg.snapshot().histograms.size(), 1u);
}

TEST_F(RegistryTest, ConcurrentCounterAddsLoseNothing) {
  TelemetryRegistry reg;
  par::set_max_threads(8);
  par::parallel_chunks(10000, /*grain=*/64,
                       [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) {
                           reg.counter_add("parallel.adds", 1);
                         }
                       });
  EXPECT_EQ(reg.counter_value("parallel.adds"), 10000u);
}

TEST_F(RegistryTest, PrometheusNamesAreSanitizedAndPrefixed) {
  EXPECT_EQ(prometheus_name("serve.job_cycles"), "gnnbridge_serve_job_cycles");
  EXPECT_EQ(prometheus_name("a-b c/d"), "gnnbridge_a_b_c_d");
}

TEST_F(RegistryTest, PrometheusExpositionHasTypedCumulativeSeries) {
  TelemetryRegistry reg;
  reg.counter_add("serve.jobs", 5);
  // 1.9 lands in the [2^0.75, 2) bucket and 1000 in [2^9.75, 1024) — both
  // bucket uppers are exact powers of two, so the le labels are clean.
  reg.observe("serve.job_cycles", 1.9);
  reg.observe("serve.job_cycles", 1.9);
  reg.observe("serve.job_cycles", 1000.0);

  const std::string text = render_prometheus(reg.snapshot());
  EXPECT_NE(text.find("# TYPE gnnbridge_serve_jobs counter\n"
                      "gnnbridge_serve_jobs 5\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE gnnbridge_serve_job_cycles histogram\n"), std::string::npos);
  // Bucket series are cumulative and end with the +Inf catch-all equal to
  // the total count, then _sum and _count.
  EXPECT_NE(text.find("gnnbridge_serve_job_cycles_bucket{le=\"2\"} 2\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("gnnbridge_serve_job_cycles_bucket{le=\"1024\"} 3\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("gnnbridge_serve_job_cycles_bucket{le=\"+Inf\"} 3\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("gnnbridge_serve_job_cycles_sum 1003.8\n"), std::string::npos) << text;
  EXPECT_NE(text.find("gnnbridge_serve_job_cycles_count 3\n"), std::string::npos) << text;
}

TEST_F(RegistryTest, ClearEmptiesEveryInstrumentKind) {
  TelemetryRegistry reg;
  reg.counter_add("c", 1);
  reg.observe("h", 1.0);
  reg.clear();
  EXPECT_EQ(reg.snapshot().counters.size(), 0u);
  EXPECT_EQ(reg.snapshot().histograms.size(), 0u);
  EXPECT_TRUE(render_prometheus(reg.snapshot()).empty());
}

}  // namespace
}  // namespace gnnbridge::obs
