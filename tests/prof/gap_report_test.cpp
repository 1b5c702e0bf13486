// Gap-attribution profiler tests: golden attribution numbers for a
// hand-built run (locking the acceptance numbers the paper-gap tables are
// derived from), comparison math, and the serialize -> load_metrics_file ->
// re-attribute round trip that `gnnbridge_cli analyze/compare` rely on.
#include "prof/gap_report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>

#include "prof/json_reader.hpp"
#include "prof/metrics_json.hpp"
#include "sim/counters.hpp"
#include "sim/device.hpp"

namespace gnnbridge::prof {
namespace {

// Mirrors the golden record in metrics_json_test.cpp: every quantity is a
// power of two (or exactly representable), so attribution is exact.
RunRecord golden_record() {
  sim::KernelStats k;
  k.name = "spmm_node";
  k.phase = "aggregation";
  k.num_blocks = 3;
  k.l2_hits = 6;
  k.l2_misses = 2;
  k.dram_bytes = 128;
  k.flops = 2147483648.0;         // 2^31
  k.issued_flops = 2147485440.0;  // flops + pad + copy + tile
  k.cycles = 2.0e9;
  k.makespan = 1.6e9;
  k.balanced = 8.0e8;
  k.atomic_cycles = 256.0;
  k.atomic_bytes = 64;
  k.adapter_cycles = 128.0;
  k.adapter_bytes = 32;
  k.pad_flops = 1024.0;
  k.copy_flops = 512.0;
  k.tile_flops = 256.0;

  sim::RunStats stats;
  stats.kernels.push_back(k);
  stats.total_cycles = 2.0e9;
  stats.global_syncs = 1;

  sim::DeviceSpec spec;
  spec.num_sms = 2;
  spec.max_blocks_per_sm = 4;  // 8 slots
  spec.clock_ghz = 2.0;
  spec.l2_bytes = 1 << 20;
  spec.line_bytes = 64;

  return RunRecord{.label = "gcn/ours/collab",
                   .model = "gcn",
                   .backend = "ours",
                   .dataset = "collab",
                   .ms = 1.5,
                   .oom = false,
                   .stats = stats,
                   .spec = spec};
}

TEST(GapReportTest, GoldenAttributionNumbers) {
  const RunRecord rec = golden_record();
  const GapBreakdown g = attribute_gaps(rec);
  EXPECT_EQ(g.label, "gcn/ours/collab");
  EXPECT_EQ(g.backend, "ours");
  EXPECT_DOUBLE_EQ(g.total_cycles, 2.0e9);
  // locality: 2 misses x (63 - 22) / 8 slots = 10.25.
  EXPECT_DOUBLE_EQ(g.locality_cycles, 10.25);
  EXPECT_EQ(g.dram_bytes, 128u);
  EXPECT_DOUBLE_EQ(g.l2_hit_rate, 0.75);
  // imbalance: makespan - balanced.
  EXPECT_DOUBLE_EQ(g.imbalance_cycles, 8.0e8);
  EXPECT_DOUBLE_EQ(g.imbalance_ratio, 2.0);
  // launch overhead: cycles - makespan.
  EXPECT_DOUBLE_EQ(g.launch_cycles, 4.0e8);
  EXPECT_EQ(g.launches, 1);
  // synchronization: atomic + adapter cycles.
  EXPECT_DOUBLE_EQ(g.sync_cycles, 384.0);
  EXPECT_EQ(g.global_syncs, 1u);
  EXPECT_EQ(g.atomic_bytes, 64u);
  EXPECT_EQ(g.adapter_bytes, 32u);
  // redundancy: (1024 + 512 + 256) / 16 flops-per-cycle = 112.
  EXPECT_DOUBLE_EQ(g.redundancy_cycles, 112.0);
  EXPECT_DOUBLE_EQ(g.redundant_flops, 1792.0);
  EXPECT_DOUBLE_EQ(g.attributed_cycles(), 1200000506.25);
}

TEST(GapReportTest, EmptyRunAttributesNothing) {
  sim::RunStats stats;
  const GapBreakdown g = attribute_gaps(stats, sim::v100());
  EXPECT_DOUBLE_EQ(g.attributed_cycles(), 0.0);
  EXPECT_DOUBLE_EQ(g.imbalance_ratio, 1.0);
  EXPECT_EQ(g.launches, 0);
}

TEST(GapReportTest, CompareOrdersTheSixGapsAndComputesRecovery) {
  GapBreakdown base = attribute_gaps(golden_record());
  GapBreakdown opt = base;
  opt.locality_cycles = 0.25;
  opt.imbalance_cycles = 2.0e8;
  opt.launch_cycles = 1.0e8;
  opt.sync_cycles = 96.0;
  opt.redundancy_cycles = 28.0;
  opt.total_cycles = 1.0e9;
  const GapComparison c = compare_gaps(base, opt);
  ASSERT_EQ(c.gaps.size(), 6u);
  EXPECT_EQ(c.gaps[0].gap, "locality");
  EXPECT_EQ(c.gaps[1].gap, "imbalance");
  EXPECT_EQ(c.gaps[2].gap, "launch_overhead");
  EXPECT_EQ(c.gaps[3].gap, "synchronization");
  EXPECT_EQ(c.gaps[4].gap, "redundancy");
  EXPECT_EQ(c.gaps[5].gap, "inter_shard_traffic");
  EXPECT_DOUBLE_EQ(c.gaps[0].recovered(), 10.0);
  EXPECT_DOUBLE_EQ(c.gaps[1].recovered(), 6.0e8);
  EXPECT_DOUBLE_EQ(c.gaps[1].recovered_frac(), 0.75);
  EXPECT_DOUBLE_EQ(c.gaps[3].recovered(), 288.0);
  EXPECT_DOUBLE_EQ(c.gaps[4].recovered(), 84.0);
  EXPECT_DOUBLE_EQ(c.gaps[5].recovered(), 0.0);  // unsharded golden record
  EXPECT_DOUBLE_EQ(c.total.recovered(), 1.0e9);
  EXPECT_DOUBLE_EQ(c.speedup(), 2.0);
}

TEST(GapReportTest, RecoveredFracZeroBaselineIsZeroNotNan) {
  GapDelta d{"locality", 0.0, 0.0};
  EXPECT_DOUBLE_EQ(d.recovered_frac(), 0.0);
}

TEST(GapReportTest, RenderedTablesNameEveryGap) {
  const GapBreakdown g = attribute_gaps(golden_record());
  const std::string table = render_gap_table(g);
  for (const char* gap :
       {"locality", "imbalance", "launch overhead", "synchronization", "redundancy",
        "inter-shard"}) {
    EXPECT_NE(table.find(gap), std::string::npos) << gap << "\n" << table;
  }
  const std::string cmp = render_compare_table(compare_gaps(g, g));
  EXPECT_NE(cmp.find("speedup"), std::string::npos);
  EXPECT_NE(cmp.find("recovered"), std::string::npos);
}

TEST(GapReportTest, SerializedDocumentRoundTripsThroughLoader) {
  MetricsSink& sink = MetricsSink::instance();
  sink.clear();
  sink.configure("roundtrip", 0.25);
  sink.set_meta(MetaInfo{.git_sha = "deadbee",
                         .timestamp = "2026-01-01T00:00:00Z",
                         .hostname = "goldenhost",
                         .scale_env = "0.25"});
  sink.record(golden_record());
  const std::string path = ::testing::TempDir() + "/gap_roundtrip_metrics.json";
  ASSERT_TRUE(sink.write_file(path).ok());
  sink.clear();

  auto loaded = load_metrics_file(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->schema_version, kMetricsSchemaVersion);
  EXPECT_EQ(loaded->experiment, "roundtrip");
  ASSERT_EQ(loaded->runs.size(), 1u);

  // All golden quantities are exactly representable, so re-attribution on
  // the loaded record reproduces attribute_gaps on the original exactly.
  const GapBreakdown direct = attribute_gaps(golden_record());
  const GapBreakdown reloaded = attribute_gaps(loaded->runs[0]);
  EXPECT_EQ(reloaded.label, direct.label);
  EXPECT_DOUBLE_EQ(reloaded.total_cycles, direct.total_cycles);
  EXPECT_DOUBLE_EQ(reloaded.locality_cycles, direct.locality_cycles);
  EXPECT_DOUBLE_EQ(reloaded.imbalance_cycles, direct.imbalance_cycles);
  EXPECT_DOUBLE_EQ(reloaded.launch_cycles, direct.launch_cycles);
  EXPECT_DOUBLE_EQ(reloaded.sync_cycles, direct.sync_cycles);
  EXPECT_DOUBLE_EQ(reloaded.redundancy_cycles, direct.redundancy_cycles);
  EXPECT_EQ(reloaded.atomic_bytes, direct.atomic_bytes);
  EXPECT_EQ(reloaded.adapter_bytes, direct.adapter_bytes);
  EXPECT_EQ(reloaded.global_syncs, direct.global_syncs);
  std::remove(path.c_str());
}

TEST(GapReportTest, LoaderRejectsWrongSchemaAndMissingFile) {
  const std::string path = ::testing::TempDir() + "/gap_bad_metrics.json";
  // A foreign schema, and a document of a version nothing writes any more.
  const std::pair<std::string, std::string> cases[] = {
      {"{\"schema\":\"something-else\",\"schema_version\":3}", "not a gnnbridge-metrics"},
      {"{\"schema\":\"gnnbridge-metrics\",\"schema_version\":11,\"runs\":[]}",
       "unsupported schema_version 11"}};
  for (const auto& [doc, why] : cases) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    const auto loaded = load_metrics_file(path);
    EXPECT_EQ(loaded.status().code(), rt::StatusCode::kDataLoss) << doc;
    EXPECT_NE(loaded.status().message().find(why), std::string::npos)
        << loaded.status().to_string();
  }
  std::remove(path.c_str());
  EXPECT_EQ(load_metrics_file("/no/such/dir/metrics.json").status().code(),
            rt::StatusCode::kNotFound);
}

TEST(JsonReaderTest, ParsesScalarsArraysAndNestedObjects) {
  auto r = parse_json(
      R"({"a":1.5,"b":"x\"y\\z","c":[1,2,3],"d":{"e":true,"f":null},"neg":-8})");
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  const JsonValue& v = *r;
  EXPECT_DOUBLE_EQ(v.num_or("a", 0.0), 1.5);
  EXPECT_EQ(v.str_or("b", ""), "x\"y\\z");
  const JsonValue* c = v.find("c");
  ASSERT_NE(c, nullptr);
  ASSERT_TRUE(c->is_array());
  ASSERT_EQ(c->items.size(), 3u);
  EXPECT_DOUBLE_EQ(c->items[2].number_value, 3.0);
  const JsonValue* d = v.find("d");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->bool_or("e", false));
  EXPECT_EQ(d->find("f")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v.int_or("neg", 0), -8);
}

TEST(JsonReaderTest, TypedGettersFallBackOnMissingOrMistyped) {
  auto r = parse_json(R"({"s":"text","n":4})");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->num_or("s", 7.5), 7.5);    // mistyped
  EXPECT_DOUBLE_EQ(r->num_or("missing", 2.5), 2.5);
  EXPECT_EQ(r->str_or("n", "dflt"), "dflt");
  EXPECT_EQ(r->uint_or("n", 0), 4u);
}

TEST(JsonReaderTest, NegativeNumberNeverBecomesHugeUnsigned) {
  auto r = parse_json(R"({"n":-5})");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->uint_or("n", 9), 9u);  // falls back rather than wrapping
}

TEST(JsonReaderTest, OutOfRangeNumbersFallBack) {
  // 1e999 parses as +inf; 18446744073709551616 is 2^64, one past the
  // largest uint64. None of them fits the integer getters' target type.
  for (const char* n : {"1e30", "-1e30", "1e999", "18446744073709551616"}) {
    auto r = parse_json(std::string("{\"n\":") + n + "}");
    ASSERT_TRUE(r.ok()) << n;
    EXPECT_EQ(r->int_or("n", 7), 7) << n;
    EXPECT_EQ(r->uint_or("n", 9), 9u) << n;
  }
}

TEST(JsonReaderTest, MalformedDocumentsReportDataLoss) {
  for (const char* bad : {"{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "{}extra"}) {
    auto r = parse_json(bad);
    EXPECT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), rt::StatusCode::kDataLoss) << bad;
  }
}

TEST(JsonReaderTest, DepthLimitStopsRunawayNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  auto r = parse_json(deep);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), rt::StatusCode::kDataLoss);
}

TEST(JsonReaderTest, UnicodeEscapesDecodeToUtf8) {
  auto r = parse_json(R"({"s":"\u00e9A"})");
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->str_or("s", ""), "\xc3\xa9""A");
}

}  // namespace
}  // namespace gnnbridge::prof
