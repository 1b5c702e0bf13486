// Gap-attribution profiler tests: golden attribution numbers for a
// hand-built run (locking the acceptance numbers the paper-gap tables are
// derived from), comparison math, and the serialize -> load_metrics_file ->
// re-attribute round trip that `gnnbridge_cli analyze/compare` rely on.
#include "prof/gap_report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>

#include "obs/registry.hpp"
#include "prof/fields.hpp"
#include "prof/json_reader.hpp"
#include "prof/metrics_json.hpp"
#include "sim/counters.hpp"
#include "sim/device.hpp"
#include "tests/testing/golden.hpp"

namespace gnnbridge::prof {
namespace {

using testing::golden_record;

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
  EXPECT_EQ(g.costs.atomic_bytes, 64u);
  EXPECT_EQ(g.costs.adapter_bytes, 32u);
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
  sink.record_degradation(rt::make_degradation(
      "las_cluster", "las", "las->natural_order",
      rt::Status(rt::StatusCode::kFaultInjected, "injected fault at seam 'las_cluster'")));
  sink.telemetry().counter_add("serve.jobs", 2);
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
  EXPECT_EQ(reloaded.costs.atomic_bytes, direct.costs.atomic_bytes);
  EXPECT_EQ(reloaded.costs.adapter_bytes, direct.costs.adapter_bytes);
  EXPECT_EQ(reloaded.global_syncs, direct.global_syncs);

  // The rest of the document reads back through the same field lists.
  ASSERT_EQ(loaded->gap_report.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded->gap_report[0].locality_cycles, direct.locality_cycles);
  EXPECT_DOUBLE_EQ(loaded->gap_report[0].attributed_cycles(), direct.attributed_cycles());
  EXPECT_EQ(loaded->gap_report[0].shards, 1);
  ASSERT_EQ(loaded->degradations.size(), 1u);
  EXPECT_EQ(loaded->degradations[0].knob, "las");
  EXPECT_TRUE(loaded->degradations[0].injected);
  ASSERT_EQ(loaded->telemetry.counters.size(), 1u);
  EXPECT_EQ(loaded->telemetry.counters[0].second, 2u);
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
  ASSERT_EQ(v.members.size(), 5u);
  EXPECT_DOUBLE_EQ(v.members[0].second.number_value, 1.5);
  EXPECT_EQ(v.str_or("b", ""), "x\"y\\z");
  const JsonValue* c = v.find("c");
  ASSERT_NE(c, nullptr);
  ASSERT_TRUE(c->is_array());
  ASSERT_EQ(c->items.size(), 3u);
  EXPECT_DOUBLE_EQ(c->items[2].number_value, 3.0);
  const JsonValue* d = v.find("d");
  ASSERT_NE(d, nullptr);
  ASSERT_EQ(d->members.size(), 2u);
  EXPECT_TRUE(d->members[0].second.bool_value);
  EXPECT_EQ(d->members[1].second.kind, JsonValue::Kind::kNull);
  EXPECT_DOUBLE_EQ(v.members[4].second.number_value, -8.0);
}

TEST(JsonReaderTest, TypedGettersFallBackOnMissingOrMistyped) {
  auto r = parse_json(R"({"s":"text","n":4})");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->str_or("s", "dflt"), "text");
  EXPECT_EQ(r->str_or("n", "dflt"), "dflt");  // mistyped
  EXPECT_EQ(r->str_or("missing", "dflt"), "dflt");
  EXPECT_EQ(r->find("missing"), nullptr);
}

/// Reads member "n" of `{"n":<number>}` into `out` through a one-field list.
template <typename T>
rt::Status read_n(const std::string& number, T& out) {
  auto r = parse_json("{\"n\":" + number + "}");
  if (!r.ok()) return r.status();
  return read_record(*r, "", out, [](auto& v, auto& x) { v.field("n", x); });
}

TEST(JsonReaderTest, NegativeNumberNeverBecomesHugeUnsigned) {
  std::uint64_t n = 9;
  EXPECT_EQ(read_n("-5", n).message(), "n: integer out of range");
  EXPECT_EQ(n, 9u);
}

TEST(JsonReaderTest, OutOfRangeNumbersAreRejected) {
  // 1e999 parses as +inf; 18446744073709551616 is 2^64, one past the
  // largest uint64. None of them fits an integer field, and the reader
  // rejects rather than converts (which would be undefined behaviour).
  for (const char* n : {"1e30", "-1e30", "1e999", "18446744073709551616"}) {
    std::int64_t i = 7;
    std::uint64_t u = 9;
    EXPECT_EQ(read_n(n, i).code(), rt::StatusCode::kDataLoss) << n;
    EXPECT_EQ(read_n(n, u).code(), rt::StatusCode::kDataLoss) << n;
    EXPECT_EQ(i, 7) << n;
    EXPECT_EQ(u, 9u) << n;
  }
  double d = 0.0;
  EXPECT_EQ(read_n("1e999", d).message(), "n: non-finite number");
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

// RFC 8259 numbers: an optional minus, no leading zeros or '+', and
// digits on both sides of a '.' and after an 'e'.
TEST(JsonReaderTest, RejectsNumbersRfc8259Rejects) {
  for (const char* bad :
       {"+1", "01", "-01", "00", ".5", "-.5", "1.", "1.e3", "-", "1e", "1e+", "--1", "0x10"}) {
    const auto r = parse_json(bad);
    EXPECT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), rt::StatusCode::kDataLoss) << bad;
  }
}

TEST(JsonReaderTest, RejectsRawControlCharactersInStrings) {
  for (const char* bad : {"\"a\nb\"", "\"a\tb\"", "\"a\x01b\"", "{\"k\x1f\":1}"}) {
    const auto r = parse_json(bad);
    EXPECT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), rt::StatusCode::kDataLoss) << bad;
  }
  const auto escaped = parse_json(R"("a\nb\t\u0001")");
  ASSERT_TRUE(escaped.ok()) << escaped.status().to_string();
  EXPECT_EQ(escaped->string_value, "a\nb\t\x01");
}

TEST(JsonReaderTest, NumbersRecordWhetherTheTokenWasAnInteger) {
  const auto r = parse_json("[5, -0, 5.0, 5e0, 1E2, 0.5, -12]");
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  const bool integer[] = {true, true, false, false, false, false, true};
  const double value[] = {5.0, 0.0, 5.0, 5.0, 100.0, 0.5, -12.0};
  ASSERT_EQ(r->items.size(), 7u);
  for (std::size_t i = 0; i < r->items.size(); ++i) {
    EXPECT_EQ(r->items[i].integer, integer[i]) << i;
    EXPECT_EQ(r->items[i].number_value, value[i]) << i;
  }
}

TEST(JsonReaderTest, UnicodeEscapesDecodeToUtf8) {
  auto r = parse_json(R"({"s":"\u00e9A"})");
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->str_or("s", ""), "\xc3\xa9""A");
}

}  // namespace
}  // namespace gnnbridge::prof
