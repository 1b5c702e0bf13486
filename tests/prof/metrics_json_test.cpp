// Golden test locking the current gnnbridge-metrics JSON schema.
//
// The serialized document for a fixed RunRecord must match byte-for-byte:
// downstream consumers (prof::load_metrics_file and so `gnnbridge_cli
// check`/analyze/compare/stats, notebook readers) parse this schema, so any
// change here is a compatibility break and must come with a
// kMetricsSchemaVersion bump. The golden is spelled out here, apart from
// the field lists that write it, so it locks the format independently.
#include "prof/metrics_json.hpp"

#include <gtest/gtest.h>

#include <string>

#include "obs/registry.hpp"
#include "prof/json_reader.hpp"
#include "sim/counters.hpp"
#include "sim/device.hpp"
#include "tests/testing/golden.hpp"

namespace gnnbridge::prof {
namespace {

using testing::golden_record;

MetaInfo golden_meta() {
  return MetaInfo{.git_sha = "deadbee",
                  .timestamp = "2026-01-01T00:00:00Z",
                  .hostname = "goldenhost",
                  .scale_env = "0.25",
                  .threads = 8};
}

// Gap attribution for golden_record(), derivable by hand:
//   locality  = l2_misses * (dram - l2hit) / slots = 2 * 41/8   = 10.25
//   imbalance = makespan - balanced = 1.6e9 - 8e8               = 8e8
//   launch    = cycles - makespan = 2e9 - 1.6e9                 = 4e8
//   sync      = atomic + adapter cycles = 256 + 128             = 384
//   redundancy= (1024 + 512 + 256) / 16 flops-per-cycle         = 112
constexpr const char* kGolden =
    "{\"schema\":\"gnnbridge-metrics\",\"schema_version\":12,"
    "\"experiment\":\"golden\",\"scale\":0.25,"
    "\"meta\":{\"git_sha\":\"deadbee\",\"timestamp\":\"2026-01-01T00:00:00Z\","
    "\"hostname\":\"goldenhost\",\"scale_env\":\"0.25\",\"threads\":8},"
    "\"runs\":["
    "{\"label\":\"gcn/ours/collab\",\"model\":\"gcn\",\"backend\":\"ours\","
    "\"dataset\":\"collab\",\"ms\":1.5,\"oom\":false,"
    "\"device\":{\"num_sms\":2,\"max_blocks_per_sm\":4,\"clock_ghz\":2,"
    "\"l2_bytes\":1048576,\"line_bytes\":64,"
    "\"flops_per_cycle_per_block\":16,\"l2_hit_cycles_per_line\":22,"
    "\"dram_cycles_per_line\":63,\"kernel_launch_cycles\":5000,"
    "\"framework_overhead_cycles\":0},"
    "\"totals\":{\"cycles\":2000000000,\"launches\":1,\"flops\":2147483648,"
    "\"l2_hits\":6,\"l2_misses\":2,\"l2_hit_rate\":0.75,\"dram_bytes\":128,"
    "\"gflops\":2.147483648,\"issued_flops\":2147485440,\"global_syncs\":1,"
    "\"atomic_cycles\":256,\"atomic_bytes\":64,\"adapter_cycles\":128,"
    "\"adapter_bytes\":32,\"pad_flops\":1024,\"copy_flops\":512,"
    "\"tile_flops\":256,\"imbalance\":2,\"ghost_bytes\":0,"
    "\"exchange_syncs\":0,\"exchange_cycles\":0,\"shards\":1},"
    "\"kernels\":[{\"name\":\"spmm_node\",\"phase\":\"aggregation\","
    "\"blocks\":3,\"cycles\":2000000000,\"makespan\":1600000000,"
    "\"balanced\":800000000,\"l2_hits\":6,\"l2_misses\":2,"
    "\"l2_hit_rate\":0.75,\"dram_bytes\":128,\"flops\":2147483648,"
    "\"issued_flops\":2147485440,\"mean_active_blocks\":3,"
    "\"atomic_cycles\":256,\"atomic_bytes\":64,\"adapter_cycles\":128,"
    "\"adapter_bytes\":32,\"pad_flops\":1024,\"copy_flops\":512,"
    "\"tile_flops\":256,\"imbalance\":2}]}],"
    "\"gap_report\":["
    "{\"label\":\"gcn/ours/collab\",\"model\":\"gcn\",\"backend\":\"ours\","
    "\"dataset\":\"collab\",\"total_cycles\":2000000000,"
    "\"attributed_cycles\":1200000506.25,"
    "\"locality\":{\"cycles\":10.25,\"dram_bytes\":128,\"l2_hit_rate\":0.75},"
    "\"imbalance\":{\"cycles\":800000000,\"ratio\":2},"
    "\"launch_overhead\":{\"cycles\":400000000,\"launches\":1},"
    "\"synchronization\":{\"cycles\":384,\"global_syncs\":1,"
    "\"atomic_cycles\":256,\"atomic_bytes\":64,\"adapter_cycles\":128,"
    "\"adapter_bytes\":32},"
    "\"redundancy\":{\"cycles\":112,\"redundant_flops\":1792,"
    "\"pad_flops\":1024,\"copy_flops\":512,\"tile_flops\":256},"
    "\"inter_shard_traffic\":{\"cycles\":0,\"ghost_bytes\":0,"
    "\"exchange_syncs\":0,\"shards\":1}}],"
    "\"degradations\":[],"
    "\"telemetry\":{\"counters\":[],\"histograms\":[]}}\n";

TEST(MetricsJsonTest, GoldenDocumentLocksTheCurrentSchema) {
  MetricsSink& sink = MetricsSink::instance();
  sink.clear();
  sink.configure("golden", 0.25);
  sink.set_meta(golden_meta());
  sink.record(golden_record());
  EXPECT_EQ(sink.to_json(), kGolden);
  sink.clear();
}

TEST(MetricsJsonTest, DegradationEventsSerializeIntoTheirArray) {
  MetricsSink& sink = MetricsSink::instance();
  sink.clear();
  sink.configure("degraded", 1.0);
  rt::DegradationEvent ev;
  ev.seam = "las_cluster";
  ev.knob = "las";
  ev.action = "las->natural_order";
  ev.detail = "FAULT_INJECTED: injected fault at seam 'las_cluster'";
  ev.injected = true;
  sink.record_degradation(ev);
  EXPECT_EQ(sink.degradations().size(), 1u);
  const std::string doc = sink.to_json();
  EXPECT_TRUE(parse_json(doc).ok());
  EXPECT_NE(doc.find("\"degradations\":[{\"seam\":\"las_cluster\",\"knob\":\"las\","
                     "\"action\":\"las->natural_order\",\"detail\":\"FAULT_INJECTED: "
                     "injected fault at seam 'las_cluster'\",\"injected\":true}]"),
            std::string::npos);
  sink.clear();
  EXPECT_EQ(sink.degradations().size(), 0u);
}

TEST(MetricsJsonTest, MakeDegradationFlagsInjectedFaults) {
  const rt::Status injected(rt::StatusCode::kFaultInjected, "injected fault");
  const rt::Status real(rt::StatusCode::kUnavailable, "probe went sideways");
  EXPECT_TRUE(rt::make_degradation("tuner_probe", "auto_tune", "a->b", injected).injected);
  EXPECT_FALSE(rt::make_degradation("tuner_probe", "auto_tune", "a->b", real).injected);
}

TEST(MetricsJsonTest, GoldenDocumentIsValidJson) {
  MetricsSink& sink = MetricsSink::instance();
  sink.clear();
  sink.configure("golden", 0.25);
  sink.set_meta(golden_meta());
  sink.record(golden_record());
  const std::string doc = sink.to_json();
  const auto parsed = parse_json(doc);
  EXPECT_TRUE(parsed.ok()) << parsed.status().to_string();
  sink.clear();
}

TEST(MetricsJsonTest, EmptySinkStillEmitsSchemaEnvelope) {
  MetricsSink& sink = MetricsSink::instance();
  sink.clear();
  sink.configure("empty", 1.0);
  const std::string doc = sink.to_json();
  EXPECT_TRUE(parse_json(doc).ok());
  EXPECT_NE(doc.find("\"schema\":\"gnnbridge-metrics\""), std::string::npos);
  EXPECT_NE(doc.find("\"schema_version\":12"), std::string::npos);
  EXPECT_NE(doc.find("\"meta\":{"), std::string::npos);
  EXPECT_NE(doc.find("\"runs\":[]"), std::string::npos);
  EXPECT_NE(doc.find("\"gap_report\":[]"), std::string::npos);
  EXPECT_NE(doc.find("\"degradations\":[]"), std::string::npos);
  // Retired blocks stay retired: the serving counters live in `telemetry`,
  // which has no gauges.
  EXPECT_EQ(doc.find("\"robustness\""), std::string::npos);
  EXPECT_EQ(doc.find("\"overload\""), std::string::npos);
  EXPECT_EQ(doc.find("\"recovery\""), std::string::npos);
  EXPECT_EQ(doc.find("\"slo\""), std::string::npos);
  EXPECT_EQ(doc.find("\"gauges\""), std::string::npos);
  EXPECT_NE(doc.find("\"telemetry\":{\"counters\":[],\"histograms\":[]}"), std::string::npos);
}

TEST(MetricsJsonTest, TelemetryBlockCarriesRegistryInstruments) {
  MetricsSink& sink = MetricsSink::instance();
  sink.clear();  // also clears the telemetry registry
  sink.configure("telemetry", 1.0);
  obs::TelemetryRegistry& reg = sink.telemetry();
  reg.counter_add("serve.jobs", 3);
  reg.observe("serve.job_cycles", 1024.0);
  const std::string doc = sink.to_json();
  EXPECT_TRUE(parse_json(doc).ok());
  EXPECT_NE(doc.find("\"counters\":[{\"name\":\"serve.jobs\",\"value\":3}]"), std::string::npos);
  // Quantiles clamp to the exact tracked max, so a single observation
  // reports itself at every percentile.
  EXPECT_NE(doc.find("\"histograms\":[{\"name\":\"serve.job_cycles\",\"count\":1,"
                     "\"sum\":1024,\"min\":1024,\"max\":1024,\"p50\":1024,\"p90\":1024,"
                     "\"p99\":1024,\"buckets\":[{\"le\":"),
            std::string::npos);
  sink.clear();
  EXPECT_EQ(reg.snapshot().histograms.size(), 0u);
}

TEST(MetricsJsonTest, OomRunSerializesWithEmptyKernels) {
  MetricsSink& sink = MetricsSink::instance();
  sink.clear();
  sink.configure("oom", 1.0);
  RunRecord r;
  r.label = "gat/pyg/products";
  r.model = "gat";
  r.backend = "pyg";
  r.dataset = "products";
  r.oom = true;
  sink.record(r);
  const std::string doc = sink.to_json();
  EXPECT_TRUE(parse_json(doc).ok());
  EXPECT_NE(doc.find("\"oom\":true"), std::string::npos);
  EXPECT_NE(doc.find("\"kernels\":[]"), std::string::npos);
  // Degenerate rates serialize as zeros, never NaN/inf. A bare "nan"
  // substring would be legal inside a key or label, so match the value
  // positions a broken serializer would produce.
  EXPECT_NE(doc.find("\"l2_hit_rate\":0"), std::string::npos);
  EXPECT_EQ(doc.find(":nan"), std::string::npos);
  EXPECT_EQ(doc.find(",nan"), std::string::npos);
  EXPECT_EQ(doc.find(":inf"), std::string::npos);
  EXPECT_EQ(doc.find(",inf"), std::string::npos);
  EXPECT_EQ(doc.find("-nan"), std::string::npos);
  EXPECT_EQ(doc.find("-inf"), std::string::npos);
  sink.clear();
}

TEST(MetricsJsonTest, EscapesSpecialCharactersInLabels) {
  MetricsSink& sink = MetricsSink::instance();
  sink.clear();
  sink.configure("escape \"quotes\"\n", 1.0);
  RunRecord r;
  r.label = "a\"b\\c";
  sink.record(r);
  const std::string doc = sink.to_json();
  const auto parsed = parse_json(doc);
  EXPECT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_NE(doc.find("a\\\"b\\\\c"), std::string::npos);
  sink.clear();
}

}  // namespace
}  // namespace gnnbridge::prof
