// Partitioned execution (DESIGN.md §16): the sharded GCN/GAT pipelines
// must be bit-identical to the unsharded engine — same output floats, and
// a metrics document that is byte-identical at any host thread count —
// while pricing the per-layer ghost exchange as the inter-shard-traffic
// counters.
#include <gtest/gtest.h>

#include <string>

#include "engine/engine.hpp"
#include "graph/datasets.hpp"
#include "par/thread_pool.hpp"
#include "prof/metrics_json.hpp"
#include "tests/testing/util.hpp"

namespace gnnbridge {
namespace {

using engine::EngineConfig;
using engine::OptimizedEngine;
using kernels::ExecMode;

class ShardDeterminism : public ::testing::Test {
 protected:
  void TearDown() override { par::set_max_threads(0); }
};

struct Inputs {
  graph::Dataset collab = graph::make_dataset(graph::DatasetId::kCollab, 0.02);
  models::GcnConfig gcn_cfg;
  models::GatConfig gat_cfg;
  models::GcnParams gcn_params;
  models::GatParams gat_params;
  models::Matrix x;

  Inputs() {
    gcn_cfg.dims = {32, 16, 8};
    gat_cfg.dims = {32, 16};
    gcn_params = models::init_gcn(gcn_cfg, 1);
    gat_params = models::init_gat(gat_cfg, 2);
    x = models::init_features(collab.csr.num_nodes, 32, 4);
  }
};

const Inputs& inputs() {
  static const Inputs* in = new Inputs();
  return *in;
}

EngineConfig sharded_cfg(int k) {
  EngineConfig cfg;
  cfg.shards = k;
  return cfg;
}

// ---- Bit-identity: sharded kFull outputs equal the unsharded engine's,
// float for float (operator== on the backing vectors, no tolerance).

TEST_F(ShardDeterminism, GcnOutputBitIdenticalAtK4) {
  const Inputs& in = inputs();
  OptimizedEngine plain;
  OptimizedEngine sharded(sharded_cfg(4));
  const auto r0 = plain.run_gcn(in.collab, {&in.gcn_cfg, &in.gcn_params, &in.x}, ExecMode::kFull,
                                sim::v100());
  const auto r4 = sharded.run_gcn(in.collab, {&in.gcn_cfg, &in.gcn_params, &in.x},
                                  ExecMode::kFull, sim::v100());
  ASSERT_TRUE(r0.status.ok()) << r0.status.to_string();
  ASSERT_TRUE(r4.status.ok()) << r4.status.to_string();
  EXPECT_TRUE(r0.output == r4.output) << "sharded GCN output drifted from unsharded";
  EXPECT_EQ(sharded.shard_plan_cache_size(), 1u);
}

TEST_F(ShardDeterminism, GcnOutputBitIdenticalUnfused) {
  const Inputs& in = inputs();
  EngineConfig base;
  base.use_adapter = false;  // spmm + bias_add + relu path
  EngineConfig shard4 = base;
  shard4.shards = 4;
  OptimizedEngine plain(base);
  OptimizedEngine sharded(shard4);
  const auto r0 = plain.run_gcn(in.collab, {&in.gcn_cfg, &in.gcn_params, &in.x}, ExecMode::kFull,
                                sim::v100());
  const auto r4 = sharded.run_gcn(in.collab, {&in.gcn_cfg, &in.gcn_params, &in.x},
                                  ExecMode::kFull, sim::v100());
  ASSERT_TRUE(r0.status.ok());
  ASSERT_TRUE(r4.status.ok());
  EXPECT_TRUE(r0.output == r4.output);
}

TEST_F(ShardDeterminism, GatOutputBitIdenticalAtK4) {
  const Inputs& in = inputs();
  OptimizedEngine plain;
  OptimizedEngine sharded(sharded_cfg(4));
  const auto r0 = plain.run_gat(in.collab, {&in.gat_cfg, &in.gat_params, &in.x}, ExecMode::kFull,
                                sim::v100());
  const auto r4 = sharded.run_gat(in.collab, {&in.gat_cfg, &in.gat_params, &in.x},
                                  ExecMode::kFull, sim::v100());
  ASSERT_TRUE(r0.status.ok()) << r0.status.to_string();
  ASSERT_TRUE(r4.status.ok()) << r4.status.to_string();
  EXPECT_TRUE(r0.output == r4.output) << "sharded GAT output drifted from unsharded";
}

TEST_F(ShardDeterminism, GatOutputBitIdenticalWithoutLinearProperty) {
  const Inputs& in = inputs();
  EngineConfig base;
  base.use_linear = false;  // fused-without-postponement pipeline
  EngineConfig shard3 = base;
  shard3.shards = 3;
  OptimizedEngine plain(base);
  OptimizedEngine sharded(shard3);
  const auto r0 = plain.run_gat(in.collab, {&in.gat_cfg, &in.gat_params, &in.x}, ExecMode::kFull,
                                sim::v100());
  const auto r3 = sharded.run_gat(in.collab, {&in.gat_cfg, &in.gat_params, &in.x},
                                  ExecMode::kFull, sim::v100());
  ASSERT_TRUE(r0.status.ok());
  ASSERT_TRUE(r3.status.ok());
  EXPECT_TRUE(r0.output == r3.output);
}

// ---- Exchange pricing: the new counters are live and consistent.

TEST_F(ShardDeterminism, ExchangeCountersPriced) {
  const Inputs& in = inputs();
  OptimizedEngine plain;
  OptimizedEngine sharded(sharded_cfg(4));
  const auto r0 = plain.run_gcn(in.collab, {&in.gcn_cfg, &in.gcn_params, &in.x},
                                ExecMode::kSimulateOnly, sim::v100());
  const auto r4 = sharded.run_gcn(in.collab, {&in.gcn_cfg, &in.gcn_params, &in.x},
                                  ExecMode::kSimulateOnly, sim::v100());
  ASSERT_TRUE(r4.status.ok()) << r4.status.to_string();
  // Unsharded runs price no exchange.
  EXPECT_EQ(r0.stats.shards, 1);
  EXPECT_EQ(r0.stats.ghost_bytes, 0u);
  EXPECT_EQ(r0.stats.exchange_syncs, 0u);
  EXPECT_DOUBLE_EQ(r0.stats.exchange_cycles, 0.0);
  // Sharded: one exchange rendezvous per layer, nonzero ghost traffic,
  // exchange cycles folded into both the gap counter and the clock.
  EXPECT_EQ(r4.stats.shards, 4);
  EXPECT_EQ(r4.stats.exchange_syncs,
            static_cast<std::uint64_t>(in.gcn_cfg.dims.size() - 1));
  EXPECT_GT(r4.stats.ghost_bytes, 0u);
  EXPECT_GT(r4.stats.exchange_cycles, 0.0);
  EXPECT_LT(r4.stats.exchange_cycles, r4.stats.total_cycles);
  // SimulateOnly and kFull price identically (traces are value-blind).
  const auto rf = OptimizedEngine(sharded_cfg(4))
                      .run_gcn(in.collab, {&in.gcn_cfg, &in.gcn_params, &in.x}, ExecMode::kFull,
                               sim::v100());
  EXPECT_DOUBLE_EQ(rf.stats.total_cycles, r4.stats.total_cycles);
  EXPECT_EQ(rf.stats.ghost_bytes, r4.stats.ghost_bytes);
}

TEST_F(ShardDeterminism, ShardsClampToNodeCount) {
  // More shards than nodes: the plan clamps, the run still matches.
  graph::Dataset tiny;
  tiny.name = "tiny";
  tiny.csr = testing::random_graph(12, 3.0, 9);
  models::GcnConfig cfg;
  cfg.dims = {8, 4};
  const models::GcnParams params = models::init_gcn(cfg, 3);
  const models::Matrix x = models::init_features(tiny.csr.num_nodes, 8, 5);
  OptimizedEngine plain;
  OptimizedEngine sharded(sharded_cfg(64));
  const auto r0 = plain.run_gcn(tiny, {&cfg, &params, &x}, ExecMode::kFull, sim::v100());
  const auto rk = sharded.run_gcn(tiny, {&cfg, &params, &x}, ExecMode::kFull, sim::v100());
  ASSERT_TRUE(rk.status.ok()) << rk.status.to_string();
  EXPECT_TRUE(r0.output == rk.output);
  EXPECT_EQ(rk.stats.shards, 12);
}

// ---- Thread-count determinism: the full metrics document of a sharded
// run — every per-shard kernel record, every exchange counter, the gap
// attribution — must be byte-identical at 1, 2, 3, 4 and 8 host threads.

std::string run_sharded_and_serialize() {
  const Inputs& in = inputs();
  OptimizedEngine e(sharded_cfg(4));
  prof::MetricsSink& sink = prof::MetricsSink::instance();
  sink.clear();
  sink.configure("shard-determinism", 0.02);
  sink.set_meta(prof::MetaInfo{.git_sha = "fixed",
                               .timestamp = "2026-01-01T00:00:00Z",
                               .hostname = "fixed",
                               .scale_env = "0.02",
                               .threads = 0});
  const auto record = [&](const char* model, const baselines::RunResult& r) {
    EXPECT_TRUE(r.status.ok()) << model << ": " << r.status.to_string();
    sink.record({.label = std::string(model) + "/ours-sharded/" + in.collab.name,
                 .model = model,
                 .backend = "ours",
                 .dataset = in.collab.name,
                 .ms = r.ms,
                 .oom = r.oom,
                 .stats = r.stats,
                 .spec = sim::v100()});
  };
  record("gcn", e.run_gcn(in.collab, {&in.gcn_cfg, &in.gcn_params, &in.x},
                          ExecMode::kSimulateOnly, sim::v100()));
  record("gat", e.run_gat(in.collab, {&in.gat_cfg, &in.gat_params, &in.x},
                          ExecMode::kSimulateOnly, sim::v100()));
  std::string doc = sink.to_json();
  sink.clear();
  return doc;
}

TEST_F(ShardDeterminism, MetricsDocumentByteIdenticalAt1_2_3_4_8Threads) {
  par::set_max_threads(1);
  const std::string serial = run_sharded_and_serialize();
  ASSERT_FALSE(serial.empty());
  EXPECT_NE(serial.find("ghost_bytes"), std::string::npos);
  // 3 and 4 included: races that 2 and 8 threads happen not to expose
  // have surfaced there.
  for (int threads : {2, 3, 4, 8}) {
    par::set_max_threads(threads);
    const std::string parallel = run_sharded_and_serialize();
    EXPECT_EQ(parallel, serial) << "at " << threads << " threads";
  }
}

}  // namespace
}  // namespace gnnbridge
