// Cross-thread-count determinism: the contract of DESIGN.md §11.
//
// The full optimized engine (LAS + neighbor grouping + adapter + tuner)
// and the DGL-style backend, which share the layer library, must produce
// byte-identical metrics documents — every counter, every kernel, every
// gap attribution — at 1, 2, 3, 4 and 8 host threads. Only meta.threads
// (pinned here so the documents compare equal) and wall-clock time may
// differ. run_batch must likewise match sequential execution.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/dgl.hpp"
#include "engine/engine.hpp"
#include "graph/datasets.hpp"
#include "par/thread_pool.hpp"
#include "prof/metrics_json.hpp"

namespace gnnbridge {
namespace {

using engine::EngineConfig;
using engine::OptimizedEngine;
using kernels::ExecMode;

class ThreadCountDeterminism : public ::testing::Test {
 protected:
  void TearDown() override { par::set_max_threads(0); }
};

// Shared inputs, built once: both thread-count sweeps and the batch test
// must see identical graphs and weights.
struct Inputs {
  graph::Dataset collab = graph::make_dataset(graph::DatasetId::kCollab, 0.02);
  graph::Dataset arxiv = graph::make_dataset(graph::DatasetId::kArxiv, 0.02);
  models::GcnConfig gcn_cfg;
  models::GatConfig gat_cfg;
  models::SageLstmConfig sage_cfg;
  models::MultiHeadGatConfig mh_cfg;
  models::SagePoolConfig pool_cfg;
  models::GcnParams gcn_params;
  models::GatParams gat_params;
  models::SageLstmParams sage_params;
  models::MultiHeadGatParams mh_params;
  models::SagePoolParams pool_params;
  models::Matrix x_collab, x_arxiv, x_sage;

  Inputs() {
    gcn_cfg.dims = {32, 16};
    gat_cfg.dims = {32, 16};
    sage_cfg.steps = 4;
    mh_cfg.in_feat = 32;
    mh_cfg.heads = 3;
    pool_cfg.in_feat = 32;
    gcn_params = models::init_gcn(gcn_cfg, 1);
    gat_params = models::init_gat(gat_cfg, 2);
    sage_params = models::init_sage_lstm(sage_cfg, 3);
    mh_params = models::init_multihead_gat(mh_cfg, 6);
    pool_params = models::init_sage_pool(pool_cfg, 7);
    x_collab = models::init_features(collab.csr.num_nodes, 32, 4);
    x_arxiv = models::init_features(arxiv.csr.num_nodes, 32, 4);
    x_sage = models::init_features(arxiv.csr.num_nodes, sage_cfg.in_feat, 5);
  }
};

const Inputs& inputs() {
  static const Inputs* in = new Inputs();
  return *in;
}

// Runs GCN + GAT + GraphSAGE-LSTM + multi-head GAT + GraphSAGE-Pool
// through a fresh full-stack engine, and GAT + multi-head GAT +
// GraphSAGE-Pool through the DGL-style backend, and serializes every
// counter into one metrics document. meta is pinned (not collected) so
// documents from different thread counts are comparable byte for byte.
std::string run_all_and_serialize() {
  const Inputs& in = inputs();
  EngineConfig cfg;
  cfg.auto_tune = true;  // tuner probes are a parallel call site too
  OptimizedEngine e(cfg);
  baselines::DglBackend dgl;

  prof::MetricsSink& sink = prof::MetricsSink::instance();
  sink.clear();
  sink.configure("determinism", 0.02);
  sink.set_meta(prof::MetaInfo{.git_sha = "fixed",
                               .timestamp = "2026-01-01T00:00:00Z",
                               .hostname = "fixed",
                               .scale_env = "0.02",
                               .threads = 0});

  const auto record = [&](const char* model, const graph::Dataset& data,
                          const baselines::RunResult& r, const char* backend = "ours") {
    EXPECT_TRUE(r.status.ok()) << model << ": " << r.status.to_string();
    sink.record({.label = std::string(model) + "/" + backend + "/" + data.name,
                 .model = model,
                 .backend = backend,
                 .dataset = data.name,
                 .ms = r.ms,
                 .oom = r.oom,
                 .stats = r.stats,
                 .spec = sim::v100()});
  };
  record("gcn", in.collab,
         e.run_gcn(in.collab, {&in.gcn_cfg, &in.gcn_params, &in.x_collab},
                   ExecMode::kSimulateOnly, sim::v100()));
  record("gat", in.collab,
         e.run_gat(in.collab, {&in.gat_cfg, &in.gat_params, &in.x_collab},
                   ExecMode::kSimulateOnly, sim::v100()));
  record("sage_lstm", in.arxiv,
         e.run_sage_lstm(in.arxiv, {&in.sage_cfg, &in.sage_params, &in.x_sage},
                         ExecMode::kSimulateOnly, sim::v100()));
  const baselines::MultiHeadGatRun mh{&in.mh_cfg, &in.mh_params, &in.x_collab};
  const baselines::SagePoolRun pool{&in.pool_cfg, &in.pool_params, &in.x_collab};
  record("mhgat", in.collab,
         e.run_multihead_gat(in.collab, mh, ExecMode::kSimulateOnly, sim::v100()));
  record("pool", in.collab, e.run_sage_pool(in.collab, pool, ExecMode::kSimulateOnly, sim::v100()));
  record("gat", in.collab,
         dgl.run_gat(in.collab, {&in.gat_cfg, &in.gat_params, &in.x_collab},
                     ExecMode::kSimulateOnly, sim::v100()),
         "dgl");
  record("mhgat", in.collab,
         dgl.run_multihead_gat(in.collab, mh, ExecMode::kSimulateOnly, sim::v100()), "dgl");
  record("pool", in.collab,
         dgl.run_sage_pool(in.collab, pool, ExecMode::kSimulateOnly, sim::v100()), "dgl");
  std::string doc = sink.to_json();
  sink.clear();
  return doc;
}

TEST_F(ThreadCountDeterminism, MetricsDocumentByteIdenticalAt1_2_3_4_8Threads) {
  par::set_max_threads(1);
  const std::string serial = run_all_and_serialize();
  ASSERT_FALSE(serial.empty());
  // 3 and 4 included: races that 2 and 8 threads happen not to expose
  // have surfaced there.
  for (int threads : {2, 3, 4, 8}) {
    par::set_max_threads(threads);
    const std::string parallel = run_all_and_serialize();
    // EXPECT_EQ on the whole document: a counter that drifts with the
    // thread count shows up as a precise byte diff.
    EXPECT_EQ(parallel, serial) << "at " << threads << " threads";
  }
}

TEST_F(ThreadCountDeterminism, CollectedMetaRecordsTheThreadCount) {
  par::set_max_threads(5);
  EXPECT_EQ(prof::collect_meta().threads, 5);
  par::set_max_threads(0);
  EXPECT_EQ(prof::collect_meta().threads, par::max_threads());
}

TEST_F(ThreadCountDeterminism, RunBatchMatchesSequentialRuns) {
  const Inputs& in = inputs();
  par::set_max_threads(8);

  EngineConfig cfg;
  cfg.auto_tune = true;
  OptimizedEngine batch_engine(cfg);
  std::vector<OptimizedEngine::BatchJob> jobs(3);
  baselines::GcnRun gcn{&in.gcn_cfg, &in.gcn_params, &in.x_collab};
  baselines::GatRun gat{&in.gat_cfg, &in.gat_params, &in.x_collab};
  baselines::GcnRun gcn2{&in.gcn_cfg, &in.gcn_params, &in.x_arxiv};
  jobs[0] = {.data = &in.collab, .gcn = &gcn, .spec = sim::v100()};
  jobs[1] = {.data = &in.collab, .gat = &gat, .spec = sim::v100()};
  jobs[2] = {.data = &in.arxiv, .gcn = &gcn2, .spec = sim::v100()};
  const std::vector<baselines::RunResult> batched = batch_engine.run_batch(jobs);
  ASSERT_EQ(batched.size(), 3u);

  OptimizedEngine seq_engine(cfg);
  const baselines::RunResult expected[] = {
      seq_engine.run_gcn(in.collab, gcn, ExecMode::kSimulateOnly, sim::v100()),
      seq_engine.run_gat(in.collab, gat, ExecMode::kSimulateOnly, sim::v100()),
      seq_engine.run_gcn(in.arxiv, gcn2, ExecMode::kSimulateOnly, sim::v100()),
  };
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(batched[i].status.ok()) << i << ": " << batched[i].status.to_string();
    EXPECT_DOUBLE_EQ(batched[i].ms, expected[i].ms) << i;
    EXPECT_DOUBLE_EQ(batched[i].stats.total_cycles, expected[i].stats.total_cycles) << i;
    EXPECT_DOUBLE_EQ(batched[i].stats.total_flops(), expected[i].stats.total_flops()) << i;
    EXPECT_EQ(batched[i].stats.num_launches(), expected[i].stats.num_launches()) << i;
    EXPECT_EQ(batched[i].stats.total_hits(), expected[i].stats.total_hits()) << i;
    EXPECT_EQ(batched[i].stats.total_misses(), expected[i].stats.total_misses()) << i;
    EXPECT_EQ(batched[i].stats.kernels.size(), expected[i].stats.kernels.size()) << i;
  }
  // Both engines saw the same two graphs; their caches must agree.
  EXPECT_EQ(batch_engine.las_cache_size(), seq_engine.las_cache_size());
  EXPECT_EQ(batch_engine.tuned_cache_size(), seq_engine.tuned_cache_size());
}

TEST_F(ThreadCountDeterminism, RunBatchRejectsEmptyJob) {
  par::set_max_threads(2);
  OptimizedEngine e;
  std::vector<OptimizedEngine::BatchJob> jobs(1);  // no data, no model
  const auto results = e.run_batch(jobs);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].status.ok());
}

}  // namespace
}  // namespace gnnbridge
