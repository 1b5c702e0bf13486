// Figure 7 — Overall performance: one forward pass of GCN (a), GAT (b) and
// GraphSAGE-LSTM (c) under DGL, PyG, ROC and our optimized engine, on all
// eight datasets. Prints simulated milliseconds; "OOM" marks runs whose
// paper-scale footprint exceeds device memory (exactly the published OOM
// cells), "x" marks unimplemented models.
//
// Expected shape (paper): ours fastest everywhere; GCN speedups ~1.4-2.3x
// over DGL; GAT speedups an order of magnitude over DGL; SAGE-LSTM ~1.4x;
// PyG far behind on everything edge-expanded; ROC between PyG and DGL.
#include <memory>

#include "baselines/dgl.hpp"
#include "baselines/pyg.hpp"
#include "baselines/roc.hpp"
#include "bench_util.hpp"
#include "engine/engine.hpp"

using namespace gnnbridge;

namespace {

struct Row {
  const char* label;
  baselines::Backend* backend;
};

void print_cell(const baselines::RunResult& r, bool supported) {
  if (!supported) {
    std::printf(" %9s", "x");
  } else if (r.oom) {
    std::printf(" %9s", "OOM");
  } else {
    std::printf(" %9.2f", r.ms);
  }
}

template <typename RunFn>
void run_model(const char* title, const char* model_tag, models::ModelKind kind,
               bench::DatasetCache& cache, std::vector<Row>& rows, RunFn run_fn) {
  std::printf("\n--- %s (simulated ms per forward pass; lower is better) ---\n", title);
  std::printf("%-10s", "framework");
  for (graph::DatasetId id : graph::kAllDatasets) {
    std::printf(" %9s", std::string(graph::dataset_name(id)).c_str());
  }
  std::printf("\n");
  for (Row& row : rows) {
    std::printf("%-10s", row.label);
    for (graph::DatasetId id : graph::kAllDatasets) {
      const graph::Dataset& d = cache.get(id);
      const bool supported = row.backend->supports(kind);
      baselines::RunResult r;
      if (supported) {
        r = run_fn(*row.backend, d);
        bench::record_run(std::string(model_tag) + "/" + row.label + "/" + d.name, model_tag,
                          row.label, d.name, r);
      }
      print_cell(r, supported);
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  bench::banner("Figure 7", "end-to-end forward-pass comparison across frameworks");
  bench::DatasetCache cache;

  baselines::DglBackend dgl;
  baselines::PygBackend pyg;
  baselines::RocBackend roc;
  engine::OptimizedEngine ours;
  std::vector<Row> rows = {{"DGL", &dgl}, {"PyG", &pyg}, {"ROC", &roc}, {"Ours", &ours}};

  const models::GcnConfig gcn_cfg = bench::paper_gcn();
  const models::GatConfig gat_cfg = bench::paper_gat();
  const models::SageLstmConfig sage_cfg = bench::paper_sage();
  const auto gcn_params = models::init_gcn(gcn_cfg, 1);
  const auto gat_params = models::init_gat(gat_cfg, 2);
  const auto sage_params = models::init_sage_lstm(sage_cfg, 3);

  // Feature matrices for every dataset, built up front at each model's width.
  std::map<graph::DatasetId, models::Matrix> x512, x32;
  for (graph::DatasetId id : graph::kAllDatasets) {
    const graph::Dataset& d = cache.get(id);
    x512.emplace(id, models::init_features(d.csr.num_nodes, 512, 4));
    x32.emplace(id, models::init_features(d.csr.num_nodes, 32, 5));
  }

  run_model("(a) GCN, 3 layers 512-128-64-32", "gcn", models::ModelKind::kGcn, cache, rows,
            [&](baselines::Backend& b, const graph::Dataset& d) {
              const baselines::GcnRun run{&gcn_cfg, &gcn_params, &x512.at(d.id)};
              return b.run_gcn(d, run, kernels::ExecMode::kSimulateOnly, sim::v100());
            });

  run_model("(b) GAT, 3 layers 512-128-64-32", "gat", models::ModelKind::kGat, cache, rows,
            [&](baselines::Backend& b, const graph::Dataset& d) {
              const baselines::GatRun run{&gat_cfg, &gat_params, &x512.at(d.id)};
              return b.run_gat(d, run, kernels::ExecMode::kSimulateOnly, sim::v100());
            });

  run_model("(c) GraphSAGE-LSTM, 1 layer 32/32, 16 sampled neighbors", "sage",
            models::ModelKind::kSageLstm, cache, rows,
            [&](baselines::Backend& b, const graph::Dataset& d) {
              const baselines::SageLstmRun run{&sage_cfg, &sage_params, &x32.at(d.id)};
              return b.run_sage_lstm(d, run, kernels::ExecMode::kSimulateOnly, sim::v100());
            });

  std::printf("\npaper (Fig 7) reference, ms: GCN DGL 6.15-252 / PyG 15-946+OOM / ROC "
              "9.5-147+OOM / ours 0.92-104;\n  GAT DGL 16.8-2417 / ours 0.99-121; SAGE DGL "
              "0.47-259 / ours 0.33-191\n");
  return 0;
}
