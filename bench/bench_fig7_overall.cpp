// Figure 7 — Overall performance: one forward pass of GCN (a), GAT (b) and
// GraphSAGE-LSTM (c) under DGL, PyG, ROC and our optimized engine, on all
// eight datasets. Prints simulated milliseconds; "OOM" marks runs whose
// paper-scale footprint exceeds device memory (exactly the published OOM
// cells), "x" marks unimplemented models.
//
// Expected shape (paper): ours fastest everywhere; GCN speedups ~1.4-2.3x
// over DGL; GAT speedups an order of magnitude over DGL; SAGE-LSTM ~1.4x;
// PyG far behind on everything edge-expanded; ROC between PyG and DGL.
#include <functional>
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

/// A dataset's input features at the two widths the models take.
struct Features {
  models::Matrix x512, x32;
};

struct Model {
  const char* title;
  const char* tag;
  models::ModelKind kind;
  std::function<baselines::RunResult(baselines::Backend&, const graph::Dataset&,
                                     const Features&)>
      run;
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

/// Prints one model's table and records its runs, row by row.
/// `results[row][dataset]` holds the runs, which are released once recorded.
void report_model(const Model& model, bench::DatasetCache& cache, const std::vector<Row>& rows,
                  std::vector<std::vector<baselines::RunResult>>& results) {
  std::printf("\n--- %s (simulated ms per forward pass; lower is better) ---\n", model.title);
  std::printf("%-10s", "framework");
  for (graph::DatasetId id : graph::kAllDatasets) {
    std::printf(" %9s", std::string(graph::dataset_name(id)).c_str());
  }
  std::printf("\n");
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::printf("%-10s", rows[r].label);
    const bool supported = rows[r].backend->supports(model.kind);
    for (std::size_t di = 0; di < graph::kAllDatasets.size(); ++di) {
      baselines::RunResult& run = results[r][di];
      if (supported) {
        const graph::Dataset& d = cache.get(graph::kAllDatasets[di]);
        bench::record_run(std::string(model.tag) + "/" + rows[r].label + "/" + d.name, model.tag,
                          rows[r].label, d.name, run);
      }
      print_cell(run, supported);
      run = {};
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
  const std::vector<Row> rows = {{"DGL", &dgl}, {"PyG", &pyg}, {"ROC", &roc}, {"Ours", &ours}};

  const models::GcnConfig gcn_cfg = bench::paper_gcn();
  const models::GatConfig gat_cfg = bench::paper_gat();
  const models::SageLstmConfig sage_cfg = bench::paper_sage();
  const auto gcn_params = models::init_gcn(gcn_cfg, 1);
  const auto gat_params = models::init_gat(gat_cfg, 2);
  const auto sage_params = models::init_sage_lstm(sage_cfg, 3);

  const std::vector<Model> model_list = {
      {"(a) GCN, 3 layers 512-128-64-32", "gcn", models::ModelKind::kGcn,
       [&](baselines::Backend& b, const graph::Dataset& d, const Features& x) {
         const baselines::GcnRun run{&gcn_cfg, &gcn_params, &x.x512};
         return b.run_gcn(d, run, kernels::ExecMode::kSimulateOnly, sim::v100());
       }},
      {"(b) GAT, 3 layers 512-128-64-32", "gat", models::ModelKind::kGat,
       [&](baselines::Backend& b, const graph::Dataset& d, const Features& x) {
         const baselines::GatRun run{&gat_cfg, &gat_params, &x.x512};
         return b.run_gat(d, run, kernels::ExecMode::kSimulateOnly, sim::v100());
       }},
      {"(c) GraphSAGE-LSTM, 1 layer 32/32, 16 sampled neighbors", "sage",
       models::ModelKind::kSageLstm,
       [&](baselines::Backend& b, const graph::Dataset& d, const Features& x) {
         const baselines::SageLstmRun run{&sage_cfg, &sage_params, &x.x32};
         return b.run_sage_lstm(d, run, kernels::ExecMode::kSimulateOnly, sim::v100());
       }},
  };

  // results[model][row][dataset]. The cells run dataset by dataset, so only
  // one dataset's features are alive at a time; the tables and the
  // recorded runs keep the model, row, dataset order.
  std::vector<std::vector<std::vector<baselines::RunResult>>> results(
      model_list.size(), std::vector<std::vector<baselines::RunResult>>(
                             rows.size(), std::vector<baselines::RunResult>(
                                              graph::kAllDatasets.size())));
  for (std::size_t di = 0; di < graph::kAllDatasets.size(); ++di) {
    const graph::Dataset& d = cache.get(graph::kAllDatasets[di]);
    const Features x{models::init_features(d.csr.num_nodes, 512, 4),
                     models::init_features(d.csr.num_nodes, 32, 5)};
    for (std::size_t m = 0; m < model_list.size(); ++m) {
      for (std::size_t r = 0; r < rows.size(); ++r) {
        if (rows[r].backend->supports(model_list[m].kind)) {
          results[m][r][di] = model_list[m].run(*rows[r].backend, d, x);
        }
      }
    }
  }
  for (std::size_t m = 0; m < model_list.size(); ++m) {
    report_model(model_list[m], cache, rows, results[m]);
  }

  std::printf("\npaper (Fig 7) reference, ms: GCN DGL 6.15-252 / PyG 15-946+OOM / ROC "
              "9.5-147+OOM / ours 0.92-104;\n  GAT DGL 16.8-2417 / ours 0.99-121; SAGE DGL "
              "0.47-259 / ours 0.33-191\n");
  return 0;
}
