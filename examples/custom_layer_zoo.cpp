// The layer/edge-op zoo: the Table 1 computing layers and Table 2 edge
// operations of the paper, composed into custom GNN layers over a small
// graph — the extension surface beyond GCN/GAT/GraphSAGE-LSTM.
#include <cstdio>

#include "graph/generators.hpp"
#include "models/layers.hpp"
#include "tensor/ops.hpp"

using namespace gnnbridge;
using models::Matrix;

namespace {
void describe(const char* label, const Matrix& out) {
  std::printf("%-34s -> [%lld x %lld], |out| = %8.3f\n", label,
              static_cast<long long>(out.rows()), static_cast<long long>(out.cols()),
              static_cast<double>(tensor::frobenius_norm(out)));
}
}  // namespace

int main() {
  tensor::Rng rng(3);
  const graph::Csr g = graph::csr_from_coo(graph::erdos_renyi(500, 8.0, rng));
  const Matrix h = models::init_features(g.num_nodes, 16, 3);
  std::printf("graph: %d nodes, %lld edges; features [N x 16]\n\n", g.num_nodes,
              static_cast<long long>(g.num_edges()));

  // --- Table 2: edge-weight operations -------------------------------
  Matrix w(16, 16), wl(16, 16), wr(16, 16), att_l(16, 1), att_r(16, 1), wa(16, 1);
  tensor::Rng wrng(5);
  tensor::fill_glorot(w, wrng);
  tensor::fill_glorot(wl, wrng);
  tensor::fill_glorot(wr, wrng);
  tensor::fill_glorot(att_l, wrng);
  tensor::fill_glorot(att_r, wrng);
  tensor::fill_glorot(wa, wrng);
  const Matrix t = tensor::gemm(h, w);
  const Matrix left = tensor::gemm(h, wl);
  const Matrix right = tensor::gemm(h, wr);

  std::printf("Table 2 edge operations (first edge's weight):\n");
  std::printf("  const        e = %+.4f\n", static_cast<double>(models::edge_const(g)[0]));
  std::printf("  gcn          e = %+.4f\n", static_cast<double>(models::edge_gcn(g)[0]));
  std::printf("  gat          e = %+.4f\n",
              static_cast<double>(models::edge_gat(g, t, att_l, att_r)[0]));
  std::printf("  sym-gat      e = %+.4f\n",
              static_cast<double>(models::edge_sym_gat(g, t, att_l, att_r)[0]));
  std::printf("  cos (GaAN)   e = %+.4f\n",
              static_cast<double>(models::edge_cos(g, left, right)[0]));
  std::printf("  linear       e = %+.4f\n", static_cast<double>(models::edge_linear(g, left)[0]));
  std::printf("  gene-linear  e = %+.4f\n",
              static_cast<double>(models::edge_gene_linear(g, left, right, wa)[0]));

  // --- Table 1: computing layers -------------------------------------
  std::printf("\nTable 1 computing layers over the gcn edge weights:\n");
  const auto ew = models::edge_gcn(g);
  describe("  sum", models::layer_sum(g, h, ew));
  describe("  mean", models::layer_mean(g, h, ew));
  describe("  pooling (max of ReLU(Wh))", models::layer_pooling(g, h, w, ew));
  Matrix w1(16, 32), w2(32, 8);
  tensor::fill_glorot(w1, wrng);
  tensor::fill_glorot(w2, wrng);
  describe("  MLP (GIN-style)", models::layer_mlp(g, h, w1, w2, ew));
  describe("  softmax_aggr", models::layer_softmax_aggr(g, h,
                                                        models::edge_gat(g, t, att_l, att_r)));

  std::printf("\nThese layers are host references (src/models/layers.cpp): plain loops over\n"
              "the CSR, not the simulated kernels of src/kernels that the backends launch.\n");
  return 0;
}
