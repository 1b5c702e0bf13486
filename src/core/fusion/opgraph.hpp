// Computation-graph IR for GNN layers.
//
// A tiny operator graph capturing exactly the structures the paper's
// Observation 3 and §4.2 analyze: the fine-grained op pipelines DGL/PyG
// build for a layer (Listing 1 for GAT) and the dependences between graph
// operations and neural operations. The data-visible-range analysis and
// the fusion pass (fusion_pass.hpp) operate on this IR. The optimized
// engine does not run the pass: its fused pipelines are hand-written layer
// bodies (src/engine/engine_internal.hpp) that these plans describe.
#pragma once

#include <string_view>
#include <vector>

namespace gnnbridge::core {

/// Operator kinds appearing in the evaluated models.
enum class OpKind {
  kGemm,        ///< dense transform, [N,Fin] x [Fin,Fout]
  kRowDot,      ///< per-node scalar from features (GAT attention scalars)
  kUAddV,       ///< edge score from two node scalars (graph pattern)
  kLeakyRelu,   ///< edge-wise unary
  kExp,         ///< edge-wise unary
  kSegmentSum,  ///< per-center sum over incoming edge values
  kBroadcast,   ///< per-center value copied to its incoming edges
  kEdgeDiv,     ///< edge-wise binary: e / e_acc (the softmax normalization)
  kAggregate,   ///< weighted feature reduction over incoming edges
  kBiasAct,     ///< node-wise bias + activation epilogue
};

/// The value domain an op produces.
enum class Domain { kDense, kNodeScalar, kNodeFeat, kEdge };

/// Returns the output domain of `kind`.
Domain op_domain(OpKind kind);

/// Human-readable op name (debugging, test failure messages).
std::string_view op_name(OpKind kind);

/// One operator instance.
struct OpNode {
  OpKind kind{};
  std::vector<int> inputs;  ///< producer op ids
  bool alive = true;        ///< false after a rewrite removed the op
  /// For kAggregate after the linear-property rewrite: the op id whose
  /// per-center value divides the result in the kernel epilogue (-1: none).
  int postponed_scale = -1;
};

/// An operator DAG; ops are appended in topological order.
class OpGraph {
 public:
  /// Appends an op consuming `inputs` (ids of earlier ops; -1 entries and
  /// external inputs are omitted). Returns the new op's id.
  int add(OpKind kind, std::vector<int> inputs = {});

  const OpNode& op(int id) const { return ops_[static_cast<std::size_t>(id)]; }
  OpNode& op(int id) { return ops_[static_cast<std::size_t>(id)]; }
  int size() const { return static_cast<int>(ops_.size()); }

  /// Ids of live ops in topological order.
  std::vector<int> live_ops() const;

  /// Live ops that consume `id`'s output.
  std::vector<int> consumers(int id) const;

 private:
  std::vector<OpNode> ops_;
};

/// Ids of the interesting ops in a built layer graph.
struct GatGraphIds {
  int gemm, att_src, att_dst, u_add_v, leaky, exp, seg_sum, broadcast, div, aggregate;
};

/// Builds the 7-graph-op GAT layer of Listing 1 (plus the dense preamble:
/// feature transform and the two attention row-dots).
OpGraph build_gat_layer(GatGraphIds* ids = nullptr);

/// Ids of the ops in the GCN layer graph.
struct GcnGraphIds {
  int gemm, aggregate, bias_act;
};

/// Builds the GCN layer pipeline: transform -> normalized aggregation ->
/// bias + ReLU.
OpGraph build_gcn_layer(GcnGraphIds* ids = nullptr);

}  // namespace gnnbridge::core
