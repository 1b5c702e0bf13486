// LSTM pointwise (gate) kernel.
//
// Applies the gate nonlinearities and the cell/hidden state update given
// the packed pre-activations xW + hR (gate order i, f, z, o). On the GPU
// this is one elementwise kernel over [N, 4H]; the transforms producing the
// pre-activations are where the paper's sparse-fetching / redundancy-
// bypassing optimizations act (Figure 6).
#pragma once

#include "kernels/common.hpp"

namespace gnnbridge::kernels {

struct LstmPointwiseArgs {
  const FeatureMat* gates = nullptr;  ///< [N, 4H] pre-activations (xW + hR)
  const FeatureMat* bias = nullptr;   ///< [4H, 1], may be null
  FeatureMat* c = nullptr;            ///< [N, H] cell state, in/out
  FeatureMat* h = nullptr;            ///< [N, H] hidden state, out
  const char* name = "lstm_pointwise";
  const char* phase = "lstm_cell";
};

const sim::KernelStats& lstm_pointwise(sim::SimContext& ctx, const LstmPointwiseArgs& args);

}  // namespace gnnbridge::kernels
