// Invariant validators (robustness subsystem, DESIGN.md §10).
//
// Structural checks run as engine preflight, on generated datasets and in
// the shard partitioner: a corrupt graph or a NaN-poisoned feature matrix
// is rejected with a precise structured error instead of propagating
// garbage into kernels.
#pragma once

#include "graph/csr.hpp"
#include "rt/status.hpp"
#include "tensor/matrix.hpp"

namespace gnnbridge::rt {

/// Structural CSR invariants: non-negative node count, row_ptr of
/// num_nodes+1 entries starting at 0, monotone non-decreasing row_ptr,
/// terminal entry equal to the edge count, and every column index in
/// [0, num_nodes). Reports the first violation with its position.
Status validate_csr(const graph::Csr& g);

/// Dense-matrix invariants: non-negative shape, storage consistent with
/// rows*cols, and every value finite. `what` names the matrix in error
/// messages ("features", "weight[0]", ...).
Status validate_matrix(const tensor::Matrix& m, std::string_view what = "matrix");

}  // namespace gnnbridge::rt
