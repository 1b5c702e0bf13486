// Invariant validators (robustness subsystem, DESIGN.md §10).
//
// Structural checks run as engine preflight, on generated datasets and in
// the shard partitioner: a corrupt graph or a NaN-poisoned feature matrix
// is rejected with a precise structured error instead of propagating
// garbage into kernels.
#pragma once

#include <span>

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

// ---- Checked CSR accessors --------------------------------------------
//
// `Csr::degree`/`Csr::neighbors` guard their bounds with `assert` only,
// which compiles out in release builds — a corrupt input graph or an
// off-by-one shard boundary reads out of range silently. These are the
// Status-returning twins for construction-time seams (the shard
// partitioner): they verify the row is addressable before
// touching col_idx and report the first violation instead of reading out
// of range. Hot paths (kernels, schedulers) keep the unchecked accessors.

/// In-degree of center node `v`, or a kFailedPrecondition/kOutOfRange
/// error when `v` or the row bounds are unusable.
Result<graph::EdgeId> checked_degree(const graph::Csr& g, graph::NodeId v);

/// The neighbor (source) ids aggregated by center node `v`, bounds-checked
/// against both row_ptr and col_idx storage.
Result<std::span<const graph::NodeId>> checked_neighbors(const graph::Csr& g, graph::NodeId v);

}  // namespace gnnbridge::rt
