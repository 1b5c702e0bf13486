// Dense linear-algebra building blocks (the cuBLAS stand-in).
//
// Two GEMM implementations are provided: a straightforward scalar reference
// used by tests as ground truth, and a SIMD micro-kernel version used by the
// models and the kernels' host math. `gemm`, `gemm_nt` and `transpose` run
// row-parallel on the host thread pool (DESIGN.md §11); their bytes equal
// the reference's at any thread count. axpy, dot and frobenius_norm run on
// the calling thread.
#pragma once

#include <span>

#include "tensor/matrix.hpp"

namespace gnnbridge::tensor {

/// C = A * B. Triple-loop reference implementation (ground truth for tests):
/// each element is summed from +0.0f in ascending k, one product at a time.
Matrix gemm_ref(const Matrix& a, const Matrix& b);

/// C = A * B, byte-identical to gemm_ref. A register-blocked 4x8 SIMD
/// micro-kernel over 256-deep k-tiles, with vector lanes across the columns
/// of C, so every element is summed exactly as gemm_ref sums it; tasks of 16
/// rows of C run on the thread pool.
Matrix gemm(const Matrix& a, const Matrix& b);

/// C = A * B^T, computed as gemm(a, transpose(b)): the products of
/// dot(a.row(i), b.row(j)) in the same order.
Matrix gemm_nt(const Matrix& a, const Matrix& b);

/// Returns A^T, copied in 32x32 tiles over row bands of A run in parallel.
Matrix transpose(const Matrix& a);

/// a += alpha * b, in place.
void axpy(Matrix& a, float alpha, const Matrix& b);

/// Dot product of two equal-length spans.
float dot(std::span<const float> a, std::span<const float> b);

/// Frobenius norm of `m`.
float frobenius_norm(const Matrix& m);

}  // namespace gnnbridge::tensor
