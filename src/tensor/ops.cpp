#include "tensor/ops.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "par/thread_pool.hpp"

namespace gnnbridge::tensor {

Matrix gemm_ref(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (Index k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      c(i, j) = acc;
    }
  }
  return c;
}

namespace {

/// Four floats in one register. GCC's vector extension lowers arithmetic on
/// it to packed instructions of the baseline ISA (SSE `mulps`/`addps` on
/// x86-64), which round every lane exactly like the scalar `mulss`/`addss`
/// of gemm_ref. The baseline x86-64 ISA has no FMA, so each product is
/// rounded before it is added.
typedef float Vec4 __attribute__((vector_size(16)));

Vec4 load4(const float* p) {
  Vec4 v;
  std::memcpy(&v, p, sizeof v);  // unaligned
  return v;
}

void store4(float* p, Vec4 v) { std::memcpy(p, &v, sizeof v); }

Vec4 splat(float x) { return Vec4{x, x, x, x}; }

// GEMM blocking. A 4x8 block of C lives in eight registers while a k-tile
// of at most kKc products is added into it; the pool runs kRowGrain rows of
// C per task. The constants fix where tasks split C, never how an element
// is summed.
constexpr Index kMr = 4;
constexpr Index kNr = 8;
constexpr Index kKc = 256;
constexpr std::size_t kRowGrain = 16;
/// transpose's square tile edge, and its rows of A per task.
constexpr Index kTransposeTile = 32;

// The micro-kernels add, into a block of C (row stride ldc), the products
// of kc columns of A (rows at `a`, stride lda) with kc rows of B (at `b`,
// stride ldb). Lanes run across columns of C only: every element adds its
// products one at a time in ascending k onto what C already holds.

void kernel_4x8(const float* a, Index lda, const float* b, Index ldb, float* c, Index ldc,
                Index kc) {
  float* c0 = c;
  float* c1 = c + ldc;
  float* c2 = c + 2 * ldc;
  float* c3 = c + 3 * ldc;
  Vec4 c00 = load4(c0), c01 = load4(c0 + 4);
  Vec4 c10 = load4(c1), c11 = load4(c1 + 4);
  Vec4 c20 = load4(c2), c21 = load4(c2 + 4);
  Vec4 c30 = load4(c3), c31 = load4(c3 + 4);
  const float* a0 = a;
  const float* a1 = a + lda;
  const float* a2 = a + 2 * lda;
  const float* a3 = a + 3 * lda;
  for (Index p = 0; p < kc; ++p) {
    const float* bp = b + p * ldb;
    const Vec4 b0 = load4(bp), b1 = load4(bp + 4);
    const Vec4 v0 = splat(a0[p]);
    c00 = c00 + v0 * b0;
    c01 = c01 + v0 * b1;
    const Vec4 v1 = splat(a1[p]);
    c10 = c10 + v1 * b0;
    c11 = c11 + v1 * b1;
    const Vec4 v2 = splat(a2[p]);
    c20 = c20 + v2 * b0;
    c21 = c21 + v2 * b1;
    const Vec4 v3 = splat(a3[p]);
    c30 = c30 + v3 * b0;
    c31 = c31 + v3 * b1;
  }
  store4(c0, c00);
  store4(c0 + 4, c01);
  store4(c1, c10);
  store4(c1 + 4, c11);
  store4(c2, c20);
  store4(c2 + 4, c21);
  store4(c3, c30);
  store4(c3 + 4, c31);
}

/// Any block, one element at a time: the edges the 4x8 blocks leave.
void kernel_scalar(const float* a, Index lda, const float* b, Index ldb, float* c, Index ldc,
                   Index rows, Index cols, Index kc) {
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) {
      float acc = c[i * ldc + j];
      for (Index p = 0; p < kc; ++p) acc += a[i * lda + p] * b[p * ldb + j];
      c[i * ldc + j] = acc;
    }
  }
}

/// Rows [i0, i1) of C = A * B, with C holding +0.0f on entry (the start of
/// gemm_ref's sums). Per k-tile, the column blocks sweep the rows so a
/// block's slice of B stays in cache across them; the columns right of the
/// last 8-column block and the rows below the last 4-row block go scalar.
void gemm_rows(const float* a, const float* b, float* c, Index i0, Index i1, Index n, Index k) {
  const Index n8 = n - n % kNr;
  const Index i4 = i1 - (i1 - i0) % kMr;
  for (Index k0 = 0; k0 < k; k0 += kKc) {
    const Index kc = std::min(kKc, k - k0);
    const float* ak = a + k0;
    const float* bk = b + k0 * n;
    for (Index j = 0; j < n8; j += kNr) {
      for (Index i = i0; i < i4; i += kMr) {
        kernel_4x8(ak + i * k, k, bk + j, n, c + i * n + j, n, kc);
      }
    }
    kernel_scalar(ak + i0 * k, k, bk + n8, n, c + i0 * n + n8, n, i4 - i0, n - n8, kc);
    kernel_scalar(ak + i4 * k, k, bk, n, c + i4 * n, n, i1 - i4, n, kc);
  }
}

/// Rows [i0, i1) of the m x n matrix at `a` into columns [i0, i1) of its
/// transpose at `t`, in square tiles that keep the strided writes into t
/// within a few cache lines per row of t.
void transpose_rows(const float* a, float* t, Index m, Index n, Index i0, Index i1) {
  for (Index j0 = 0; j0 < n; j0 += kTransposeTile) {
    const Index j1 = std::min(j0 + kTransposeTile, n);
    for (Index i = i0; i < i1; ++i) {
      for (Index j = j0; j < j1; ++j) t[j * m + i] = a[i * n + j];
    }
  }
}

}  // namespace

Matrix gemm(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  const Index m = a.rows(), n = b.cols(), k = a.cols();
  Matrix c(m, n);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  par::parallel_chunks(static_cast<std::size_t>(m), kRowGrain,
                       [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
                         gemm_rows(pa, pb, pc, static_cast<Index>(begin), static_cast<Index>(end),
                                   n, k);
                       });
  return c;
}

Matrix gemm_nt(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.cols());
  return gemm(a, transpose(b));
}

Matrix transpose(const Matrix& a) {
  const Index m = a.rows(), n = a.cols();
  Matrix t(n, m);
  const float* pa = a.data();
  float* pt = t.data();
  par::parallel_chunks(static_cast<std::size_t>(m), kTransposeTile,
                       [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
                         transpose_rows(pa, pt, m, n, static_cast<Index>(begin),
                                        static_cast<Index>(end));
                       });
  return t;
}

void axpy(Matrix& a, float alpha, const Matrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  float* pa = a.data();
  const float* pb = b.data();
  const Index n = a.size();
  for (Index i = 0; i < n; ++i) pa[i] += alpha * pb[i];
}

float dot(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  float acc = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

float frobenius_norm(const Matrix& m) {
  double acc = 0.0;
  const float* p = m.data();
  for (Index i = 0; i < m.size(); ++i) {
    const auto v = static_cast<double>(p[i]);
    acc += v * v;
  }
  return static_cast<float>(std::sqrt(acc));
}

}  // namespace gnnbridge::tensor
