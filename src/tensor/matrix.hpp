// Dense row-major matrix substrate.
//
// The paper's system sits on top of cuBLAS/cuDNN-style dense building blocks;
// this module is our from-scratch replacement. Matrices are always row-major
// float32 (the datatype used throughout GNN training), stored in a plain
// std::vector<float>. Host storage plays no part in the simulator's
// cache-line math: simulated addresses come from sim::AddressSpace.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace gnnbridge::tensor {

/// Index type used for matrix dimensions. 64-bit so that E*F element counts
/// for large synthetic graphs never overflow.
using Index = std::int64_t;

/// A dense row-major float matrix.
///
/// Rows are contiguous; `row(i)` returns a span over row i. The matrix owns
/// its storage. Copy is deep; move is cheap.
class Matrix {
 public:
  /// Creates an empty 0x0 matrix.
  Matrix() = default;

  /// Creates a `rows` x `cols` matrix, zero-initialized.
  Matrix(Index rows, Index cols)
      : rows_(rows), cols_(cols), data_(static_cast<std::size_t>(rows * cols), 0.0f) {
    assert(rows >= 0 && cols >= 0);
  }

  /// Creates a matrix from explicit data (row-major, size must match).
  Matrix(Index rows, Index cols, std::vector<float> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    assert(static_cast<std::size_t>(rows * cols) == data_.size());
  }

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  /// Total number of elements (rows * cols).
  Index size() const { return rows_ * cols_; }
  bool empty() const { return data_.empty(); }

  float& operator()(Index r, Index c) {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }
  float operator()(Index r, Index c) const {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }

  /// Mutable view of row `r`.
  std::span<float> row(Index r) {
    assert(r >= 0 && r < rows_);
    return {data_.data() + r * cols_, static_cast<std::size_t>(cols_)};
  }
  /// Read-only view of row `r`.
  std::span<const float> row(Index r) const {
    assert(r >= 0 && r < rows_);
    return {data_.data() + r * cols_, static_cast<std::size_t>(cols_)};
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Sets every element to `v`.
  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  /// Resizes to `rows` x `cols`, zeroing all content.
  void reset(Index rows, Index cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(static_cast<std::size_t>(rows * cols), 0.0f);
  }

  bool operator==(const Matrix& other) const = default;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<float> data_;
};

/// Maximum absolute elementwise difference between two equally-shaped
/// matrices. Used by tests and by the optimized-vs-baseline equivalence
/// checks. Returns +inf on shape mismatch.
float max_abs_diff(const Matrix& a, const Matrix& b);

/// True when `a` and `b` have equal shape and agree elementwise within
/// `atol + rtol * |b|` — the usual allclose contract.
bool allclose(const Matrix& a, const Matrix& b, float rtol = 1e-4f, float atol = 1e-5f);

}  // namespace gnnbridge::tensor
