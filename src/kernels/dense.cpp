#include "kernels/dense.hpp"

#include <algorithm>
#include <cassert>

#include "tensor/ops.hpp"

namespace gnnbridge::kernels {

namespace {
/// GEMM tile edge. 32x32 output tiles give vendor-library-like grid sizes:
/// enough blocks to fill the device on the paper's layer shapes, with
/// per-block work small enough that makespans match a ~10 TFLOPs
/// effective GEMM throughput.
constexpr Index kTile = 32;
constexpr double kBlockSetupCycles = 40.0;

/// Emits the trace of one [tile_m x tile_n] output tile of a GEMM whose
/// A-rows resolve through `a_row_addr`. Returns the block.
template <typename RowAddrFn>
sim::BlockWork gemm_tile_trace(const sim::Buffer& b_buf, std::uint64_t b_row_bytes,
                               sim::Buffer c_buf, std::uint64_t c_row_bytes, Index i0, Index i1,
                               Index j0, Index j1, Index kdim, RowAddrFn a_row_addr) {
  sim::BlockWork blk;
  for (Index k0 = 0; k0 < kdim; k0 += kTile) {
    const Index k1 = std::min(k0 + kTile, kdim);
    const std::uint32_t a_bytes = static_cast<std::uint32_t>((k1 - k0) * 4);
    for (Index i = i0; i < i1; ++i) {
      const auto [buf, off] = a_row_addr(i);
      blk.accesses.push_back({buf->addr(off + static_cast<std::uint64_t>(k0) * 4), a_bytes});
    }
    const std::uint32_t b_bytes = static_cast<std::uint32_t>((j1 - j0) * 4);
    for (Index kk = k0; kk < k1; ++kk) {
      blk.accesses.push_back({b_buf.addr(static_cast<std::uint64_t>(kk) * b_row_bytes +
                                         static_cast<std::uint64_t>(j0) * 4),
                              b_bytes});
    }
  }
  const std::uint32_t c_bytes = static_cast<std::uint32_t>((j1 - j0) * 4);
  for (Index i = i0; i < i1; ++i) {
    blk.accesses.push_back({c_buf.addr(static_cast<std::uint64_t>(i) * c_row_bytes +
                                       static_cast<std::uint64_t>(j0) * 4),
                            c_bytes});
  }
  const double useful = 2.0 * static_cast<double>(i1 - i0) * static_cast<double>(j1 - j0) *
                        static_cast<double>(kdim);
  // Tiles execute with full 64x64 thread footprints; boundary tiles waste
  // the difference.
  const double issued = 2.0 * static_cast<double>(kTile) * static_cast<double>(kTile) *
                        static_cast<double>(kdim);
  blk.compute_tiled(useful, issued);
  blk.extra_cycles = kBlockSetupCycles;
  return blk;
}
}  // namespace

sim::KernelStats dense_gemm(sim::SimContext& ctx, const GemmArgs& args) {
  assert(args.a && args.b && args.c);
  const Index m = args.a->rows, kdim = args.a->cols, n = args.b->cols;
  assert(args.b->rows == kdim && args.c->rows == m && args.c->cols == n);
  const bool full =
      args.mode == ExecMode::kFull && args.a->host && args.b->host && args.c->host;

  if (full) {
    Matrix prod = tensor::gemm(*args.a->host, *args.b->host);
    if (args.accumulate) {
      tensor::axpy(*args.c->host, 1.0f, prod);
    } else {
      *args.c->host = std::move(prod);
    }
  }

  sim::Kernel k;
  k.name = args.name;
  k.phase = args.phase;
  const sim::Buffer a_buf = args.a->buf;
  const std::uint64_t a_row_bytes = args.a->row_bytes();
  for (Index i0 = 0; i0 < m; i0 += kTile) {
    const Index i1 = std::min(i0 + kTile, m);
    for (Index j0 = 0; j0 < n; j0 += kTile) {
      const Index j1 = std::min(j0 + kTile, n);
      k.blocks.push_back(gemm_tile_trace(
          args.b->buf, args.b->row_bytes(), args.c->buf, args.c->row_bytes(), i0, i1, j0, j1,
          kdim, [&](Index i) {
            return std::pair{&a_buf, static_cast<std::uint64_t>(i) * a_row_bytes};
          }));
    }
  }
  return ctx.launch(std::move(k));
}

sim::KernelStats sparse_fetch_gemm(sim::SimContext& ctx, const SparseFetchGemmArgs& args) {
  assert(args.feat && args.b && args.c);
  const Index m = static_cast<Index>(args.row_index.size());
  const Index kdim = args.feat->cols, n = args.b->cols;
  assert(args.b->rows == kdim && args.c->rows == m && args.c->cols == n);
  const bool full =
      args.mode == ExecMode::kFull && args.feat->host && args.b->host && args.c->host;

  if (full) {
    // Gather-on-the-fly GEMM: logical A row i is feat[row_index[i]].
    Matrix gathered(m, kdim);
    for (Index i = 0; i < m; ++i) {
      auto src = args.feat->host->row(args.row_index[static_cast<std::size_t>(i)]);
      auto dst = gathered.row(i);
      std::copy(src.begin(), src.end(), dst.begin());
    }
    Matrix prod = tensor::gemm(gathered, *args.b->host);
    if (args.accumulate) {
      tensor::axpy(*args.c->host, 1.0f, prod);
    } else {
      *args.c->host = std::move(prod);
    }
  }

  sim::Kernel k;
  k.name = args.name;
  k.phase = args.phase;
  const sim::Buffer feat_buf = args.feat->buf;
  const std::uint64_t feat_row_bytes = args.feat->row_bytes();
  for (Index i0 = 0; i0 < m; i0 += kTile) {
    const Index i1 = std::min(i0 + kTile, m);
    for (Index j0 = 0; j0 < n; j0 += kTile) {
      const Index j1 = std::min(j0 + kTile, n);
      sim::BlockWork blk = gemm_tile_trace(
          args.b->buf, args.b->row_bytes(), args.c->buf, args.c->row_bytes(), i0, i1, j0, j1,
          kdim, [&](Index i) {
            const NodeId u = args.row_index[static_cast<std::size_t>(i)];
            return std::pair{&feat_buf, static_cast<std::uint64_t>(u) * feat_row_bytes};
          });
      // The index array itself is read once per tile row-range.
      blk.accesses.push_back({args.index_buf.addr(static_cast<std::uint64_t>(i0) * 4),
                              static_cast<std::uint32_t>((i1 - i0) * 4)});
      k.blocks.push_back(std::move(blk));
    }
  }
  return ctx.launch(std::move(k));
}

sim::KernelStats dense_map(sim::SimContext& ctx, const DenseMapArgs& args) {
  assert(args.in && args.out);
  const Index rows = args.in->rows, cols = args.in->cols;
  assert(args.out->rows == rows && args.out->cols == cols);
  const bool full = args.mode == ExecMode::kFull && args.in->host && args.out->host;

  sim::Kernel k;
  k.name = args.name;
  k.phase = args.phase;
  const Index rows_per_block = std::max<Index>(1, kTile * kTile / std::max<Index>(cols, 1));
  for (Index r0 = 0; r0 < rows; r0 += rows_per_block) {
    const Index r1 = std::min(r0 + rows_per_block, rows);
    sim::BlockWork blk;
    blk.read(args.in->buf, args.in->row_offset(r0),
             static_cast<std::uint32_t>((r1 - r0) * args.in->row_bytes()));
    blk.write(args.out->buf, args.out->row_offset(r0),
              static_cast<std::uint32_t>((r1 - r0) * args.out->row_bytes()));
    if (full) {
      for (Index r = r0; r < r1; ++r) {
        auto in = args.in->host->row(r);
        auto out = args.out->host->row(r);
        for (Index c = 0; c < cols; ++c) out[c] = args.fn(in[c]);
      }
    }
    const double work = args.flops_per_elem * static_cast<double>((r1 - r0) * cols);
    blk.compute(work, work);
    blk.extra_cycles = kBlockSetupCycles;
    k.blocks.push_back(std::move(blk));
  }
  return ctx.launch(std::move(k));
}

sim::KernelStats dense_binary(sim::SimContext& ctx, const DenseBinaryArgs& args) {
  assert(args.a && args.b && args.out);
  const Index rows = args.a->rows, cols = args.a->cols;
  assert(args.b->rows == rows && args.b->cols == cols);
  assert(args.out->rows == rows && args.out->cols == cols);
  const bool full =
      args.mode == ExecMode::kFull && args.a->host && args.b->host && args.out->host;

  sim::Kernel k;
  k.name = args.name;
  k.phase = args.phase;
  const Index rows_per_block = std::max<Index>(1, kTile * kTile / std::max<Index>(cols, 1));
  for (Index r0 = 0; r0 < rows; r0 += rows_per_block) {
    const Index r1 = std::min(r0 + rows_per_block, rows);
    sim::BlockWork blk;
    const std::uint32_t bytes = static_cast<std::uint32_t>((r1 - r0) * args.a->row_bytes());
    blk.read(args.a->buf, args.a->row_offset(r0), bytes);
    blk.read(args.b->buf, args.b->row_offset(r0), bytes);
    blk.write(args.out->buf, args.out->row_offset(r0), bytes);
    if (full) {
      for (Index r = r0; r < r1; ++r) {
        auto a = args.a->host->row(r);
        auto b = args.b->host->row(r);
        auto out = args.out->host->row(r);
        for (Index c = 0; c < cols; ++c) out[c] = args.fn(a[c], b[c]);
      }
    }
    const double work = args.flops_per_elem * static_cast<double>((r1 - r0) * cols);
    blk.compute(work, work);
    blk.extra_cycles = kBlockSetupCycles;
    k.blocks.push_back(std::move(blk));
  }
  return ctx.launch(std::move(k));
}

sim::KernelStats indexed_binary(sim::SimContext& ctx, const IndexedBinaryArgs& args) {
  assert(args.a && args.b && args.out);
  const Index m = static_cast<Index>(args.row_index.size());
  const Index cols = args.a->cols;
  assert(args.b->rows == m && args.b->cols == cols);
  assert(args.out->rows == m && args.out->cols == cols);
  const bool full =
      args.mode == ExecMode::kFull && args.a->host && args.b->host && args.out->host;

  sim::Kernel k;
  k.name = args.name;
  k.phase = args.phase;
  const Index rows_per_block = std::max<Index>(1, kTile * kTile / std::max<Index>(cols, 1));
  for (Index r0 = 0; r0 < m; r0 += rows_per_block) {
    const Index r1 = std::min(r0 + rows_per_block, m);
    sim::BlockWork blk;
    blk.accesses.push_back({args.index_buf.addr(static_cast<std::uint64_t>(r0) * 4),
                            static_cast<std::uint32_t>((r1 - r0) * 4)});
    for (Index r = r0; r < r1; ++r) {
      const NodeId u = args.row_index[static_cast<std::size_t>(r)];
      blk.read(args.a->buf, args.a->row_offset(u), static_cast<std::uint32_t>(args.a->row_bytes()));
    }
    const std::uint32_t bytes = static_cast<std::uint32_t>((r1 - r0) * args.b->row_bytes());
    blk.read(args.b->buf, args.b->row_offset(r0), bytes);
    blk.write(args.out->buf, args.out->row_offset(r0), bytes);
    if (full) {
      for (Index r = r0; r < r1; ++r) {
        auto a = args.a->host->row(args.row_index[static_cast<std::size_t>(r)]);
        auto b = args.b->host->row(r);
        auto out = args.out->host->row(r);
        for (Index c = 0; c < cols; ++c) out[c] = args.fn(a[c], b[c]);
      }
    }
    const double work = args.flops_per_elem * static_cast<double>((r1 - r0) * cols);
    blk.compute(work, work);
    blk.extra_cycles = kBlockSetupCycles;
    k.blocks.push_back(std::move(blk));
  }
  return ctx.launch(std::move(k));
}

sim::KernelStats dense_transpose(sim::SimContext& ctx, const TransposeArgs& args) {
  assert(args.in && args.out);
  const Index m = args.in->rows, n = args.in->cols;
  assert(args.out->rows == n && args.out->cols == m);
  const bool full = args.mode == ExecMode::kFull && args.in->host && args.out->host;
  if (full) *args.out->host = tensor::transpose(*args.in->host);

  sim::Kernel k;
  k.name = args.name;
  k.phase = args.phase;
  for (Index i0 = 0; i0 < m; i0 += kTile) {
    const Index i1 = std::min(i0 + kTile, m);
    for (Index j0 = 0; j0 < n; j0 += kTile) {
      const Index j1 = std::min(j0 + kTile, n);
      sim::BlockWork blk;
      const std::uint32_t in_bytes = static_cast<std::uint32_t>((j1 - j0) * 4);
      for (Index i = i0; i < i1; ++i) {
        blk.read(args.in->buf,
                 static_cast<std::uint64_t>(i) * args.in->row_bytes() +
                     static_cast<std::uint64_t>(j0) * 4,
                 in_bytes);
      }
      const std::uint32_t out_bytes = static_cast<std::uint32_t>((i1 - i0) * 4);
      for (Index j = j0; j < j1; ++j) {
        blk.write(args.out->buf,
                  static_cast<std::uint64_t>(j) * args.out->row_bytes() +
                      static_cast<std::uint64_t>(i0) * 4,
                  out_bytes);
      }
      const double moved = static_cast<double>((i1 - i0) * (j1 - j0));
      blk.compute_copy(moved);
      blk.extra_cycles = kBlockSetupCycles;
      k.blocks.push_back(std::move(blk));
    }
  }
  return ctx.launch(std::move(k));
}

sim::KernelStats col_sum(sim::SimContext& ctx, const ColSumArgs& args) {
  assert(args.in && args.out);
  const Index m = args.in->rows, n = args.in->cols;
  assert(args.out->rows == n && args.out->cols == 1);
  const bool full = args.mode == ExecMode::kFull && args.in->host && args.out->host;
  if (full) {
    args.out->host->fill(0.0f);
    for (Index r = 0; r < m; ++r) {
      auto row = args.in->host->row(r);
      for (Index c = 0; c < n; ++c) (*args.out->host)(c, 0) += row[c];
    }
  }

  sim::Kernel k;
  k.name = args.name;
  k.phase = args.phase;
  constexpr Index kRowsPerBlock = 256;
  const std::uint32_t line = static_cast<std::uint32_t>(ctx.spec().line_bytes);
  const double out_lines = static_cast<double>((n * 4 + line - 1) / line);
  for (Index r0 = 0; r0 < m; r0 += kRowsPerBlock) {
    const Index r1 = std::min(r0 + kRowsPerBlock, m);
    sim::BlockWork blk;
    blk.read(args.in->buf, args.in->row_offset(r0),
             static_cast<std::uint32_t>((r1 - r0) * args.in->row_bytes()));
    blk.write(args.out->buf, 0, static_cast<std::uint32_t>(n * 4));
    const double work = static_cast<double>((r1 - r0) * n);
    blk.compute(work, work);
    blk.extra_cycles = kBlockSetupCycles;
    // Blocks merge partial column sums into the shared output atomically.
    blk.atomic_merge(2.5 * out_lines, static_cast<std::uint64_t>(n) * 4);
    k.blocks.push_back(std::move(blk));
  }
  return ctx.launch(std::move(k));
}

sim::KernelStats row_dot(sim::SimContext& ctx, const RowDotArgs& args) {
  assert(args.feat && args.vec && args.out);
  const Index rows = args.feat->rows, cols = args.feat->cols;
  assert(args.vec->rows == cols && args.out->rows == rows);
  const bool full =
      args.mode == ExecMode::kFull && args.feat->host && args.vec->host && args.out->host;

  sim::Kernel k;
  k.name = args.name;
  k.phase = args.phase;
  constexpr Index kRowsPerBlock = 128;
  for (Index r0 = 0; r0 < rows; r0 += kRowsPerBlock) {
    const Index r1 = std::min(r0 + kRowsPerBlock, rows);
    sim::BlockWork blk;
    blk.read(args.vec->buf, 0, static_cast<std::uint32_t>(cols * 4));
    blk.read(args.feat->buf, args.feat->row_offset(r0),
             static_cast<std::uint32_t>((r1 - r0) * args.feat->row_bytes()));
    blk.write(args.out->buf, args.out->row_offset(r0), static_cast<std::uint32_t>((r1 - r0) * 4));
    if (full) {
      for (Index r = r0; r < r1; ++r) {
        float acc = 0.0f;
        auto row = args.feat->host->row(r);
        for (Index c = 0; c < cols; ++c) acc += row[c] * (*args.vec->host)(c, 0);
        (*args.out->host)(r, 0) = acc;
      }
    }
    const double work = 2.0 * static_cast<double>((r1 - r0) * cols);
    blk.compute(work, work);
    blk.extra_cycles = kBlockSetupCycles;
    k.blocks.push_back(std::move(blk));
  }
  return ctx.launch(std::move(k));
}

}  // namespace gnnbridge::kernels
