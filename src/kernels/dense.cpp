#include "kernels/dense.hpp"

#include <algorithm>
#include <cassert>

#include "par/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace gnnbridge::kernels {

namespace {
/// GEMM tile edge. 32x32 output tiles give vendor-library-like grid sizes:
/// enough blocks to fill the device on the paper's layer shapes, with
/// per-block work small enough that makespans match a ~10 TFLOPs
/// effective GEMM throughput.
constexpr Index kTile = 32;
constexpr double kBlockSetupCycles = 40.0;

/// Accesses of one GEMM tile with `rows` A-rows over depth `kdim`: per
/// k-tile the A-row slices and the B rows, then the C rows.
std::size_t gemm_tile_accesses(Index rows, Index kdim) {
  const Index k_tiles = (kdim + kTile - 1) / kTile;
  return static_cast<std::size_t>(k_tiles * rows + kdim + rows);
}

/// Emits into `blk` the trace of one [tile_m x tile_n] output tile of a
/// GEMM whose A-rows resolve through `a_row_addr`.
template <typename RowAddrFn>
void gemm_tile_trace(sim::BlockWork& blk, const sim::Buffer& b_buf, std::uint64_t b_row_bytes,
                     sim::Buffer c_buf, std::uint64_t c_row_bytes, Index i0, Index i1, Index j0,
                     Index j1, Index kdim, RowAddrFn a_row_addr) {
  for (Index k0 = 0; k0 < kdim; k0 += kTile) {
    const Index k1 = std::min(k0 + kTile, kdim);
    const std::uint64_t a_bytes = static_cast<std::uint64_t>((k1 - k0) * 4);
    for (Index i = i0; i < i1; ++i) {
      const auto [buf, off] = a_row_addr(i);
      blk.read(*buf, off + static_cast<std::uint64_t>(k0) * 4, a_bytes);
    }
    const std::uint64_t b_bytes = static_cast<std::uint64_t>((j1 - j0) * 4);
    for (Index kk = k0; kk < k1; ++kk) {
      blk.read(b_buf,
               static_cast<std::uint64_t>(kk) * b_row_bytes + static_cast<std::uint64_t>(j0) * 4,
               b_bytes);
    }
  }
  const std::uint64_t c_bytes = static_cast<std::uint64_t>((j1 - j0) * 4);
  for (Index i = i0; i < i1; ++i) {
    blk.write(c_buf,
              static_cast<std::uint64_t>(i) * c_row_bytes + static_cast<std::uint64_t>(j0) * 4,
              c_bytes);
  }
  const double useful = 2.0 * static_cast<double>(i1 - i0) * static_cast<double>(j1 - j0) *
                        static_cast<double>(kdim);
  // Tiles execute with full kTile x kTile thread footprints; boundary tiles
  // waste the difference.
  const double issued = 2.0 * static_cast<double>(kTile) * static_cast<double>(kTile) *
                        static_cast<double>(kdim);
  blk.compute_tiled(useful, issued);
  blk.extra_cycles = kBlockSetupCycles;
}

/// Rows [i0, i1) and columns [j0, j1) of an output tile.
struct Tile {
  Index i0, i1, j0, j1;
};
/// The tile of block `b` of an [m x n] output whose kTile x kTile tiles
/// launch row tile by row tile (GEMM and transpose).
Tile tile_of(std::size_t b, Index m, Index n) {
  const Index col_tiles = (n + kTile - 1) / kTile;
  const Index i0 = static_cast<Index>(b) / col_tiles * kTile;
  const Index j0 = static_cast<Index>(b) % col_tiles * kTile;
  return {i0, std::min(i0 + kTile, m), j0, std::min(j0 + kTile, n)};
}

/// Tiles of an [m x n] output.
std::size_t num_tiles(Index m, Index n) { return blocks_of(m, kTile) * blocks_of(n, kTile); }

}  // namespace

const sim::KernelStats& dense_gemm(sim::SimContext& ctx, const GemmArgs& args) {
  assert(args.a && args.b && args.c);
  const Index m = args.a->rows, kdim = args.a->cols, n = args.b->cols;
  assert(args.b->rows == kdim && args.c->rows == m && args.c->cols == n);
  if (args.a->host && args.b->host && args.c->host) {
    *args.c->host = tensor::gemm(*args.a->host, *args.b->host);
  }

  const sim::Buffer a_buf = args.a->buf;
  const std::uint64_t a_row_bytes = args.a->row_bytes();
  const auto accesses = [&](std::size_t b) {
    const Tile t = tile_of(b, m, n);
    return gemm_tile_accesses(t.i1 - t.i0, kdim);
  };
  const auto emit = [&](std::size_t b, sim::BlockWork& blk) {
    const auto [i0, i1, j0, j1] = tile_of(b, m, n);
    gemm_tile_trace(blk, args.b->buf, args.b->row_bytes(), args.c->buf, args.c->row_bytes(), i0,
                    i1, j0, j1, kdim, [&](Index i) {
                      return std::pair{&a_buf, static_cast<std::uint64_t>(i) * a_row_bytes};
                    });
  };
  return ctx.launch(emit_blocks(ctx, args, num_tiles(m, n), accesses, emit));
}

const sim::KernelStats& sparse_fetch_gemm(sim::SimContext& ctx, const SparseFetchGemmArgs& args) {
  assert(args.feat && args.b && args.c);
  const Index m = static_cast<Index>(args.row_index.size());
  const Index kdim = args.feat->cols, n = args.b->cols;
  assert(args.b->rows == kdim && args.c->rows == m && args.c->cols == n);
  if (args.feat->host && args.b->host && args.c->host) {
    // Gather-on-the-fly GEMM: logical A row i is feat[row_index[i]].
    Matrix gathered(m, kdim);
    for (Index i = 0; i < m; ++i) {
      auto src = args.feat->host->row(args.row_index[static_cast<std::size_t>(i)]);
      auto dst = gathered.row(i);
      std::copy(src.begin(), src.end(), dst.begin());
    }
    *args.c->host = tensor::gemm(gathered, *args.b->host);
  }

  const sim::Buffer feat_buf = args.feat->buf;
  const std::uint64_t feat_row_bytes = args.feat->row_bytes();
  const auto accesses = [&](std::size_t b) {
    const Tile t = tile_of(b, m, n);
    return gemm_tile_accesses(t.i1 - t.i0, kdim) + 1;
  };
  const auto emit = [&](std::size_t b, sim::BlockWork& blk) {
    const auto [i0, i1, j0, j1] = tile_of(b, m, n);
    gemm_tile_trace(blk, args.b->buf, args.b->row_bytes(), args.c->buf, args.c->row_bytes(), i0,
                    i1, j0, j1, kdim, [&](Index i) {
                      const NodeId u = args.row_index[static_cast<std::size_t>(i)];
                      return std::pair{&feat_buf, static_cast<std::uint64_t>(u) * feat_row_bytes};
                    });
    // The index array itself is read once per tile row-range.
    blk.read(args.index_buf, static_cast<std::uint64_t>(i0) * 4,
             static_cast<std::uint64_t>((i1 - i0) * 4));
  };
  return ctx.launch(emit_blocks(ctx, args, num_tiles(m, n), accesses, emit));
}

const sim::KernelStats& dense_map(sim::SimContext& ctx, const DenseMapArgs& args) {
  assert(args.in && args.out);
  const Index rows = args.in->rows, cols = args.in->cols;
  assert(args.out->rows == rows && args.out->cols == cols);
  const bool full = args.in->host && args.out->host;

  const Index rows_per_block = std::max<Index>(1, kTile * kTile / std::max<Index>(cols, 1));
  const auto accesses = [](std::size_t) { return 2; };
  const auto emit = [&](std::size_t b, sim::BlockWork& blk) {
    const Index r0 = static_cast<Index>(b) * rows_per_block;
    const Index r1 = std::min(r0 + rows_per_block, rows);
    blk.read(args.in->buf, args.in->row_offset(r0),
             (r1 - r0) * args.in->row_bytes());
    blk.write(args.out->buf, args.out->row_offset(r0),
              (r1 - r0) * args.out->row_bytes());
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
  };
  return ctx.launch(emit_blocks(ctx, args, blocks_of(rows, rows_per_block), accesses, emit));
}

const sim::KernelStats& dense_binary(sim::SimContext& ctx, const DenseBinaryArgs& args) {
  assert(args.a && args.b && args.out);
  const Index rows = args.a->rows, cols = args.a->cols;
  assert(args.b->rows == rows && args.b->cols == cols);
  assert(args.out->rows == rows && args.out->cols == cols);
  const bool full = args.a->host && args.b->host && args.out->host;

  const Index rows_per_block = std::max<Index>(1, kTile * kTile / std::max<Index>(cols, 1));
  const auto accesses = [](std::size_t) { return 3; };
  const auto emit = [&](std::size_t blk_index, sim::BlockWork& blk) {
    const Index r0 = static_cast<Index>(blk_index) * rows_per_block;
    const Index r1 = std::min(r0 + rows_per_block, rows);
    const std::uint64_t bytes = (r1 - r0) * args.a->row_bytes();
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
  };
  return ctx.launch(emit_blocks(ctx, args, blocks_of(rows, rows_per_block), accesses, emit));
}

const sim::KernelStats& indexed_binary(sim::SimContext& ctx, const IndexedBinaryArgs& args) {
  assert(args.a && args.b && args.out);
  const Index m = static_cast<Index>(args.row_index.size());
  const Index cols = args.a->cols;
  assert(args.b->rows == m && args.b->cols == cols);
  assert(args.out->rows == m && args.out->cols == cols);
  const bool full = args.a->host && args.b->host && args.out->host;

  const Index rows_per_block = std::max<Index>(1, kTile * kTile / std::max<Index>(cols, 1));
  const auto accesses = [&](std::size_t blk_index) {
    const Index r0 = static_cast<Index>(blk_index) * rows_per_block;
    return static_cast<std::size_t>(std::min(r0 + rows_per_block, m) - r0) + 3;
  };
  const auto emit = [&](std::size_t blk_index, sim::BlockWork& blk) {
    const Index r0 = static_cast<Index>(blk_index) * rows_per_block;
    const Index r1 = std::min(r0 + rows_per_block, m);
    blk.read(args.index_buf, static_cast<std::uint64_t>(r0) * 4,
             static_cast<std::uint64_t>((r1 - r0) * 4));
    for (Index r = r0; r < r1; ++r) {
      const NodeId u = args.row_index[static_cast<std::size_t>(r)];
      blk.read(args.a->buf, args.a->row_offset(u), args.a->row_bytes());
    }
    const std::uint64_t bytes = (r1 - r0) * args.b->row_bytes();
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
  };
  return ctx.launch(emit_blocks(ctx, args, blocks_of(m, rows_per_block), accesses, emit));
}

const sim::KernelStats& dense_transpose(sim::SimContext& ctx, const TransposeArgs& args) {
  assert(args.in && args.out);
  const Index m = args.in->rows, n = args.in->cols;
  assert(args.out->rows == n && args.out->cols == m);
  const bool full = args.in->host && args.out->host;
  if (full) *args.out->host = tensor::transpose(*args.in->host);

  const auto accesses = [&](std::size_t b) {
    const Tile t = tile_of(b, m, n);
    return static_cast<std::size_t>((t.i1 - t.i0) + (t.j1 - t.j0));
  };
  const auto emit = [&](std::size_t b, sim::BlockWork& blk) {
    const auto [i0, i1, j0, j1] = tile_of(b, m, n);
    const std::uint64_t in_bytes = static_cast<std::uint64_t>((j1 - j0) * 4);
    for (Index i = i0; i < i1; ++i) {
      blk.read(args.in->buf,
               static_cast<std::uint64_t>(i) * args.in->row_bytes() +
                   static_cast<std::uint64_t>(j0) * 4,
               in_bytes);
    }
    const std::uint64_t out_bytes = static_cast<std::uint64_t>((i1 - i0) * 4);
    for (Index j = j0; j < j1; ++j) {
      blk.write(args.out->buf,
                static_cast<std::uint64_t>(j) * args.out->row_bytes() +
                    static_cast<std::uint64_t>(i0) * 4,
                out_bytes);
    }
    const double moved = static_cast<double>((i1 - i0) * (j1 - j0));
    blk.compute_copy(moved);
    blk.extra_cycles = kBlockSetupCycles;
  };
  return ctx.launch(emit_blocks(ctx, args, num_tiles(m, n), accesses, emit));
}

const sim::KernelStats& col_sum(sim::SimContext& ctx, const ColSumArgs& args) {
  assert(args.in && args.out);
  const Index m = args.in->rows, n = args.in->cols;
  assert(args.out->rows == n && args.out->cols == 1);
  const bool full = args.in->host && args.out->host;
  if (full) {
    // Column chunks on the pool: every column is still summed from +0.0f
    // in ascending row order, so the bytes do not depend on the split.
    constexpr std::size_t kColsPerTask = 8;
    const Matrix& in = *args.in->host;
    Matrix& out = *args.out->host;
    par::parallel_chunks(static_cast<std::size_t>(n), kColsPerTask,
                         [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
                           const auto c0 = static_cast<Index>(begin);
                           const auto c1 = static_cast<Index>(end);
                           float sum[kColsPerTask] = {};
                           for (Index r = 0; r < m; ++r) {
                             auto row = in.row(r);
                             for (Index c = c0; c < c1; ++c) sum[c - c0] += row[c];
                           }
                           for (Index c = c0; c < c1; ++c) out(c, 0) = sum[c - c0];
                         });
  }

  constexpr Index kRowsPerBlock = 256;
  const std::uint32_t line = static_cast<std::uint32_t>(ctx.spec().line_bytes);
  const double out_lines = static_cast<double>((n * 4 + line - 1) / line);
  const auto accesses = [](std::size_t) { return 2; };
  const auto emit = [&](std::size_t b, sim::BlockWork& blk) {
    const Index r0 = static_cast<Index>(b) * kRowsPerBlock;
    const Index r1 = std::min(r0 + kRowsPerBlock, m);
    blk.read(args.in->buf, args.in->row_offset(r0),
             (r1 - r0) * args.in->row_bytes());
    blk.write(args.out->buf, 0, static_cast<std::uint64_t>(n * 4));
    const double work = static_cast<double>((r1 - r0) * n);
    blk.compute(work, work);
    blk.extra_cycles = kBlockSetupCycles;
    // Blocks merge partial column sums into the shared output atomically.
    blk.atomic_merge(2.5 * out_lines, static_cast<std::uint64_t>(n) * 4);
  };
  return ctx.launch(emit_blocks(ctx, args, blocks_of(m, kRowsPerBlock), accesses, emit));
}

const sim::KernelStats& row_dot(sim::SimContext& ctx, const RowDotArgs& args) {
  assert(args.feat && args.vec && args.out);
  const Index rows = args.feat->rows, cols = args.feat->cols;
  assert(args.vec->rows == cols && args.out->rows == rows);
  const bool full = args.feat->host && args.vec->host && args.out->host;

  constexpr Index kRowsPerBlock = 128;
  const auto accesses = [](std::size_t) { return 3; };
  const auto emit = [&](std::size_t b, sim::BlockWork& blk) {
    const Index r0 = static_cast<Index>(b) * kRowsPerBlock;
    const Index r1 = std::min(r0 + kRowsPerBlock, rows);
    blk.read(args.vec->buf, 0, static_cast<std::uint64_t>(cols * 4));
    blk.read(args.feat->buf, args.feat->row_offset(r0),
             (r1 - r0) * args.feat->row_bytes());
    blk.write(args.out->buf, args.out->row_offset(r0), static_cast<std::uint64_t>((r1 - r0) * 4));
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
  };
  return ctx.launch(emit_blocks(ctx, args, blocks_of(rows, kRowsPerBlock), accesses, emit));
}

}  // namespace gnnbridge::kernels
