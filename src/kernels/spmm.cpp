#include "kernels/spmm.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "par/thread_pool.hpp"

namespace gnnbridge::kernels {

namespace {
/// Fixed per-task scheduling/setup cost (cycles).
constexpr double kTaskSetupCycles = 30.0;
/// Extra cost per output line when merging through atomics.
constexpr double kAtomicCyclesPerLine = 2.5;
}  // namespace

const sim::KernelStats& spmm_node(sim::SimContext& ctx, const SpmmArgs& args) {
  assert(args.graph && args.src && args.out);
  const Csr& csr = *args.graph->csr;
  const Index feat = args.src->cols;
  assert(args.out->cols == feat);

  const bool full = args.src->host && args.out->host;
  Matrix* out = args.out->host;
  const Matrix* src = args.src->host;
  const Matrix* ew = args.edge_weight && args.edge_weight->host ? args.edge_weight->host : nullptr;

  if (full) {
    if (args.reduce == Reduce::kMax) {
      out->fill(-std::numeric_limits<float>::infinity());
    } else {
      out->fill(0.0f);
    }
  }

  const double pad = pad_factor(feat, args.lanes);
  const std::uint64_t row_bytes = args.src->row_bytes();
  const std::uint32_t line = static_cast<std::uint32_t>(ctx.spec().line_bytes);
  const double flops_per_nbr = args.edge_weight ? 2.0 * static_cast<double>(feat)
                                                : 1.0 * static_cast<double>(feat);

  const auto accesses = [&](std::size_t i) {
    const Task& t = args.tasks[i];
    return 2 + (t.size() > 0 ? (args.edge_weight ? 2 : 1) : 0) + static_cast<std::size_t>(t.size());
  };
  // Chunks never split the tasks of one center node v (split rows emit
  // adjacent tasks), so each chunk owns a disjoint set of output rows and
  // the per-row `orow[f] +=` accumulation order is exactly the sequential
  // one — host outputs are byte-identical at any thread count.
  const auto emit = [&](std::size_t i, sim::BlockWork& blk) {
    const Task& t = args.tasks[i];
    // CSR metadata: row_ptr[v], row_ptr[v+1].
    blk.read(args.graph->row_ptr, static_cast<std::uint64_t>(t.v) * 8, 16);
    if (t.size() > 0) {
      blk.read(args.graph->col_idx, static_cast<std::uint64_t>(t.begin) * 4,
               static_cast<std::uint64_t>(t.size() * 4));
      if (args.edge_weight) {
        blk.read(args.edge_weight->buf, static_cast<std::uint64_t>(t.begin) * 4,
                 static_cast<std::uint64_t>(t.size() * 4));
      }
    }
    for (EdgeId e = t.begin; e < t.end; ++e) {
      const NodeId u = csr.col_idx[static_cast<std::size_t>(e)];
      blk.read(args.src->buf, args.src->row_offset(u), row_bytes);
      if (full) {
        const float w = ew ? (*ew)(e, 0) : 1.0f;
        auto srow = src->row(u);
        auto orow = out->row(t.v);
        switch (args.reduce) {
          case Reduce::kSum:
            for (Index f = 0; f < feat; ++f) orow[f] += w * srow[f];
            break;
          case Reduce::kMax:
            for (Index f = 0; f < feat; ++f) orow[f] = std::max(orow[f], w * srow[f]);
            break;
        }
      }
    }
    blk.write(args.out->buf, args.out->row_offset(t.v), row_bytes);
    const double useful = flops_per_nbr * static_cast<double>(t.size());
    blk.compute(useful, useful * pad);
    blk.extra_cycles = kTaskSetupCycles;
    if (args.atomic_merge) {
      const double out_lines = static_cast<double>((row_bytes + line - 1) / line);
      blk.atomic_merge(kAtomicCyclesPerLine * out_lines, row_bytes);
    }
  };
  const sim::KernelStats& ks = ctx.launch(
      emit_blocks(ctx, args, args.tasks.size(), same_node(args.tasks), accesses, emit));

  if (full && args.reduce == Reduce::kMax) {
    // Post-pass on the host mirrors what the kernel epilogue does: max
    // replaces untouched -inf rows by zero.
    par::parallel_chunks(static_cast<std::size_t>(csr.num_nodes), par::kDefaultGrain,
                         [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
                           for (std::size_t vi = begin; vi < end; ++vi) {
                             const NodeId v = static_cast<NodeId>(vi);
                             if (csr.degree(v) == 0) {
                               for (float& x : out->row(v)) x = 0.0f;
                             }
                           }
                         });
  }
  return ks;
}

const sim::KernelStats& spmm_vendor(sim::SimContext& ctx, SpmmArgs args) {
  // cuSPARSE csrmm is internally load-balanced (merge-based row
  // splitting): heavy rows spread over many blocks, so the library shows
  // no long-tail effect — but its schedule is fixed and opaque: natural
  // row order (no locality hints), 32 lanes, its own split bound.
  constexpr EdgeId kVendorBound = 256;
  const GroupedTasks grouped = neighbor_group_tasks(*args.graph->csr, kVendorBound);
  args.tasks = grouped.tasks;
  args.lanes = 32;
  args.atomic_merge = grouped.any_split;
  args.reduce = Reduce::kSum;
  args.name = "spmm_vendor";
  return spmm_node(ctx, args);
}

}  // namespace gnnbridge::kernels
