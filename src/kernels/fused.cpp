#include "kernels/fused.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "par/thread_pool.hpp"

namespace gnnbridge::kernels {

namespace {
constexpr double kTaskSetupCycles = 30.0;
constexpr double kAtomicCyclesPerLine = 2.5;
/// Cost of one data-visible-range adapter (shared-memory staging + sync)
/// per fused stage per task.
constexpr double kAdapterCycles = 12.0;
}  // namespace

const sim::KernelStats& gat_edge_fused(sim::SimContext& ctx, const GatEdgeFusedArgs& args) {
  assert(args.graph && args.att_src && args.att_dst && args.edge_out);
  const Csr& csr = *args.graph->csr;
  const bool full = args.att_src->host && args.att_dst->host && args.edge_out->host;
  if (full && args.vacc_out && args.vacc_out->host) args.vacc_out->host->fill(0.0f);

  const auto accesses = [&](std::size_t i) {
    const Task& t = args.tasks[i];
    return 2 + (t.size() > 0 ? 2 : 0) + static_cast<std::size_t>(t.size()) +
           (args.vacc_out ? 1 : 0);
  };
  const auto emit = [&](std::size_t i, sim::BlockWork& blk) {
    const Task& t = args.tasks[i];
    blk.read(args.graph->row_ptr, static_cast<std::uint64_t>(t.v) * 8, 16);
    blk.read(args.att_dst->buf, args.att_dst->row_offset(t.v), 4);
    if (t.size() > 0) {
      blk.read(args.graph->col_idx, static_cast<std::uint64_t>(t.begin) * 4,
               static_cast<std::uint64_t>(t.size() * 4));
      blk.write(args.edge_out->buf, static_cast<std::uint64_t>(t.begin) * 4,
                static_cast<std::uint64_t>(t.size() * 4));
    }
    float acc = 0.0f;
    for (EdgeId e = t.begin; e < t.end; ++e) {
      const NodeId u = csr.col_idx[static_cast<std::size_t>(e)];
      blk.read(args.att_src->buf, args.att_src->row_offset(u), 4);
      if (full) {
        const float raw = (*args.att_src->host)(u, 0) + (*args.att_dst->host)(t.v, 0);
        const float score = std::exp(raw >= 0.0f ? raw : args.leaky_alpha * raw);
        (*args.edge_out->host)(e, 0) = score;
        acc += score;
      }
    }
    if (args.vacc_out) {
      blk.write(args.vacc_out->buf, args.vacc_out->row_offset(t.v), 4);
      if (args.atomic_merge) blk.atomic_merge(kAtomicCyclesPerLine, 4);
      if (full && args.vacc_out->host) (*args.vacc_out->host)(t.v, 0) += acc;
    }
    // add + leaky (1) + exp (4) per edge; the fused stages hand values
    // through two adapters instead of global memory: per-edge scores into
    // the exp stage, then the running accumulator into the reduce stage.
    const double work = 6.0 * static_cast<double>(t.size());
    blk.compute(work, work);
    blk.extra_cycles += kTaskSetupCycles;
    blk.adapter(2.0 * kAdapterCycles, static_cast<std::uint64_t>(t.size()) * 4 + 4);
  };
  return ctx.launch(
      emit_blocks(ctx, args, args.tasks.size(), same_node(args.tasks), accesses, emit));
}

const sim::KernelStats& softmax_div_fused(sim::SimContext& ctx, const SoftmaxDivFusedArgs& args) {
  assert(args.graph && args.vacc && args.edge);
  const bool full = args.vacc->host && args.edge->host;

  // Each task scales its own edges: no two blocks write one element.
  const auto accesses = [&](std::size_t i) { return args.tasks[i].size() > 0 ? 4 : 2; };
  const auto emit = [&](std::size_t i, sim::BlockWork& blk) {
    const Task& t = args.tasks[i];
    blk.read(args.graph->row_ptr, static_cast<std::uint64_t>(t.v) * 8, 16);
    blk.read(args.vacc->buf, args.vacc->row_offset(t.v), 4);
    if (t.size() > 0) {
      blk.read(args.edge->buf, static_cast<std::uint64_t>(t.begin) * 4,
               static_cast<std::uint64_t>(t.size() * 4));
      blk.write(args.edge->buf, static_cast<std::uint64_t>(t.begin) * 4,
                static_cast<std::uint64_t>(t.size() * 4));
    }
    if (full) {
      const float acc = (*args.vacc->host)(t.v, 0);
      const float inv = acc != 0.0f ? 1.0f / acc : 0.0f;
      for (EdgeId e = t.begin; e < t.end; ++e) (*args.edge->host)(e, 0) *= inv;
    }
    const double work = static_cast<double>(t.size());
    blk.compute(work, work);
    blk.extra_cycles = kTaskSetupCycles;
    // One adapter stages the normalization scalar across the division.
    blk.adapter(kAdapterCycles, 4);
  };
  return ctx.launch(emit_blocks(ctx, args, args.tasks.size(), accesses, emit));
}

const sim::KernelStats& gat_aggregate_fused(sim::SimContext& ctx,
                                            const GatAggregateFusedArgs& args) {
  assert(args.graph && args.feat && args.edge_weight && args.out);
  const Csr& csr = *args.graph->csr;
  const Index feat = args.feat->cols;
  const bool full = args.feat->host && args.edge_weight->host && args.out->host;
  if (full) args.out->host->fill(0.0f);

  const double pad = pad_factor(feat, args.lanes);
  const std::uint64_t row_bytes = args.feat->row_bytes();
  const std::uint32_t line = static_cast<std::uint32_t>(ctx.spec().line_bytes);

  // The postponed softmax division: the normalization sum is complete (the
  // previous kernel boundary synchronized it), so each task scales its
  // contributions *per edge* by 1/vacc[v]. Per-edge scaling makes the
  // epilogue race-free even when neighbor grouping split the row — partial
  // sums of scaled terms equal the scaled sum (linearity).
  const bool scale = args.vacc != nullptr;
  const auto accesses = [&](std::size_t i) {
    const Task& t = args.tasks[i];
    return 2 + (t.size() > 0 ? 2 : 0) + (scale ? 1 : 0) + static_cast<std::size_t>(t.size());
  };
  const auto emit = [&](std::size_t i, sim::BlockWork& blk) {
    const Task& t = args.tasks[i];
    blk.read(args.graph->row_ptr, static_cast<std::uint64_t>(t.v) * 8, 16);
    if (t.size() > 0) {
      blk.read(args.graph->col_idx, static_cast<std::uint64_t>(t.begin) * 4,
               static_cast<std::uint64_t>(t.size() * 4));
      blk.read(args.edge_weight->buf, static_cast<std::uint64_t>(t.begin) * 4,
               static_cast<std::uint64_t>(t.size() * 4));
    }
    float inv = 1.0f;
    if (scale) {
      blk.read(args.vacc->buf, args.vacc->row_offset(t.v), 4);
      if (full && args.vacc->host) {
        const float acc = (*args.vacc->host)(t.v, 0);
        inv = acc != 0.0f ? 1.0f / acc : 0.0f;
      }
    }
    for (EdgeId e = t.begin; e < t.end; ++e) {
      const NodeId u = csr.col_idx[static_cast<std::size_t>(e)];
      blk.read(args.feat->buf, args.feat->row_offset(u), row_bytes);
      if (full) {
        const float w = (*args.edge_weight->host)(e, 0) * (scale ? inv : 1.0f);
        auto srow = args.feat->host->row(u);
        auto orow = args.out->host->row(t.v);
        for (Index f = 0; f < feat; ++f) orow[f] += w * srow[f];
      }
    }
    blk.write(args.out->buf, args.out->row_offset(t.v), row_bytes);
    double useful = 2.0 * static_cast<double>(feat) * static_cast<double>(t.size());
    if (scale) useful += static_cast<double>(t.size());
    blk.compute(useful, useful * pad);
    blk.extra_cycles = kTaskSetupCycles;
    // The adapter hands the accumulated output row between the aggregate
    // and scale stages.
    blk.adapter(kAdapterCycles, row_bytes);
    if (args.atomic_merge) {
      blk.atomic_merge(kAtomicCyclesPerLine * static_cast<double>((row_bytes + line - 1) / line),
                       row_bytes);
    }
  };
  return ctx.launch(
      emit_blocks(ctx, args, args.tasks.size(), same_node(args.tasks), accesses, emit));
}

const sim::KernelStats& aggregate_bias_act_fused(sim::SimContext& ctx,
                                                 const AggregateBiasActFusedArgs& args) {
  assert(args.graph && args.feat && args.out);
  const Csr& csr = *args.graph->csr;
  const Index feat = args.feat->cols;
  const bool full = args.feat->host && args.out->host;
  if (full) args.out->host->fill(0.0f);

  const double pad = pad_factor(feat, args.lanes);
  const std::uint64_t row_bytes = args.feat->row_bytes();
  const std::uint32_t line = static_cast<std::uint32_t>(ctx.spec().line_bytes);
  const Matrix* ew = args.edge_weight && args.edge_weight->host ? args.edge_weight->host : nullptr;

  const bool epilogue = args.epilogue_inline;
  const auto accesses = [&](std::size_t i) {
    const Task& t = args.tasks[i];
    return 2 + (t.size() > 0 ? (args.edge_weight ? 2 : 1) : 0) +
           static_cast<std::size_t>(t.size()) + (epilogue && args.bias ? 1 : 0);
  };
  const auto emit = [&](std::size_t i, sim::BlockWork& blk) {
    const Task& t = args.tasks[i];
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
      blk.read(args.feat->buf, args.feat->row_offset(u), row_bytes);
      if (full) {
        const float w = ew ? (*ew)(e, 0) : 1.0f;
        auto srow = args.feat->host->row(u);
        auto orow = args.out->host->row(t.v);
        for (Index f = 0; f < feat; ++f) orow[f] += w * srow[f];
      }
    }
    blk.write(args.out->buf, args.out->row_offset(t.v), row_bytes);
    if (epilogue && args.bias) blk.read(args.bias->buf, 0, static_cast<std::uint64_t>(feat * 4));
    if (full && epilogue) {
      auto orow = args.out->host->row(t.v);
      for (Index f = 0; f < feat; ++f) {
        float x = orow[f] + (args.bias && args.bias->host ? (*args.bias->host)(f, 0) : 0.0f);
        if (args.relu) x = x > 0.0f ? x : 0.0f;
        orow[f] = x;
      }
    }
    double useful = 2.0 * static_cast<double>(feat) * static_cast<double>(t.size());
    if (epilogue) useful += 2.0 * static_cast<double>(feat);
    blk.compute(useful, useful * pad);
    blk.extra_cycles = kTaskSetupCycles;
    // The adapter hands the aggregated row to the bias/activation epilogue.
    blk.adapter(kAdapterCycles, row_bytes);
    if (args.atomic_merge) {
      blk.atomic_merge(kAtomicCyclesPerLine * static_cast<double>((row_bytes + line - 1) / line),
                       row_bytes);
    }
  };
  return ctx.launch(
      emit_blocks(ctx, args, args.tasks.size(), same_node(args.tasks), accesses, emit));
}

const sim::KernelStats& bias_act_kernel(sim::SimContext& ctx, const BiasActArgs& args) {
  assert(args.mat);
  const Index rows = args.mat->rows, cols = args.mat->cols;
  // Host epilogue. Every element is independent, so row chunks run on the
  // pool before the trace is built.
  if (args.mat->host) {
    const Matrix* bias = args.bias && args.bias->host ? args.bias->host : nullptr;
    Matrix& mat = *args.mat->host;
    const auto epilogue = [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
      for (auto r = static_cast<Index>(begin); r < static_cast<Index>(end); ++r) {
        auto row = mat.row(r);
        for (Index c = 0; c < cols; ++c) {
          float x = row[c] + (bias ? (*bias)(c, 0) : 0.0f);
          if (args.relu) x = x > 0.0f ? x : 0.0f;
          row[c] = x;
        }
      }
    };
    par::parallel_chunks(static_cast<std::size_t>(rows), par::kDefaultGrain, epilogue);
  }

  constexpr Index kRowsPerBlock = 64;
  const auto accesses = [&](std::size_t) { return args.bias ? 3 : 2; };
  const auto emit = [&](std::size_t b, sim::BlockWork& blk) {
    const Index r0 = static_cast<Index>(b) * kRowsPerBlock;
    const Index r1 = std::min(r0 + kRowsPerBlock, rows);
    if (args.bias) blk.read(args.bias->buf, 0, static_cast<std::uint64_t>(cols * 4));
    const std::uint64_t bytes = (r1 - r0) * args.mat->row_bytes();
    blk.read(args.mat->buf, args.mat->row_offset(r0), bytes);
    blk.write(args.mat->buf, args.mat->row_offset(r0), bytes);
    const double work = 2.0 * static_cast<double>((r1 - r0) * cols);
    blk.compute(work, work);
    blk.extra_cycles = kTaskSetupCycles;
  };
  return ctx.launch(emit_blocks(ctx, args, blocks_of(rows, kRowsPerBlock), accesses, emit));
}

}  // namespace gnnbridge::kernels
