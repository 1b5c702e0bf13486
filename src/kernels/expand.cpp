#include "kernels/expand.hpp"

#include <algorithm>
#include <cassert>

namespace gnnbridge::kernels {

namespace {
constexpr double kBlockSetupCycles = 30.0;
constexpr double kAtomicCyclesPerLine = 2.5;
}  // namespace

EdgeListOnDevice device_edges(sim::SimContext& ctx, const graph::Coo& coo, const char* name) {
  EdgeListOnDevice e;
  e.coo = &coo;
  const std::uint64_t bytes = static_cast<std::uint64_t>(coo.num_edges()) * 4;
  e.src = ctx.mem().alloc(std::string(name) + ".src", bytes);
  e.dst = ctx.mem().alloc(std::string(name) + ".dst", bytes);
  return e;
}

const sim::KernelStats& gather(sim::SimContext& ctx, const GatherArgs& args) {
  assert(args.edges && args.feat && args.expanded);
  const graph::Coo& coo = *args.edges->coo;
  const EdgeId num_edges = coo.num_edges();
  const Index feat = args.feat->cols;
  assert(args.expanded->cols == feat);
  const bool full = args.feat->host && args.expanded->host;
  const auto& index = args.by_src ? coo.src : coo.dst;
  const sim::Buffer& index_buf = args.by_src ? args.edges->src : args.edges->dst;

  const std::uint64_t row_bytes = args.feat->row_bytes();

  const auto accesses = [&](std::size_t b) {
    const EdgeId chunk = static_cast<EdgeId>(b) * kEdgeChunk;
    return 1 + 2 * static_cast<std::size_t>(std::min(chunk + kEdgeChunk, num_edges) - chunk);
  };
  const auto emit = [&](std::size_t b, sim::BlockWork& blk) {
    const EdgeId chunk = static_cast<EdgeId>(b) * kEdgeChunk;
    const EdgeId end = std::min(chunk + kEdgeChunk, num_edges);
    blk.read(index_buf, static_cast<std::uint64_t>(chunk) * 4,
             static_cast<std::uint64_t>((end - chunk) * 4));
    for (EdgeId e = chunk; e < end; ++e) {
      const NodeId u = index[static_cast<std::size_t>(e)];
      blk.read(args.feat->buf, args.feat->row_offset(u), row_bytes);
      blk.write(args.expanded->buf, args.expanded->row_offset(e),
                row_bytes);
      if (full) {
        auto in = args.feat->host->row(u);
        auto out = args.expanded->host->row(e);
        std::copy(in.begin(), in.end(), out.begin());
      }
    }
    blk.extra_cycles = kBlockSetupCycles;
    // Pure data movement; a copy still occupies lanes for one op per elem.
    const double moved = static_cast<double>((end - chunk) * feat);
    blk.compute_copy(moved);
  };
  return ctx.launch(emit_blocks(ctx, args, blocks_of(num_edges, kEdgeChunk), accesses, emit));
}

const sim::KernelStats& scatter_reduce(sim::SimContext& ctx, const ScatterArgs& args) {
  assert(args.edges && args.expanded && args.out);
  const graph::Coo& coo = *args.edges->coo;
  const EdgeId num_edges = coo.num_edges();
  const Index feat = args.expanded->cols;
  assert(args.out->cols == feat);
  const bool full = args.expanded->host && args.out->host;
  const Matrix* ew = args.edge_weight && args.edge_weight->host ? args.edge_weight->host : nullptr;

  if (full) args.out->host->fill(0.0f);

  const std::uint64_t row_bytes = args.expanded->row_bytes();
  const std::uint32_t line = static_cast<std::uint32_t>(ctx.spec().line_bytes);
  const double out_lines = static_cast<double>((row_bytes + line - 1) / line);

  // A destination row is summed by every block holding one of its edges,
  // in edge order. In a dst-sorted edge list those blocks are adjacent and
  // stay in one chunk; any other order builds all blocks in one chunk.
  const bool dst_sorted = !full || std::is_sorted(coo.dst.begin(), coo.dst.end());
  const auto same_dst = [&](std::size_t b) {
    const std::size_t first = b * static_cast<std::size_t>(kEdgeChunk);
    return !dst_sorted || coo.dst[first] == coo.dst[first - 1];
  };
  const auto accesses = [&](std::size_t b) {
    const EdgeId chunk = static_cast<EdgeId>(b) * kEdgeChunk;
    const EdgeId end = std::min(chunk + kEdgeChunk, num_edges);
    return (args.edge_weight ? 2 : 1) + 2 * static_cast<std::size_t>(end - chunk);
  };
  const auto emit = [&](std::size_t b, sim::BlockWork& blk) {
    const EdgeId chunk = static_cast<EdgeId>(b) * kEdgeChunk;
    const EdgeId end = std::min(chunk + kEdgeChunk, num_edges);
    blk.read(args.edges->dst, static_cast<std::uint64_t>(chunk) * 4,
             static_cast<std::uint64_t>((end - chunk) * 4));
    if (args.edge_weight) {
      blk.read(args.edge_weight->buf, static_cast<std::uint64_t>(chunk) * 4,
               static_cast<std::uint64_t>((end - chunk) * 4));
    }
    for (EdgeId e = chunk; e < end; ++e) {
      const NodeId v = coo.dst[static_cast<std::size_t>(e)];
      blk.read(args.expanded->buf, args.expanded->row_offset(e),
               row_bytes);
      blk.write(args.out->buf, args.out->row_offset(v), row_bytes);
      blk.atomic_merge(kAtomicCyclesPerLine * out_lines, row_bytes);
      if (full) {
        const float w = ew ? (*ew)(e, 0) : 1.0f;
        auto in = args.expanded->host->row(e);
        auto out = args.out->host->row(v);
        for (Index f = 0; f < feat; ++f) out[f] += w * in[f];
      }
    }
    blk.extra_cycles += kBlockSetupCycles;
    const double work = 2.0 * static_cast<double>((end - chunk) * feat);
    blk.compute(work, work);
  };
  return ctx.launch(
      emit_blocks(ctx, args, blocks_of(num_edges, kEdgeChunk), same_dst, accesses, emit));
}

const sim::KernelStats& step_gather(sim::SimContext& ctx, const StepGatherArgs& args) {
  assert(args.graph && args.feat && args.out);
  const Csr& csr = *args.graph->csr;
  const Index feat = args.feat->cols;
  assert(args.out->cols == feat && args.out->rows == csr.num_nodes);
  const bool full = args.feat->host && args.out->host;
  const std::uint64_t row_bytes = args.feat->row_bytes();

  constexpr NodeId kNodeChunk = 128;
  const auto accesses = [&](std::size_t b) {
    const NodeId chunk = static_cast<NodeId>(b) * kNodeChunk;
    const NodeId end = std::min<NodeId>(chunk + kNodeChunk, csr.num_nodes);
    std::size_t count = 1;
    for (NodeId v = chunk; v < end; ++v) count += csr.degree(v) > 0 ? 3 : 2;
    return count;
  };
  const auto emit = [&](std::size_t b, sim::BlockWork& blk) {
    const NodeId chunk = static_cast<NodeId>(b) * kNodeChunk;
    const NodeId end = std::min<NodeId>(chunk + kNodeChunk, csr.num_nodes);
    blk.read(args.graph->row_ptr, static_cast<std::uint64_t>(chunk) * 8,
             static_cast<std::uint64_t>((end - chunk + 1) * 8));
    for (NodeId v = chunk; v < end; ++v) {
      const EdgeId d = csr.degree(v);
      // Isolated nodes fall back to their own feature row (same
      // convention as models::sage_lstm_forward_ref).
      NodeId u = v;
      if (d > 0) {
        const EdgeId idx = csr.row_ptr[v] + (static_cast<EdgeId>(args.step) % d);
        blk.read(args.graph->col_idx, static_cast<std::uint64_t>(idx) * 4, 4);
        u = csr.col_idx[static_cast<std::size_t>(idx)];
      }
      blk.read(args.feat->buf, args.feat->row_offset(u), row_bytes);
      blk.write(args.out->buf, args.out->row_offset(v), row_bytes);
      if (full) {
        auto in = args.feat->host->row(u);
        auto outr = args.out->host->row(v);
        std::copy(in.begin(), in.end(), outr.begin());
      }
    }
    blk.extra_cycles = kBlockSetupCycles;
    const double moved = static_cast<double>((end - chunk) * feat);
    blk.compute_copy(moved);
  };
  return ctx.launch(emit_blocks(ctx, args, blocks_of(csr.num_nodes, kNodeChunk), accesses, emit));
}

}  // namespace gnnbridge::kernels
