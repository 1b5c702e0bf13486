#include "kernels/edge_ops.hpp"

#include <algorithm>
#include <cassert>

namespace gnnbridge::kernels {

namespace {
constexpr double kTaskSetupCycles = 30.0;
constexpr double kAtomicCyclesPerElem = 2.5;
constexpr EdgeId kElemChunk = 1024;
}  // namespace

const sim::KernelStats& edge_map(sim::SimContext& ctx, const EdgeMapArgs& args) {
  assert(args.in && args.out);
  const EdgeId n = args.in->rows;
  const bool full = args.in->host && args.out->host;

  const auto accesses = [](std::size_t) { return 2; };
  const auto emit = [&](std::size_t b, sim::BlockWork& blk) {
    const EdgeId chunk = static_cast<EdgeId>(b) * kElemChunk;
    const EdgeId end = std::min(chunk + kElemChunk, n);
    blk.read(args.in->buf, static_cast<std::uint64_t>(chunk) * 4,
             static_cast<std::uint64_t>((end - chunk) * 4));
    blk.write(args.out->buf, static_cast<std::uint64_t>(chunk) * 4,
              static_cast<std::uint64_t>((end - chunk) * 4));
    if (full) {
      for (EdgeId i = chunk; i < end; ++i) {
        (*args.out->host)(i, 0) = args.fn((*args.in->host)(i, 0));
      }
    }
    const double work = args.flops_per_elem * static_cast<double>(end - chunk);
    blk.compute(work, work);
    blk.extra_cycles = kTaskSetupCycles;
  };
  return ctx.launch(emit_blocks(ctx, args, blocks_of(n, kElemChunk), accesses, emit));
}

const sim::KernelStats& edge_binary(sim::SimContext& ctx, const EdgeBinaryArgs& args) {
  assert(args.a && args.b && args.out);
  const EdgeId n = args.a->rows;
  assert(args.b->rows == n && args.out->rows == n);
  const bool full = args.a->host && args.b->host && args.out->host;

  const auto accesses = [](std::size_t) { return 3; };
  const auto emit = [&](std::size_t b, sim::BlockWork& blk) {
    const EdgeId chunk = static_cast<EdgeId>(b) * kElemChunk;
    const EdgeId end = std::min(chunk + kElemChunk, n);
    blk.read(args.a->buf, static_cast<std::uint64_t>(chunk) * 4,
             static_cast<std::uint64_t>((end - chunk) * 4));
    blk.read(args.b->buf, static_cast<std::uint64_t>(chunk) * 4,
             static_cast<std::uint64_t>((end - chunk) * 4));
    blk.write(args.out->buf, static_cast<std::uint64_t>(chunk) * 4,
              static_cast<std::uint64_t>((end - chunk) * 4));
    if (full) {
      for (EdgeId i = chunk; i < end; ++i) {
        (*args.out->host)(i, 0) = args.fn((*args.a->host)(i, 0), (*args.b->host)(i, 0));
      }
    }
    const double work = args.flops_per_elem * static_cast<double>(end - chunk);
    blk.compute(work, work);
    blk.extra_cycles = kTaskSetupCycles;
  };
  return ctx.launch(emit_blocks(ctx, args, blocks_of(n, kElemChunk), accesses, emit));
}

const sim::KernelStats& segment_sum(sim::SimContext& ctx, const SegmentSumArgs& args) {
  assert(args.graph && args.edge_val && args.node_out);
  const bool full = args.edge_val->host && args.node_out->host;
  if (full) args.node_out->host->fill(0.0f);

  const auto accesses = [&](std::size_t i) { return args.tasks[i].size() > 0 ? 3 : 2; };
  const auto emit = [&](std::size_t i, sim::BlockWork& blk) {
    const Task& t = args.tasks[i];
    blk.read(args.graph->row_ptr, static_cast<std::uint64_t>(t.v) * 8, 16);
    if (t.size() > 0) {
      blk.read(args.edge_val->buf, static_cast<std::uint64_t>(t.begin) * 4,
               static_cast<std::uint64_t>(t.size() * 4));
    }
    blk.write(args.node_out->buf, args.node_out->row_offset(t.v), 4);
    if (full) {
      float acc = 0.0f;
      for (EdgeId e = t.begin; e < t.end; ++e) acc += (*args.edge_val->host)(e, 0);
      (*args.node_out->host)(t.v, 0) += acc;
    }
    const double work = static_cast<double>(t.size());
    blk.compute(work, work);
    blk.extra_cycles = kTaskSetupCycles;
    if (args.atomic_merge) blk.atomic_merge(kAtomicCyclesPerElem, 4);
  };
  return ctx.launch(
      emit_blocks(ctx, args, args.tasks.size(), same_node(args.tasks), accesses, emit));
}

const sim::KernelStats& broadcast_edge(sim::SimContext& ctx, const BroadcastArgs& args) {
  assert(args.graph && args.node_val && args.edge_out);
  const bool full = args.node_val->host && args.edge_out->host;

  const auto accesses = [&](std::size_t i) { return args.tasks[i].size() > 0 ? 3 : 2; };
  const auto emit = [&](std::size_t i, sim::BlockWork& blk) {
    const Task& t = args.tasks[i];
    blk.read(args.graph->row_ptr, static_cast<std::uint64_t>(t.v) * 8, 16);
    blk.read(args.node_val->buf, args.node_val->row_offset(t.v), 4);
    if (t.size() > 0) {
      blk.write(args.edge_out->buf, static_cast<std::uint64_t>(t.begin) * 4,
                static_cast<std::uint64_t>(t.size() * 4));
    }
    if (full) {
      const float v = (*args.node_val->host)(t.v, 0);
      for (EdgeId e = t.begin; e < t.end; ++e) (*args.edge_out->host)(e, 0) = v;
    }
    const double work = static_cast<double>(t.size());
    blk.compute_copy(work);
    blk.extra_cycles = kTaskSetupCycles;
  };
  return ctx.launch(emit_blocks(ctx, args, args.tasks.size(), accesses, emit));
}

}  // namespace gnnbridge::kernels
