// Shared kernel-library types.
//
// Every kernel in this directory plays two roles at once:
//   1. it computes real results on host matrices (so semantics are testable
//      and the examples produce meaningful GNN outputs), and
//   2. it emits the global-memory trace + flop counts of the corresponding
//      GPU kernel into the simulator.
// A kernel does role 1 exactly when the FeatureMats it computes with have
// host storage. Trace-only runs hand it shape-only mats (device_mat_shape):
// traces are value-independent, so counters and timings are unchanged.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "par/thread_pool.hpp"
#include "sim/context.hpp"
#include "tensor/matrix.hpp"

namespace gnnbridge::kernels {

using graph::Csr;
using graph::EdgeId;
using graph::NodeId;
using tensor::Index;
using tensor::Matrix;

/// Whether a run computes real results or only emits traces. Kernels never
/// read it: baselines::pipeline::Workspace turns it into host-backed mats
/// (kFull) or shape-only ones (kSimulateOnly), and each kernel computes
/// exactly when its operands have host storage.
enum class ExecMode {
  kFull,          ///< compute results and emit traces
  kSimulateOnly,  ///< emit traces only (results untouched)
};

/// Reduction operator for aggregation kernels. Both are order-insensitive,
/// which is what licenses neighbor grouping's atomic-merge strategy (paper
/// §4.1.2). kMax keeps the value 2 it had beside the removed mean reducer,
/// so the integer id that tests print for a reducer does not change.
enum class Reduce { kSum = 0, kMax = 2 };

/// A feature matrix living both on the host (for arithmetic) and in the
/// simulated device memory (for traces).
struct FeatureMat {
  Matrix* host = nullptr;      ///< null = shape only: kernels emit its traces, no math
  sim::Buffer buf;             ///< simulated allocation
  Index rows = 0;
  Index cols = 0;

  std::uint64_t row_bytes() const { return static_cast<std::uint64_t>(cols) * 4; }
  std::uint64_t row_offset(Index r) const { return static_cast<std::uint64_t>(r) * row_bytes(); }
};

/// Allocates a simulated buffer for `m` and returns the pair.
FeatureMat device_mat(sim::SimContext& ctx, Matrix& m, const char* name);

/// Allocates a simulated [rows x cols] buffer with no host storage: a
/// trace-only operand.
FeatureMat device_mat_shape(sim::SimContext& ctx, Index rows, Index cols, const char* name);

/// The graph structure resident in simulated device memory.
struct GraphOnDevice {
  const Csr* csr = nullptr;
  sim::Buffer row_ptr;  ///< (N+1) x 8 bytes
  sim::Buffer col_idx;  ///< E x 4 bytes
};

/// Uploads (allocates) the CSR arrays for `csr`.
GraphOnDevice device_graph(sim::SimContext& ctx, const Csr& csr, const char* name);

/// One aggregation task: center node `v`, neighbor sub-range
/// [begin, end) of its CSR row. Baselines use one task per node covering
/// the whole row; neighbor grouping emits several bounded tasks per
/// heavy node; locality-aware scheduling permutes the task order.
struct Task {
  NodeId v = 0;
  EdgeId begin = 0;
  EdgeId end = 0;

  EdgeId size() const { return end - begin; }
};

/// A task list plus whether any row was split (callers must enable
/// atomic merging in the kernels when it was).
struct GroupedTasks {
  std::vector<Task> tasks;
  bool any_split = false;
};

/// The one task-list builder (neighbor grouping, paper §4.1.2): splits
/// each row into tasks of at most `group_bound` edges, emitted
/// contiguously. Rows are visited in `order` (a LAS permutation) or
/// natural order when `order` is empty. `group_bound` <= 0 means whole
/// rows. An O(N) pass over row_ptr, cheap enough to redo whenever the
/// graph or the bound changes; core/balance picks the engine's bound.
GroupedTasks neighbor_group_tasks(const Csr& g, EdgeId group_bound,
                                  std::span<const NodeId> order = {});

/// One whole-row task per node, in natural node order (the DGL baseline's
/// task distribution).
std::vector<Task> natural_tasks(const Csr& csr);

/// Blocks of `per_block` items (rows, edges, nodes) covering `n` items.
inline std::size_t blocks_of(std::int64_t n, std::int64_t per_block) {
  return static_cast<std::size_t>((n + per_block - 1) / per_block);
}

/// Blocks per pool chunk when a kernel's `blocks` blocks are built: at
/// most 64 chunks and at least 8 blocks each. Depends on the block count
/// only, so the chunks are the same at any thread count.
std::size_t block_grain(std::size_t blocks);

/// Builds kernel `args.name` (phase `args.phase`) of `count` blocks for
/// ctx's device through sim::build_kernel: size(i) is block i's exact
/// access count and emit(i, blk) emits its accesses and costs, the blocks
/// of each chunk in order on one pool task. No chunk boundary falls before
/// a block i for which joined(i) holds: a kernel whose host math adds into
/// an output row that another block also writes joins those blocks, so
/// the row is summed in block order at any thread count. Each block writes
/// only its own slots of the trace, so every trace is byte-identical.
template <typename Args, typename Joined, typename Size, typename Emit>
sim::Kernel emit_blocks(const sim::SimContext& ctx, const Args& args, std::size_t count,
                        Joined&& joined, Size&& size, Emit&& emit) {
  return sim::build_kernel(args.name, args.phase, ctx.spec().total_block_slots(),
                           par::aligned_chunk_bounds(count, block_grain(count), joined), size,
                           emit);
}

/// emit_blocks for blocks whose host math writes rows no other block does.
template <typename Args, typename Size, typename Emit>
sim::Kernel emit_blocks(const sim::SimContext& ctx, const Args& args, std::size_t count,
                        Size&& size, Emit&& emit) {
  return emit_blocks(ctx, args, count, [](std::size_t) { return false; }, size, emit);
}

/// emit_blocks' `joined` for one block per task: the adjacent tasks of
/// one center node (a split row) accumulate into the same output row.
inline auto same_node(std::span<const Task> tasks) {
  return [tasks](std::size_t i) { return tasks[i].v == tasks[i - 1].v; };
}

/// Lane-padding factor for mapping a `feat_len`-wide row onto `lanes`
/// SIMD lanes: issued work / useful work = ceil(F/lanes)*lanes / F.
/// This is Observation 5's mechanism: a fixed mapping wastes lanes at
/// awkward feature lengths.
double pad_factor(Index feat_len, int lanes);

}  // namespace gnnbridge::kernels
