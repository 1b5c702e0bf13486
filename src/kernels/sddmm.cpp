#include "kernels/sddmm.hpp"

#include <cassert>

namespace gnnbridge::kernels {

namespace {
constexpr double kTaskSetupCycles = 30.0;
}

const sim::KernelStats& u_add_v(sim::SimContext& ctx, const UAddVArgs& args) {
  assert(args.graph && args.src_scalar && args.dst_scalar && args.edge_out);
  const Csr& csr = *args.graph->csr;
  const bool full = args.src_scalar->host && args.dst_scalar->host && args.edge_out->host;

  const auto accesses = [&](std::size_t i) {
    const Task& t = args.tasks[i];
    return 2 + (t.size() > 0 ? 2 : 0) + static_cast<std::size_t>(t.size());
  };
  const auto emit = [&](std::size_t i, sim::BlockWork& blk) {
    const Task& t = args.tasks[i];
    blk.read(args.graph->row_ptr, static_cast<std::uint64_t>(t.v) * 8, 16);
    blk.read(args.dst_scalar->buf, args.dst_scalar->row_offset(t.v), 4);
    if (t.size() > 0) {
      blk.read(args.graph->col_idx, static_cast<std::uint64_t>(t.begin) * 4,
               static_cast<std::uint64_t>(t.size() * 4));
      blk.write(args.edge_out->buf, static_cast<std::uint64_t>(t.begin) * 4,
                static_cast<std::uint64_t>(t.size() * 4));
    }
    for (EdgeId e = t.begin; e < t.end; ++e) {
      const NodeId u = csr.col_idx[static_cast<std::size_t>(e)];
      blk.read(args.src_scalar->buf, args.src_scalar->row_offset(u), 4);
      if (full) {
        (*args.edge_out->host)(e, 0) =
            (*args.src_scalar->host)(u, 0) + (*args.dst_scalar->host)(t.v, 0);
      }
    }
    const double work = static_cast<double>(t.size());
    blk.compute(work, work);
    blk.extra_cycles = kTaskSetupCycles;
  };
  return ctx.launch(emit_blocks(ctx, args, args.tasks.size(), accesses, emit));
}

}  // namespace gnnbridge::kernels
