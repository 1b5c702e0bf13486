// Kernel and thread-block work descriptors, and the one kernel builder.
//
// A `Kernel` is what a backend submits to the simulated device: its thread
// blocks in launch order, each a `BlockWork` of costs, and their
// global-memory trace. Launch order is the lever locality-aware task
// scheduling pulls — blocks adjacent in launch order become co-resident and
// share L2 (DESIGN.md §5). `build_kernel` is the only way to make one: it
// lays the trace out once, in the order the L2 replay reads it, from each
// block's exact access count, and the blocks then write their accesses in
// place.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "par/thread_pool.hpp"
#include "sim/counters.hpp"
#include "sim/memory.hpp"

namespace gnnbridge::sim {

/// One global-memory touch: `bytes()` bytes starting at virtual address
/// `addr()`, packed into 8 bytes — the address in the low 40 bits (1 TiB
/// of simulated memory), the size in the high 24 (up to 16 MiB - 1). The
/// replay expands it to cache lines; loads and stores cost the same (the
/// L2 allocates on write).
class Access {
 public:
  static constexpr int kAddrBits = 40;
  static constexpr int kSizeBits = 24;

  /// Uninitialized: a laid-out trace is allocated without zero-filling.
  Access() = default;
  /// Throws std::out_of_range, in every build, when `addr` >= 2^40 or
  /// `bytes` >= 2^24.
  Access(std::uint64_t addr, std::uint64_t bytes) : bits_(addr | bytes << kAddrBits) {
    if ((addr >> kAddrBits | bytes >> kSizeBits) != 0) [[unlikely]] reject(addr, bytes);
  }

  std::uint64_t addr() const { return bits_ & kAddrMask; }
  std::uint64_t bytes() const { return bits_ >> kAddrBits; }

 private:
  static constexpr std::uint64_t kAddrMask = (std::uint64_t{1} << kAddrBits) - 1;
  [[noreturn]] static void reject(std::uint64_t addr, std::uint64_t bytes);
  std::uint64_t bits_;
};
static_assert(sizeof(Access) == 8);

/// Accesses a resident block issues per turn of the co-residency
/// interleave — roughly one scheduling quantum of memory instructions.
inline constexpr std::uint32_t kTurnAccesses = 8;

/// One turn of the co-residency interleave: block `block` issues the next
/// `count` accesses of the kernel's trace.
struct Turn {
  std::uint32_t block = 0;
  std::uint32_t count = 0;
};

namespace detail {
class KernelLayout;
}

/// The work of one thread block: its costs, and while its kernel is built,
/// the cursor its accesses are written through.
class BlockWork : public Costs {
 public:
  /// Extra fixed cycles (atomics, shared-memory adapters, reduction trees).
  double extra_cycles = 0.0;

  /// Emit a load and a store, in program order, inside build_kernel's
  /// `emit` callback. A block emits exactly as many as its `size` declared.
  void read(const Buffer& buf, std::uint64_t offset, std::uint64_t bytes_) {
    put(Access(buf.addr(offset), bytes_));
  }
  void write(const Buffer& buf, std::uint64_t offset, std::uint64_t bytes_) {
    put(Access(buf.addr(offset), bytes_));
  }
  /// Adds `f` useful flops issued at lane efficiency `f/issued`; the slack
  /// is lane-padding waste.
  void compute(double f, double issued) {
    flops += f;
    issued_flops += issued;
    pad_flops += issued - f;
  }
  /// Issues `moved` lane-ops that only copy data — zero useful flops.
  void compute_copy(double moved) {
    issued_flops += moved;
    copy_flops += moved;
  }
  /// Adds `f` useful flops issued across full tiles; the slack is
  /// boundary-tile waste.
  void compute_tiled(double f, double issued) {
    flops += f;
    issued_flops += issued;
    tile_flops += issued - f;
  }
  /// Charges an atomic merge: `c` cycles of serialization over `bytes_`
  /// bytes of contended output.
  void atomic_merge(double c, std::uint64_t bytes_) {
    extra_cycles += c;
    atomic_cycles += c;
    atomic_bytes += bytes_;
  }
  /// Charges a shared-memory/shuffle adapter handing `bytes_` bytes
  /// between fused stages in `c` cycles.
  void adapter(double c, std::uint64_t bytes_) {
    extra_cycles += c;
    adapter_cycles += c;
    adapter_bytes += bytes_;
  }

 private:
  friend class detail::KernelLayout;

  /// Writes the block's next access into its slot of the trace: access i
  /// is entry i % kTurnAccesses of the block's (i / kTurnAccesses)-th
  /// turn. One past the declared count writes nothing; the builder then
  /// refuses the block.
  void put(Access a) {
    if (emitted_ < declared_) [[likely]] {
      trace_[turn_offsets_[emitted_ / kTurnAccesses] + emitted_ % kTurnAccesses] = a;
    }
    ++emitted_;
  }

  Access* trace_ = nullptr;
  /// Trace offset of each of the block's turns, in order.
  std::uint64_t* turn_offsets_ = nullptr;
  std::uint32_t declared_ = 0;
  std::uint32_t emitted_ = 0;
};

/// A kernel ready to launch: named, with blocks in launch order and their
/// trace in turn order.
class Kernel {
 public:
  const std::string& name() const { return name_; }
  /// Phase tag for per-phase accounting (e.g. "expansion",
  /// "transformation" for Table 5).
  const std::string& phase() const { return phase_; }
  const std::vector<BlockWork>& blocks() const { return blocks_; }
  /// Every block's accesses, in turn order.
  std::span<const Access> trace() const { return {trace_.get(), trace_size_}; }
  /// The co-residency interleave: each turn's accesses are the next
  /// `count` entries of the trace.
  const std::vector<Turn>& turns() const { return turns_; }
  /// Block slots (DeviceSpec::total_block_slots) the interleave was laid
  /// out for.
  int slots() const { return slots_; }

 private:
  friend class detail::KernelLayout;
  Kernel() = default;

  std::string name_;
  std::string phase_;
  std::vector<BlockWork> blocks_;
  std::unique_ptr<Access[]> trace_;
  std::size_t trace_size_ = 0;
  std::vector<Turn> turns_;
  int slots_ = 0;
};

namespace detail {

/// build_kernel's callback-free half: declares each block's access count,
/// lays the trace out, and checks each block once emitted.
class KernelLayout {
 public:
  KernelLayout(std::string name, std::string phase, std::size_t blocks);

  /// Block `b` will emit exactly `accesses` accesses.
  void declare(std::size_t b, std::size_t accesses);
  /// Computes the co-residency interleave of `slots` block slots from the
  /// declared counts, allocates the trace in turn order and points every
  /// block's cursor at its turns. Records a `layout` span.
  void lay_out(int slots);
  BlockWork& block(std::size_t b) { return kernel_.blocks_[b]; }
  /// Throws std::logic_error, naming the kernel and the block, unless
  /// block `b` emitted exactly its declared count.
  void seal(std::size_t b);
  Kernel finish() &&;

 private:
  Kernel kernel_;
  /// Trace offset of every turn, grouped by block in launch order.
  std::unique_ptr<std::uint64_t[]> turn_offsets_;
};

}  // namespace detail

/// Builds a kernel of `bounds.back()` blocks for a device of `slots` block
/// slots: `size(b)` is the exact number of accesses block b emits, and
/// `emit(b, blk)` emits them through blk.read/write and sets the block's
/// costs. The trace is laid out from the sizes alone (DESIGN.md §5); then
/// each chunk of blocks [bounds[c], bounds[c+1]) is emitted in block order
/// by one pool task, straight into the blocks' turns. No trace depends on
/// the chunking. Throws std::logic_error, naming the kernel and the block,
/// when a block emits another count than it declared, and
/// std::out_of_range for an access Access cannot hold.
template <typename Size, typename Emit>
Kernel build_kernel(std::string name, std::string phase, int slots,
                    const std::vector<std::size_t>& bounds, Size&& size, Emit&& emit) {
  detail::KernelLayout layout(std::move(name), std::move(phase), bounds.back());
  par::parallel_ranges(bounds, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t b = begin; b < end; ++b) layout.declare(b, size(b));
  });
  layout.lay_out(slots);
  par::parallel_ranges(bounds, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t b = begin; b < end; ++b) {
      emit(b, layout.block(b));
      layout.seal(b);
    }
  });
  return std::move(layout).finish();
}

}  // namespace gnnbridge::sim
