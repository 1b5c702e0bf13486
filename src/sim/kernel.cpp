#include "sim/kernel.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "prof/span.hpp"

namespace gnnbridge::sim {

void Access::reject(std::uint64_t addr, std::uint64_t bytes) {
  throw std::out_of_range("sim::Access: " + std::to_string(bytes) + " bytes at address " +
                          std::to_string(addr) + " do not fit the packing (address below 2^" +
                          std::to_string(kAddrBits) + ", size below 2^" +
                          std::to_string(kSizeBits) + ")");
}

namespace detail {

namespace {
/// Turns a block of `accesses` accesses takes.
std::size_t turns_of(std::uint32_t accesses) {
  return (std::size_t{accesses} + kTurnAccesses - 1) / kTurnAccesses;
}
}  // namespace

KernelLayout::KernelLayout(std::string name, std::string phase, std::size_t blocks) {
  kernel_.name_ = std::move(name);
  kernel_.phase_ = std::move(phase);
  if (blocks > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("kernel '" + kernel_.name_ + "': " + std::to_string(blocks) +
                            " blocks; a turn names its block in 32 bits");
  }
  kernel_.blocks_.resize(blocks);
}

void KernelLayout::declare(std::size_t b, std::size_t accesses) {
  if (accesses > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("kernel '" + kernel_.name_ + "': block " + std::to_string(b) +
                            " declares " + std::to_string(accesses) +
                            " accesses; a block holds at most 2^32 - 1");
  }
  kernel_.blocks_[b].declared_ = static_cast<std::uint32_t>(accesses);
}

// The interleave of the access streams of co-resident blocks. Slot s holds
// the block currently occupying it; when a block's stream is exhausted the
// next block in launch order takes the slot and issues its first turn in
// the next round (a block without accesses still holds its slot for one
// round). Each turn a block advances kTurnAccesses accesses whatever they
// hit, so the turn order depends on the access counts alone.
void KernelLayout::lay_out(int slots) {
  prof::Span span("layout", "sim.stage");
  if (slots < 1) {
    throw std::invalid_argument("kernel '" + kernel_.name_ + "': laid out for " +
                                std::to_string(slots) + " block slots");
  }
  std::vector<BlockWork>& blocks = kernel_.blocks_;
  const std::size_t n = blocks.size();
  std::size_t total_turns = 0, total_accesses = 0;
  for (const BlockWork& w : blocks) {
    total_turns += turns_of(w.declared_);
    total_accesses += w.declared_;
  }
  kernel_.trace_ = std::make_unique_for_overwrite<Access[]>(total_accesses);
  kernel_.trace_size_ = total_accesses;
  kernel_.slots_ = slots;
  turn_offsets_ = std::make_unique_for_overwrite<std::uint64_t[]>(total_turns);
  std::uint64_t* first_offset = turn_offsets_.get();
  for (BlockWork& w : blocks) {
    w.trace_ = kernel_.trace_.get();
    w.turn_offsets_ = first_offset;
    first_offset += turns_of(w.declared_);
  }

  // A resident block: its accesses still to place, and where the trace
  // offset of its next turn goes.
  struct Slot {
    std::uint32_t block;
    std::uint32_t left;
    std::uint64_t* next_offset;
  };
  const auto slot_of = [&](std::uint32_t b) {
    return Slot{b, blocks[b].declared_, blocks[b].turn_offsets_};
  };
  std::vector<Slot> resident;
  resident.reserve(std::min(n, static_cast<std::size_t>(slots)));
  std::uint32_t next_block = 0;
  while (next_block < n && resident.size() < static_cast<std::size_t>(slots)) {
    resident.push_back(slot_of(next_block++));
  }
  kernel_.turns_.resize(total_turns);
  Turn* turn = kernel_.turns_.data();
  std::uint64_t offset = 0;
  while (!resident.empty()) {
    std::size_t kept = 0;
    for (Slot s : resident) {
      const std::uint32_t take = std::min(kTurnAccesses, s.left);
      if (take > 0) {
        *turn++ = {s.block, take};
        *s.next_offset++ = offset;
        offset += take;
        s.left -= take;
      }
      if (s.left > 0) {
        resident[kept++] = s;
      } else if (next_block < n) {
        resident[kept++] = slot_of(next_block++);
      }
    }
    resident.resize(kept);
  }
}

void KernelLayout::seal(std::size_t b) {
  BlockWork& w = kernel_.blocks_[b];
  if (w.emitted_ != w.declared_) {
    throw std::logic_error("kernel '" + kernel_.name_ + "': block " + std::to_string(b) +
                           " emitted " + std::to_string(w.emitted_) + " accesses but declared " +
                           std::to_string(w.declared_));
  }
  w.trace_ = nullptr;
  w.turn_offsets_ = nullptr;
}

Kernel KernelLayout::finish() && {
  turn_offsets_.reset();
  return std::move(kernel_);
}

}  // namespace detail

}  // namespace gnnbridge::sim
