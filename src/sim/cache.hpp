// Set-associative LRU cache model (the simulated L2).
//
// One shared L2 sits between all SMs and DRAM, exactly as on the V100. The
// replay drives it with the interleaved access streams of co-resident
// blocks, so hit rates respond to task ordering (locality-aware scheduling)
// and working-set size (neighbor grouping) — the mechanisms behind
// Figures 3 and 9 of the paper.
//
// Each set's LRU state depends only on the order of the accesses to that
// set, so disjoint set ranges can be replayed independently: `probe` reads
// and writes one set only (SimContext::launch replays one set range per
// host thread, DESIGN.md §5).
#pragma once

#include <cstdint>
#include <vector>

namespace gnnbridge::sim {

/// Set-associative LRU cache. Each way holds a 32-bit tag (the line number
/// without its set bits) and a recency rank: the ranks of a set are a
/// permutation of 0 .. ways-1, 0 the most recently touched way. A dense
/// array holds each set's rank-0 tag, 4 bytes a set, and answers a re-touch
/// of the set's most recent line without reading its tags or ranks: such a
/// hit changes no rank, so the answer is the full probe's.
class SetAssocCache {
 public:
  /// `capacity_bytes` total, `ways` associativity (1 to 255), `line_bytes`
  /// per line, a power of two. The set count is rounded down to a power of
  /// two for cheap indexing. Throws std::invalid_argument, in every build,
  /// for a non-positive capacity, a line size that is not a positive power
  /// of two, a way count outside 1 to 255, and a capacity below one set
  /// (`ways` lines).
  SetAssocCache(std::int64_t capacity_bytes, int ways, int line_bytes);

  /// Line number of the line holding byte address `addr`.
  std::uint64_t line_of(std::uint64_t addr) const { return addr >> line_shift_; }
  /// Set that line number `line` maps to.
  std::uint64_t set_of(std::uint64_t line) const { return line & set_mask_; }

  /// The LRU probe: touches line number `line` and returns whether it was
  /// resident. A miss fills the line into an empty way, else over the least
  /// recently touched one. Writes allocate like reads. The probe reads and
  /// writes the line's set only, so probes of distinct sets may run
  /// concurrently. Throws std::out_of_range when the line's tag does not
  /// fit in 32 bits.
  bool probe(std::uint64_t line);

  /// Probes the `count` consecutive lines from line number `first`, in
  /// order; returns how many were resident.
  std::uint64_t probe_run(std::uint64_t first, std::uint64_t count);

  /// Invalidates everything.
  void clear();

  int ways() const { return ways_; }
  int num_sets() const { return num_sets_; }
  int line_bytes() const { return line_bytes_; }

 private:
  /// probe's body, inlined into probe and probe_run.
  bool probe_line(std::uint64_t line);

  int ways_;
  int num_sets_;
  int line_bytes_;
  int line_shift_;
  int set_shift_;
  std::uint64_t set_mask_;
  /// Lanes per set: `ways_` rounded up to whole 16-lane groups. The pad
  /// lanes hold kNoTag and kPadRank, so they never match and never age.
  int lanes_;
  /// tags_[set * lanes_ + w]; kNoTag in empty ways and pad lanes.
  std::vector<std::uint32_t> tags_;
  /// Recency ranks parallel to tags_.
  std::vector<std::uint8_t> ranks_;
  /// mru_[set]: the tag of the set's rank-0 way (kNoTag while it is empty).
  std::vector<std::uint32_t> mru_;

  static constexpr std::uint32_t kNoTag = ~0u;
  static constexpr std::uint8_t kPadRank = 0xFF;
};

}  // namespace gnnbridge::sim
