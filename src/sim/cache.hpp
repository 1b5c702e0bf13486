// Set-associative LRU cache model (the simulated L2).
//
// One shared L2 sits between all SMs and DRAM, exactly as on the V100. The
// replay drives it with the interleaved access streams of co-resident
// blocks, so hit rates respond to task ordering (locality-aware scheduling)
// and working-set size (neighbor grouping) — the mechanisms behind
// Figures 3 and 9 of the paper.
//
// Each set's LRU state depends only on the order of the accesses to that
// set, so disjoint set ranges can be replayed independently: `probe` takes
// the LRU clock value from its caller and touches one set only
// (SimContext::launch replays one set range per host thread, DESIGN.md §5).
#pragma once

#include <cstdint>
#include <vector>

namespace gnnbridge::sim {

/// Result of probing the cache with one access.
struct CacheProbe {
  std::uint32_t lines = 0;   ///< lines the access spanned
  std::uint32_t hits = 0;    ///< lines found resident
  std::uint32_t misses = 0;  ///< lines fetched from DRAM
};

/// Set-associative LRU cache over 64-bit line tags.
class SetAssocCache {
 public:
  /// `capacity_bytes` total, `ways` associativity, `line_bytes` per line.
  /// The set count is rounded down to a power of two for cheap indexing.
  SetAssocCache(std::int64_t capacity_bytes, int ways, int line_bytes);

  /// Line number of the line holding byte address `addr`.
  std::uint64_t line_of(std::uint64_t addr) const { return addr >> line_shift_; }
  /// Set that line number `line` maps to.
  std::uint64_t set_of(std::uint64_t line) const { return line & set_mask_; }

  /// The LRU probe: touches line number `line` at clock value `tick` and
  /// returns whether it was resident. A miss fills the line into an empty
  /// way, else over the least recently touched one. Writes allocate like
  /// reads. `tick` must exceed every stamp already in the line's set; the
  /// probe reads and writes that set only, so probes of distinct sets may
  /// run concurrently.
  bool probe(std::uint64_t line, std::uint64_t tick);

  /// The LRU clock: no stamp in the cache exceeds it.
  std::uint64_t tick() const { return tick_; }
  /// Sets the clock after a replay that stamped lines with its own ticks
  /// (up to `t`).
  void set_tick(std::uint64_t t) { tick_ = t; }

  /// Touches `bytes` bytes at `addr`, one probe per line at the next clock
  /// values; returns per-line hit/miss counts. A zero-byte access touches
  /// nothing.
  CacheProbe access(std::uint64_t addr, std::uint32_t bytes);

  /// Touches exactly one line containing `addr`.
  bool access_line(std::uint64_t addr);

  /// Invalidates everything.
  void clear();

  int ways() const { return ways_; }
  int num_sets() const { return num_sets_; }
  int line_bytes() const { return line_bytes_; }

  /// Hits and misses of `access`/`access_line` calls (probes the caller
  /// counts itself are not included).
  std::uint64_t total_hits() const { return total_hits_; }
  std::uint64_t total_misses() const { return total_misses_; }

 private:
  int ways_;
  int num_sets_;
  int line_bytes_;
  int line_shift_;
  std::uint64_t set_mask_;
  /// tags_[set * ways + w]; kEmpty means invalid.
  std::vector<std::uint64_t> tags_;
  /// LRU stamps parallel to tags_.
  std::vector<std::uint64_t> stamps_;
  std::uint64_t tick_ = 0;
  std::uint64_t total_hits_ = 0;
  std::uint64_t total_misses_ = 0;

  static constexpr std::uint64_t kEmpty = ~0ull;
};

}  // namespace gnnbridge::sim
