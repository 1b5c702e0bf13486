// A reference LRU cache for the tests: one 64-bit tag and one 64-bit
// last-touch stamp per way, a scan of every way per probe. It is slow and
// obviously LRU, so the tests check sim::SetAssocCache's rank-based LRU,
// and the set-partitioned replay built on it, against it probe by probe.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gnnbridge::testing {

class StampLru {
 public:
  /// The geometry of sim::SetAssocCache(capacity_bytes, ways, line_bytes).
  StampLru(std::int64_t capacity_bytes, int ways, int line_bytes) : ways_(ways) {
    const std::int64_t raw_sets = capacity_bytes / (static_cast<std::int64_t>(ways) * line_bytes);
    num_sets_ = 1 << (std::bit_width(static_cast<std::uint64_t>(raw_sets)) - 1);
    tags_.assign(static_cast<std::size_t>(num_sets_) * ways_, kEmpty);
    stamps_.assign(tags_.size(), 0);
  }

  int num_sets() const { return num_sets_; }

  /// Touches line number `line`; returns whether it was resident. A miss
  /// fills an empty way, else the way with the oldest stamp.
  bool probe(std::uint64_t line) {
    const std::uint64_t base = base_of(line);
    std::uint64_t* tag = &tags_[base];
    std::uint64_t* stamp = &stamps_[base];
    ++tick_;
    int victim = 0;
    std::uint64_t oldest = ~0ull;
    for (int w = 0; w < ways_; ++w) {
      if (tag[w] == line) {
        stamp[w] = tick_;
        return true;
      }
      if (tag[w] == kEmpty) {
        victim = w;
        oldest = 0;
      } else if (stamp[w] < oldest) {
        victim = w;
        oldest = stamp[w];
      }
    }
    tag[victim] = line;
    stamp[victim] = tick_;
    return false;
  }

  /// Whether line number `line` is the most recently touched line of its
  /// set. Touches nothing.
  bool is_most_recent(std::uint64_t line) const {
    const std::uint64_t base = base_of(line);
    const auto newest = std::max_element(stamps_.begin() + static_cast<std::ptrdiff_t>(base),
                                         stamps_.begin() + static_cast<std::ptrdiff_t>(base) + ways_);
    return tags_[static_cast<std::size_t>(newest - stamps_.begin())] == line;
  }

 private:
  std::uint64_t base_of(std::uint64_t line) const {
    return (line & static_cast<std::uint64_t>(num_sets_ - 1)) * static_cast<std::uint64_t>(ways_);
  }

  int ways_;
  int num_sets_;
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> stamps_;
  std::uint64_t tick_ = 0;

  static constexpr std::uint64_t kEmpty = ~0ull;
};

}  // namespace gnnbridge::testing
