#include "sim/cache.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace gnnbridge::sim {

SetAssocCache::SetAssocCache(std::int64_t capacity_bytes, int ways, int line_bytes)
    : ways_(ways), line_bytes_(line_bytes) {
  assert(capacity_bytes > 0 && ways > 0 && line_bytes > 0);
  assert((line_bytes & (line_bytes - 1)) == 0 && "line size must be a power of two");
  const std::int64_t raw_sets = capacity_bytes / (static_cast<std::int64_t>(ways) * line_bytes);
  assert(raw_sets > 0);
  num_sets_ = 1 << (std::bit_width(static_cast<std::uint64_t>(raw_sets)) - 1);
  line_shift_ = std::bit_width(static_cast<std::uint64_t>(line_bytes)) - 1;
  set_mask_ = static_cast<std::uint64_t>(num_sets_) - 1;
  tags_.assign(static_cast<std::size_t>(num_sets_) * ways_, kEmpty);
  stamps_.assign(tags_.size(), 0);
}

bool SetAssocCache::probe(std::uint64_t line, std::uint64_t tick) {
  const std::uint64_t base = set_of(line) * static_cast<std::uint64_t>(ways_);
  std::uint64_t* tag = &tags_[base];
  std::uint64_t* stamp = &stamps_[base];

  int victim = 0;
  std::uint64_t oldest = ~0ull;
  for (int w = 0; w < ways_; ++w) {
    if (tag[w] == line) {
      stamp[w] = tick;
      return true;
    }
    if (tag[w] == kEmpty) {
      // Prefer an empty way outright.
      victim = w;
      oldest = 0;
    } else if (stamp[w] < oldest) {
      victim = w;
      oldest = stamp[w];
    }
  }
  tag[victim] = line;
  stamp[victim] = tick;
  return false;
}

bool SetAssocCache::access_line(std::uint64_t addr) {
  const bool hit = probe(line_of(addr), ++tick_);
  ++(hit ? total_hits_ : total_misses_);
  return hit;
}

CacheProbe SetAssocCache::access(std::uint64_t addr, std::uint32_t bytes) {
  CacheProbe p;
  if (bytes == 0) return p;
  const std::uint64_t last = line_of(addr + bytes - 1);
  for (std::uint64_t line = line_of(addr); line <= last; ++line) {
    ++p.lines;
    ++(access_line(line << line_shift_) ? p.hits : p.misses);
  }
  return p;
}

void SetAssocCache::clear() {
  std::fill(tags_.begin(), tags_.end(), kEmpty);
  std::fill(stamps_.begin(), stamps_.end(), 0);
  tick_ = 0;
}

}  // namespace gnnbridge::sim
