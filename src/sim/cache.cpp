#include "sim/cache.hpp"

#include <emmintrin.h>  // SSE2, part of the x86-64 baseline ISA

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace gnnbridge::sim {

namespace {

constexpr int kGroup = 16;  // ways per SSE2 group: 16 rank bytes, 4x4 tags

[[noreturn]] void reject_tag(std::uint64_t line) {
  throw std::out_of_range("SetAssocCache: the tag of line " + std::to_string(line) +
                          " does not fit in 32 bits");
}

}  // namespace

SetAssocCache::SetAssocCache(std::int64_t capacity_bytes, int ways, int line_bytes)
    : ways_(ways), line_bytes_(line_bytes) {
  if (capacity_bytes <= 0) {
    throw std::invalid_argument("SetAssocCache: capacity of " + std::to_string(capacity_bytes) +
                                " bytes; it must be positive");
  }
  if (line_bytes <= 0 || !std::has_single_bit(static_cast<unsigned>(line_bytes))) {
    throw std::invalid_argument("SetAssocCache: " + std::to_string(line_bytes) +
                                "-byte lines; the line size must be a positive power of two");
  }
  // Ranks are bytes, and kPadRank must stay above every real rank.
  if (ways < 1 || ways > kPadRank) {
    throw std::invalid_argument("SetAssocCache: " + std::to_string(ways) +
                                " ways; the model supports 1 to 255");
  }
  const std::int64_t raw_sets = capacity_bytes / (static_cast<std::int64_t>(ways) * line_bytes);
  if (raw_sets == 0) {
    throw std::invalid_argument("SetAssocCache: " + std::to_string(capacity_bytes) +
                                " bytes hold no set of " + std::to_string(ways) + " ways of " +
                                std::to_string(line_bytes) + "-byte lines");
  }
  num_sets_ = 1 << (std::bit_width(static_cast<std::uint64_t>(raw_sets)) - 1);
  line_shift_ = std::bit_width(static_cast<std::uint64_t>(line_bytes)) - 1;
  set_shift_ = std::bit_width(static_cast<std::uint64_t>(num_sets_)) - 1;
  set_mask_ = static_cast<std::uint64_t>(num_sets_) - 1;
  lanes_ = (ways_ + kGroup - 1) / kGroup * kGroup;
  tags_.resize(static_cast<std::size_t>(num_sets_) * lanes_);
  ranks_.resize(tags_.size());
  mru_.resize(static_cast<std::size_t>(num_sets_));
  clear();
}

// Exact LRU by ranks. Touching the way of rank r (the hit way, or on a miss
// the way of rank ways-1) ages every way ranked below r by one and gives it
// rank 0; ways ranked above r keep theirs. That keeps the ranks a
// permutation ordered by last touch, the order a stamp per way records. An
// empty way never hits, so it only ever ages and stays ranked above every
// filled way: the miss victim is an empty way whenever one exists.
//
// A hit on the rank-0 way (r = 0) ages nothing and keeps the way at rank 0,
// so it changes no state: mru_ answers it alone. Every other probe leaves
// the way it touched, which then holds its tag, at rank 0, and stores that
// tag in mru_, so mru_ always holds the set's rank-0 tag.
[[gnu::always_inline]] inline bool SetAssocCache::probe_line(std::uint64_t line) {
  const std::uint64_t wide_tag = line >> set_shift_;
  if (wide_tag >= kNoTag) [[unlikely]] reject_tag(line);
  const auto tag = static_cast<std::uint32_t>(wide_tag);
  const std::uint64_t set = set_of(line);
  if (mru_[set] == tag) return true;
  mru_[set] = tag;
  const std::size_t base = set * static_cast<std::size_t>(lanes_);
  std::uint32_t* tags = &tags_[base];
  std::uint8_t* ranks = &ranks_[base];
  const int groups = lanes_ / kGroup;

  // The way holding the tag: four compares of four lanes per group.
  const __m128i key = _mm_set1_epi32(static_cast<int>(tag));
  const auto match = [&](const std::uint32_t* t) {
    const __m128i eq = _mm_cmpeq_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(t)), key);
    return _mm_movemask_ps(_mm_castsi128_ps(eq));
  };
  int way = -1;
  for (int g = 0; g < groups && way < 0; ++g) {
    const std::uint32_t* t = tags + g * kGroup;
    const int m = match(t) | match(t + 4) << 4 | match(t + 8) << 8 | match(t + 12) << 12;
    if (m != 0) way = g * kGroup + std::countr_zero(static_cast<unsigned>(m));
  }
  const bool hit = way >= 0;

  const auto r = static_cast<char>(hit ? ranks[way] : ways_ - 1);
  const __m128i touched = _mm_set1_epi8(r);
  const __m128i one = _mm_set1_epi8(1);
  for (int g = 0; g < groups; ++g) {
    auto* p = reinterpret_cast<__m128i*>(ranks + g * kGroup);
    const __m128i rank = _mm_loadu_si128(p);
    const __m128i is_touched = _mm_cmpeq_epi8(rank, touched);
    if (!hit) {  // the victim: the way of rank ways-1
      const int m = _mm_movemask_epi8(is_touched);
      if (m != 0) way = g * kGroup + std::countr_zero(static_cast<unsigned>(m));
    }
    // rank + (rank < r ? 1 : 0), unsigned: r - rank saturates to 0 unless
    // rank < r.
    const __m128i aged = _mm_add_epi8(rank, _mm_min_epu8(_mm_subs_epu8(touched, rank), one));
    _mm_storeu_si128(p, _mm_andnot_si128(is_touched, aged));
  }
  if (!hit) tags[way] = tag;
  return hit;
}

bool SetAssocCache::probe(std::uint64_t line) { return probe_line(line); }

std::uint64_t SetAssocCache::probe_run(std::uint64_t first, std::uint64_t count) {
  std::uint64_t hits = 0;
  for (std::uint64_t i = 0; i < count; ++i) hits += probe_line(first + i);
  return hits;
}

void SetAssocCache::clear() {
  std::fill(tags_.begin(), tags_.end(), kNoTag);
  std::fill(mru_.begin(), mru_.end(), kNoTag);
  for (std::size_t i = 0; i < ranks_.size(); ++i) {
    const auto w = static_cast<int>(i % static_cast<std::size_t>(lanes_));
    ranks_[i] = w < ways_ ? static_cast<std::uint8_t>(w) : kPadRank;
  }
}

}  // namespace gnnbridge::sim
