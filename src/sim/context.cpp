#include "sim/context.hpp"

#include <algorithm>
#include <vector>

#include "par/thread_pool.hpp"
#include "prof/span.hpp"
#include "rt/deadline.hpp"
#include "rt/fault.hpp"
#include "sim/scheduler.hpp"

namespace gnnbridge::sim {

namespace {

/// One turn of the co-residency interleave: `count` consecutive accesses
/// of block `block`, starting at `first`.
struct Turn {
  const Access* first = nullptr;
  std::uint32_t block = 0;
  std::uint32_t count = 0;
};

/// Pass 1: the interleave of the access streams of co-resident blocks.
/// Slot s holds the block currently occupying it; when a block's stream is
/// exhausted the next block in launch order takes the slot. Each turn a
/// block advances kChunk accesses — roughly one scheduling quantum of
/// memory instructions — whatever they hit, so the turn order does not
/// depend on the cache.
std::vector<Turn> interleave(const std::vector<BlockWork>& blocks, std::size_t wave) {
  constexpr std::size_t kChunk = 8;
  const std::size_t n = blocks.size();
  std::size_t total_turns = 0;
  for (const BlockWork& b : blocks) total_turns += (b.accesses.size() + kChunk - 1) / kChunk;
  std::vector<Turn> turns;
  turns.reserve(total_turns);
  std::vector<std::size_t> cursor(n, 0);

  std::vector<std::size_t> slots;
  slots.reserve(std::min(n, wave));
  std::size_t next_block = 0;
  while (next_block < n && slots.size() < wave) slots.push_back(next_block++);
  while (!slots.empty()) {
    for (std::size_t s = 0; s < slots.size();) {
      const std::size_t b = slots[s];
      const std::vector<Access>& accesses = blocks[b].accesses;
      const std::size_t take = std::min(kChunk, accesses.size() - cursor[b]);
      if (take > 0) {
        turns.push_back({accesses.data() + cursor[b], static_cast<std::uint32_t>(b),
                         static_cast<std::uint32_t>(take)});
        cursor[b] += take;
      }
      if (cursor[b] >= accesses.size()) {
        if (next_block < n) {
          slots[s] = next_block++;
          ++s;
        } else {
          slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(s));
        }
      } else {
        ++s;
      }
    }
  }
  return turns;
}

/// One set range's share of a replay: per-block hits and misses, and the
/// range's LRU clock after its last probe.
struct RangeReplay {
  std::vector<std::uint64_t> hits, misses;
  std::uint64_t tick = 0;
};

/// Pass 2 for the sets [lo, hi): every turn in order, probing only the
/// lines whose set the range owns, with a clock that starts at `tick`.
/// Touches no set outside the range, so ranges run concurrently.
RangeReplay replay_sets(SetAssocCache& l2, const std::vector<Turn>& turns, std::size_t blocks,
                        std::uint64_t tick, std::uint64_t lo, std::uint64_t hi) {
  RangeReplay r;
  r.hits.assign(blocks, 0);
  r.misses.assign(blocks, 0);
  const std::uint64_t width = hi - lo;
  for (const Turn& t : turns) {
    std::uint64_t h = 0, m = 0;
    for (const Access* a = t.first; a != t.first + t.count; ++a) {
      if (a->bytes == 0) continue;
      const std::uint64_t last = l2.line_of(a->addr + a->bytes - 1);
      for (std::uint64_t line = l2.line_of(a->addr); line <= last; ++line) {
        if (l2.set_of(line) - lo >= width) continue;  // another range's set
        ++(l2.probe(line, ++tick) ? h : m);
      }
    }
    r.hits[t.block] += h;
    r.misses[t.block] += m;
  }
  r.tick = tick;
  return r;
}

}  // namespace

SimContext::SimContext(DeviceSpec spec)
    : spec_(spec), l2_(spec.l2_bytes, spec.l2_ways, spec.line_bytes) {}

const KernelStats& SimContext::launch(Kernel kernel) {
  // Block-scheduling boundary: an expired deadline or cancelled token is
  // noticed here, before any new kernel work starts. Counting checkpoint —
  // the job completes the kernel that crosses its budget and cancels at
  // the next launch, so expiry is a function of sim-time alone.
  rt::throw_if_cancelled("SimContext::launch('" + kernel.name + "')");
  // Fault seam: this is the chokepoint every simulated kernel passes
  // through, several stack frames below APIs that return void or stats
  // references — hence the exception vehicle (see rt::StageFailure).
  rt::raise_if_armed(rt::kSeamSimLaunch, "SimContext::launch('" + kernel.name + "')");
  prof::Span span(kernel.name, "sim");
  KernelStats ks;
  ks.name = std::move(kernel.name);
  ks.phase = std::move(kernel.phase);
  ks.num_blocks = static_cast<int>(kernel.blocks.size());

  const std::size_t n = kernel.blocks.size();

  // --- Cache replay (DESIGN.md §5). Pass 1 records the co-residency
  // interleave; pass 2 replays it through the L2 with one contiguous set
  // range per host thread. A set's LRU state depends only on the order of
  // the accesses to that set, so the counts equal a sequential replay's at
  // any range count. Every range starts from the cache's clock, and the
  // clock then takes the largest range clock, so this launch's stamps
  // compare as newer than all earlier ones in every later launch, whichever
  // range owns a set then. Inside a parallel region (shard bodies, tuner
  // probes, batch jobs) more ranges would run inline, each rescanning the
  // whole interleave, so there is one.
  std::vector<std::uint64_t> hits(n, 0), misses(n, 0);
  {
    prof::Span replay_span("replay", "sim.stage");
    const std::vector<Turn> turns =
        interleave(kernel.blocks, static_cast<std::size_t>(spec_.total_block_slots()));
    const auto sets = static_cast<std::size_t>(l2_.num_sets());
    const std::size_t ranges = par::in_parallel_region()
                                   ? 1
                                   : std::min(static_cast<std::size_t>(par::max_threads()), sets);
    const std::uint64_t start = l2_.tick();
    std::vector<RangeReplay> replays(ranges);
    par::parallel_chunks(ranges, /*grain=*/1, [&](std::size_t r, std::size_t, std::size_t) {
      replays[r] = replay_sets(l2_, turns, n, start, r * sets / ranges, (r + 1) * sets / ranges);
    });
    std::uint64_t tick = start;
    for (const RangeReplay& rr : replays) {
      for (std::size_t b = 0; b < n; ++b) {
        hits[b] += rr.hits[b];
        misses[b] += rr.misses[b];
      }
      tick = std::max(tick, rr.tick);
    }
    l2_.set_tick(tick);
  }

  // --- Cost model: per-block duration = max(compute, memory) + extras.
  // The per-line costs assume a fully occupied device sharing bandwidth
  // across all block slots; a kernel that launches fewer blocks leaves
  // each one a bigger bandwidth share. Floor at 1/8: a single block is
  // still bounded by its SM's slice of the memory system.
  const double bw_share =
      std::clamp(static_cast<double>(n) / spec_.total_block_slots(), 1.0 / 8.0, 1.0);
  std::vector<Cycles> durations(n, 0.0);
  // Per-block durations are independent (disjoint writes); the counter
  // sums accumulate into per-chunk shards merged below in chunk index
  // order, so the totals are identical at any thread count. (The summed
  // doubles here are sums of exactly-representable per-block quantities,
  // so the shard grouping is also exact vs. a sequential fold.)
  struct CounterShard {
    std::uint64_t l2_hits = 0, l2_misses = 0;
    double flops = 0.0, issued_flops = 0.0;
    double atomic_cycles = 0.0;
    std::uint64_t atomic_bytes = 0;
    double adapter_cycles = 0.0;
    std::uint64_t adapter_bytes = 0;
    double pad_flops = 0.0, copy_flops = 0.0, tile_flops = 0.0;
  };
  const std::vector<CounterShard> shards = par::sharded_chunks<CounterShard>(
      n, par::kDefaultGrain,
      [&](CounterShard& shard, std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
        for (std::size_t b = begin; b < end; ++b) {
          const auto& blk = kernel.blocks[b];
          const Cycles compute = blk.issued_flops / spec_.flops_per_cycle_per_block;
          const Cycles memory = (static_cast<double>(hits[b]) * spec_.l2_hit_cycles_per_line +
                                 static_cast<double>(misses[b]) * spec_.dram_cycles_per_line) *
                                bw_share;
          durations[b] = std::max(compute, memory) + blk.extra_cycles;
          shard.l2_hits += hits[b];
          shard.l2_misses += misses[b];
          shard.flops += blk.flops;
          shard.issued_flops += blk.issued_flops;
          shard.atomic_cycles += blk.atomic_cycles;
          shard.atomic_bytes += blk.atomic_bytes;
          shard.adapter_cycles += blk.adapter_cycles;
          shard.adapter_bytes += blk.adapter_bytes;
          shard.pad_flops += blk.pad_flops;
          shard.copy_flops += blk.copy_flops;
          shard.tile_flops += blk.tile_flops;
        }
      });
  for (const CounterShard& shard : shards) {
    ks.l2_hits += shard.l2_hits;
    ks.l2_misses += shard.l2_misses;
    ks.flops += shard.flops;
    ks.issued_flops += shard.issued_flops;
    ks.atomic_cycles += shard.atomic_cycles;
    ks.atomic_bytes += shard.atomic_bytes;
    ks.adapter_cycles += shard.adapter_cycles;
    ks.adapter_bytes += shard.adapter_bytes;
    ks.pad_flops += shard.pad_flops;
    ks.copy_flops += shard.copy_flops;
    ks.tile_flops += shard.tile_flops;
  }
  ks.dram_bytes = ks.l2_misses * static_cast<std::uint64_t>(spec_.line_bytes);

  prof::Span schedule_span("schedule", "sim.stage");
  ScheduleResult sched = schedule_blocks(durations, spec_.total_block_slots());
  schedule_span.end();
  // Device-level bandwidth bound: however the blocks are scheduled, the
  // kernel cannot finish before its total traffic drains at full device
  // bandwidth. (The per-block per-line costs equal this bound divided by
  // the slot count, so a fully occupied grid already sits on it; the bound
  // bites for kernels with few, fat blocks.)
  const Cycles bandwidth_floor =
      (static_cast<double>(ks.l2_hits) * spec_.l2_hit_cycles_per_line +
       static_cast<double>(ks.l2_misses) * spec_.dram_cycles_per_line) /
      spec_.total_block_slots();
  ks.makespan = std::max(sched.makespan, bandwidth_floor);
  ks.balanced = sched.balanced;
  ks.timeline = std::move(sched.timeline);
  ks.cycles = spec_.kernel_launch_cycles + spec_.framework_overhead_cycles + ks.makespan;

  span.arg("cycles", ks.cycles);
  span.arg("blocks", ks.num_blocks);
  span.arg("l2_hit_rate", ks.l2_hit_rate());
  span.arg("flops", ks.flops);

  stats_.total_cycles += ks.cycles;
  rt::charge_sim_cycles(ks.cycles);  // advance the job's deadline clock
  // Every kernel boundary is a device-wide synchronization point: the host
  // serializes on the previous launch before issuing the next.
  stats_.global_syncs += 1;
  stats_.kernels.push_back(std::move(ks));
  return stats_.kernels.back();
}

}  // namespace gnnbridge::sim
