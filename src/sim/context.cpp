#include "sim/context.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "par/thread_pool.hpp"
#include "prof/span.hpp"
#include "rt/fault.hpp"
#include "sim/scheduler.hpp"

namespace gnnbridge::sim {

namespace {

/// One set range's share of a replay: per-block hits and misses.
struct RangeReplay {
  std::vector<std::uint64_t> hits, misses;
};

/// The replay of the sets [lo, hi): the kernel's trace streamed in turn
/// order, probing only the lines whose set the range owns. Touches no set
/// outside the range, so ranges run concurrently. Consecutive lines map to
/// consecutive sets, so the owned lines of an access are whole runs: one
/// from the first owned line up to set hi - 1, and after it one per
/// `sets` lines, each starting at set lo. Finding a run is arithmetic on
/// the access's first set; no line outside it is looked at.
RangeReplay replay_sets(SetAssocCache& l2, const Kernel& kernel, std::uint64_t lo,
                        std::uint64_t hi) {
  RangeReplay r;
  r.hits.assign(kernel.blocks().size(), 0);
  r.misses.assign(kernel.blocks().size(), 0);
  const auto sets = static_cast<std::uint64_t>(l2.num_sets());
  const std::uint64_t width = hi - lo;
  const Access* a = kernel.trace().data();
  for (const Turn& t : kernel.turns()) {
    std::uint64_t lines = 0, hits = 0;
    for (const Access* end = a + t.count; a != end; ++a) {
      if (a->bytes() == 0) continue;
      std::uint64_t line = l2.line_of(a->addr());
      const std::uint64_t last = l2.line_of(a->addr() + a->bytes() - 1);
      // How far the line's set lies past lo, modulo the set count.
      std::uint64_t into = (l2.set_of(line) - lo) & (sets - 1);
      if (into >= width) {  // skip to the next line of set lo
        line += sets - into;
        into = 0;
      }
      while (line <= last) {
        const std::uint64_t run = std::min(width - into, last - line + 1);
        hits += l2.probe_run(line, run);
        lines += run;
        line += sets - into;
        into = 0;
      }
    }
    r.hits[t.block] += hits;
    r.misses[t.block] += lines - hits;
  }
  return r;
}

}  // namespace

SimContext::SimContext(DeviceSpec spec)
    : spec_(spec), l2_(spec.l2_bytes, spec.l2_ways, spec.line_bytes) {}

const KernelStats& SimContext::launch(Kernel kernel) {
  // Fault seam: this is the chokepoint every simulated kernel passes
  // through, several stack frames below APIs that return void or stats
  // references — hence the exception vehicle (see rt::StageFailure).
  rt::raise_if_armed(rt::kSeamSimLaunch, "SimContext::launch('" + kernel.name() + "')");
  if (kernel.slots() != spec_.total_block_slots()) {
    throw std::invalid_argument("SimContext::launch('" + kernel.name() +
                                "'): the trace is laid out for " + std::to_string(kernel.slots()) +
                                " block slots; the device has " +
                                std::to_string(spec_.total_block_slots()));
  }
  prof::Span span(kernel.name(), "sim");
  KernelStats ks;
  ks.name = kernel.name();
  ks.phase = kernel.phase();
  ks.num_blocks = static_cast<int>(kernel.blocks().size());

  const std::vector<BlockWork>& blocks = kernel.blocks();
  const std::size_t n = blocks.size();

  // --- Cache replay (DESIGN.md §5): the trace, laid out in co-residency
  // order when the kernel was built, streamed through the L2 with one
  // contiguous set range per host thread. A set's LRU state depends only
  // on the order of the accesses to that set, so the counts equal a
  // sequential replay's at any range count, and a set's recency ranks
  // carry over to the next launch whichever range owns the set then.
  // Inside a parallel region (shard bodies, tuner probes, batch jobs) more
  // ranges would run inline, each streaming the whole trace, so there is
  // one.
  std::vector<std::uint64_t> hits(n, 0), misses(n, 0);
  {
    prof::Span replay_span("replay", "sim.stage");
    const auto sets = static_cast<std::size_t>(l2_.num_sets());
    const std::size_t ranges = par::in_parallel_region()
                                   ? 1
                                   : std::min(static_cast<std::size_t>(par::max_threads()), sets);
    std::vector<RangeReplay> replays(ranges);
    par::parallel_chunks(ranges, /*grain=*/1, [&](std::size_t r, std::size_t, std::size_t) {
      replays[r] = replay_sets(l2_, kernel, r * sets / ranges, (r + 1) * sets / ranges);
    });
    for (const RangeReplay& rr : replays) {
      for (std::size_t b = 0; b < n; ++b) {
        hits[b] += rr.hits[b];
        misses[b] += rr.misses[b];
      }
    }
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
    std::uint64_t hits = 0, misses = 0;
    Costs costs;
  };
  const std::vector<CounterShard> shards = par::sharded_chunks<CounterShard>(
      n, par::kDefaultGrain,
      [&](CounterShard& shard, std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
        for (std::size_t b = begin; b < end; ++b) {
          const BlockWork& blk = blocks[b];
          const Cycles compute = blk.issued_flops / spec_.flops_per_cycle_per_block;
          const Cycles memory = (static_cast<double>(hits[b]) * spec_.l2_hit_cycles_per_line +
                                 static_cast<double>(misses[b]) * spec_.dram_cycles_per_line) *
                                bw_share;
          durations[b] = std::max(compute, memory) + blk.extra_cycles;
          shard.hits += hits[b];
          shard.misses += misses[b];
          shard.costs += blk;
        }
      });
  for (const CounterShard& shard : shards) {
    ks.l2_hits += shard.hits;
    ks.l2_misses += shard.misses;
    ks += shard.costs;
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
  // Every kernel boundary is a device-wide synchronization point: the host
  // serializes on the previous launch before issuing the next.
  stats_.global_syncs += 1;
  stats_.kernels.push_back(std::move(ks));
  return stats_.kernels.back();
}

}  // namespace gnnbridge::sim
