#include "layers.hpp"

#include <algorithm>
#include <map>
#include <string_view>

namespace perfbench {

namespace {

using gnnbridge::prof::SpanRecord;

enum class Owner { kEngine, kBaselines, kSim, kOther };

Owner owner_of(const SpanRecord& s) {
  if (s.category == "sim") return Owner::kSim;
  if (s.name == kPassSpanEngine || s.name.starts_with("OptimizedEngine::")) return Owner::kEngine;
  if (s.name == kPassSpanBaselines || s.category == "baseline") return Owner::kBaselines;
  return Owner::kOther;
}

double arg_of(const SpanRecord& s, std::string_view key) {
  for (const auto& [k, v] : s.args) {
    if (k == key) return v;
  }
  return 0.0;
}

double seconds(std::uint64_t us) { return static_cast<double>(us) * 1e-6; }

/// Spans of the core (LAS, neighbor grouping, tuner) and shard layers.
bool core_or_shard(const SpanRecord& s) {
  return s.name == "locality_aware_schedule" || s.name == "neighbor_grouping" ||
         s.name == "auto_tune" || s.name == "shard_partition";
}

/// Index of each span's parent on its own thread (-1 for roots), from the
/// recorded nesting depth: spans are sorted by start, and a span's parent
/// is the innermost still-open span one level up.
std::vector<int> parents_of(const std::vector<SpanRecord>& spans) {
  std::vector<int> order(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    const SpanRecord& x = spans[static_cast<std::size_t>(a)];
    const SpanRecord& y = spans[static_cast<std::size_t>(b)];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_us != y.start_us) return x.start_us < y.start_us;
    return x.depth < y.depth;
  });
  std::vector<int> parent(spans.size(), -1);
  std::vector<int> open;
  int tid = -1;
  for (int i : order) {
    const SpanRecord& s = spans[static_cast<std::size_t>(i)];
    if (s.tid != tid) {
      open.clear();
      tid = s.tid;
    }
    while (!open.empty() && spans[static_cast<std::size_t>(open.back())].depth >= s.depth) {
      open.pop_back();
    }
    if (!open.empty()) parent[static_cast<std::size_t>(i)] = open.back();
    open.push_back(i);
  }
  return parent;
}

}  // namespace

LayerTotals fold_spans(const std::vector<SpanRecord>& spans) {
  LayerTotals t;
  t.spans = static_cast<double>(spans.size());
  const std::vector<int> parent = parents_of(spans);
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (parent[i] >= 0) children[static_cast<std::size_t>(parent[i])].push_back(static_cast<int>(i));
  }
  const auto under_probe = [&](std::size_t i) {
    for (int p = parent[i]; p >= 0; p = parent[static_cast<std::size_t>(p)]) {
      const SpanRecord& s = spans[static_cast<std::size_t>(p)];
      if (s.name == "tune_probe" && s.category != "sim") return true;
    }
    return false;
  };

  // Tuner probes grouped by the tuner run whose window holds them (probes
  // run on pool workers, so the window, not the thread, ties them to it).
  struct Probe {
    std::uint64_t start_us = 0;
    double lanes = 0.0, bound = 0.0, cycles = 0.0;
  };
  std::vector<Probe> probes;
  std::vector<const SpanRecord*> tunes;

  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::vector<int> kids = children[i];
    std::sort(kids.begin(), kids.end(), [&](int a, int b) {
      return spans[static_cast<std::size_t>(a)].start_us < spans[static_cast<std::size_t>(b)].start_us;
    });
    switch (owner_of(s)) {
      case Owner::kSim:
        if (!under_probe(i)) t.sim_launch_s += seconds(s.duration_us);
        break;
      case Owner::kEngine:
      case Owner::kBaselines: {
        double self = seconds(s.duration_us);
        double trace = 0.0;
        std::uint64_t cursor = s.start_us;
        for (int k : kids) {
          const SpanRecord& c = spans[static_cast<std::size_t>(k)];
          self -= seconds(c.duration_us);
          if (c.category == "sim" && c.start_us >= cursor) trace += seconds(c.start_us - cursor);
          cursor = std::max(cursor, c.start_us + c.duration_us);
        }
        const double rest = std::max(0.0, self - trace);
        t.kernels_trace_s += trace;
        (owner_of(s) == Owner::kEngine ? t.engine_self_s : t.baselines_self_s) += rest;
        break;
      }
      case Owner::kOther: {
        bool nested = false;
        for (int p = parent[i]; p >= 0 && !nested; p = parent[static_cast<std::size_t>(p)]) {
          nested = core_or_shard(spans[static_cast<std::size_t>(p)]);
        }
        if (core_or_shard(s) && !nested) t.core_shard_s += seconds(s.duration_us);
        if (s.name == "locality_aware_schedule") {
          t.las_s += seconds(s.duration_us);
          t.las_calls += 1.0;
          t.las_clusters += arg_of(s, "nontrivial_clusters");
        } else if (s.name == "las/merge_pairs") {
          t.las_pairs += arg_of(s, "candidate_pairs");
        } else if (s.name == "neighbor_grouping") {
          t.ng_s += seconds(s.duration_us);
          t.ng_tasks += arg_of(s, "tasks");
        } else if (s.name == "auto_tune") {
          t.tuner_s += seconds(s.duration_us);
          t.tuner_runs += 1.0;
          tunes.push_back(&s);
        } else if (s.name == "tune_probe") {
          Probe p{s.start_us, arg_of(s, "lanes"), arg_of(s, "group_bound"), 0.0};
          for (int k : kids) {
            const SpanRecord& c = spans[static_cast<std::size_t>(k)];
            if (c.category == "sim") p.cycles += arg_of(c, "cycles");
          }
          probes.push_back(p);
          t.tuner_probes += 1.0;
        } else if (s.name == "shard_partition") {
          t.partition_s += seconds(s.duration_us);
          t.cut_edges += arg_of(s, "cut_edges");
          t.ghosts += arg_of(s, "ghosts");
        }
        break;
      }
    }
  }

  for (const SpanRecord* tune : tunes) {
    std::vector<const Probe*> mine;
    for (const Probe& p : probes) {
      if (p.start_us >= tune->start_us && p.start_us <= tune->start_us + tune->duration_us) {
        mine.push_back(&p);
      }
    }
    if (mine.empty()) continue;
    // The lane search holds every lane candidate at one neutral bound, so
    // that bound is the most frequent one.
    std::map<double, int> bound_freq;
    for (const Probe* p : mine) ++bound_freq[p->bound];
    const double neutral =
        std::max_element(bound_freq.begin(), bound_freq.end(),
                         [](const auto& a, const auto& b) { return a.second < b.second; })
            ->first;
    double heuristic = 0.0, best = 0.0;
    for (const Probe* p : mine) {
      if (p->lanes == 32.0 && p->bound == neutral) heuristic = p->cycles;
      if (best == 0.0 || p->cycles < best) best = p->cycles;
    }
    if (heuristic > 0.0 && best > 0.0) {
      t.tuner_heuristic_cycles += heuristic;
      t.tuner_best_cycles += best;
    }
  }
  return t;
}

}  // namespace perfbench
