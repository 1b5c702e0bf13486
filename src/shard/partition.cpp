#include "shard/partition.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "rt/validate.hpp"

namespace gnnbridge::shard {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Seeds the label-propagation visit order and tie-breaks.
constexpr std::uint64_t kSeed = 0x9e3779b97f4a7c15ull;
/// Label-propagation refinement sweeps over all nodes.
constexpr int kSweeps = 4;
/// A move is allowed only while the destination stays under
/// kBalanceSlack x (total weight / k); weight(v) = 1 + degree(v).
constexpr double kBalanceSlack = 1.10;

/// Seeded node hash for the label-propagation visit order.
std::uint64_t mix(NodeId v) {
  std::uint64_t h = kFnvOffset ^ kSeed;
  std::uint64_t x = static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
  for (int i = 0; i < 4; ++i) {
    h ^= (x >> (i * 8)) & 0xffull;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

rt::Result<Partition> partition_graph(const Csr& g, int shards) {
  // The partitioner walks every row and indexes assign[] by column value,
  // so a corrupt CSR must be rejected before any of that arithmetic runs.
  if (rt::Status s = rt::validate_csr(g); !s.ok()) {
    return std::move(s).with_context("partition_graph");
  }

  Partition p;
  const NodeId n = g.num_nodes;
  p.k = std::clamp(shards, 1, std::max<int>(1, n));
  const int k = p.k;
  p.assign.assign(static_cast<std::size_t>(n), 0);

  // ---- Seed assignment: contiguous ranges balanced by node weight
  // (1 + degree), one shard guaranteed non-empty slice each.
  std::vector<double> loads(static_cast<std::size_t>(k), 0.0);
  std::vector<NodeId> counts(static_cast<std::size_t>(k), 0);
  double total_weight = 0.0;
  for (NodeId v = 0; v < n; ++v) total_weight += 1.0 + static_cast<double>(g.degree(v));
  {
    int s = 0;
    double cum = 0.0;
    for (NodeId v = 0; v < n; ++v) {
      const NodeId remaining = n - v;
      if (counts[static_cast<std::size_t>(s)] > 0) {
        if (s + 1 < k && remaining == static_cast<NodeId>(k - s)) {
          ++s;  // exactly one node left per remaining shard
        } else if (s + 1 < k &&
                   cum >= total_weight * static_cast<double>(s + 1) / static_cast<double>(k)) {
          ++s;
        }
      }
      p.assign[static_cast<std::size_t>(v)] = s;
      counts[static_cast<std::size_t>(s)] += 1;
      const double w = 1.0 + static_cast<double>(g.degree(v));
      loads[static_cast<std::size_t>(s)] += w;
      cum += w;
    }
  }

  // ---- Label-propagation refinement: visit nodes in a seeded order and
  // move each to the in-neighbor-majority shard while the balance cap
  // holds. Affinity counting uses a sparse-reset scratch so a sweep is
  // O(V + E) regardless of k.
  if (k > 1 && n > 0) {
    const double cap = kBalanceSlack * total_weight / static_cast<double>(k);
    std::vector<NodeId> visit(static_cast<std::size_t>(n));
    std::iota(visit.begin(), visit.end(), 0);
    std::sort(visit.begin(), visit.end(), [&](NodeId a, NodeId b) {
      const std::uint64_t ha = mix(a), hb = mix(b);
      return ha != hb ? ha < hb : a < b;
    });
    std::vector<EdgeId> affinity(static_cast<std::size_t>(k), 0);
    std::vector<int> touched;
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      bool moved = false;
      for (const NodeId v : visit) {
        const int cur = p.assign[static_cast<std::size_t>(v)];
        if (counts[static_cast<std::size_t>(cur)] <= 1) continue;
        touched.clear();
        for (const NodeId u : g.neighbors(v)) {
          const int su = p.assign[static_cast<std::size_t>(u)];
          if (affinity[static_cast<std::size_t>(su)] == 0) touched.push_back(su);
          affinity[static_cast<std::size_t>(su)] += 1;
        }
        // Best destination: highest affinity; ties keep the current shard,
        // then the lowest shard id (all deterministic).
        int best = cur;
        EdgeId best_aff = affinity[static_cast<std::size_t>(cur)];
        for (const int s : touched) {
          if (affinity[static_cast<std::size_t>(s)] > best_aff ||
              (affinity[static_cast<std::size_t>(s)] == best_aff && s != cur && best != cur &&
               s < best)) {
            best = s;
            best_aff = affinity[static_cast<std::size_t>(s)];
          }
        }
        const double w = 1.0 + static_cast<double>(g.degree(v));
        if (best != cur && loads[static_cast<std::size_t>(best)] + w <= cap) {
          p.assign[static_cast<std::size_t>(v)] = best;
          loads[static_cast<std::size_t>(cur)] -= w;
          loads[static_cast<std::size_t>(best)] += w;
          counts[static_cast<std::size_t>(cur)] -= 1;
          counts[static_cast<std::size_t>(best)] += 1;
          moved = true;
        }
        for (const int s : touched) affinity[static_cast<std::size_t>(s)] = 0;
      }
      if (!moved) break;
    }
  }

  // ---- Local id of every node within its owning shard (owned lists are
  // ascending, so a counting pass assigns them directly).
  std::vector<NodeId> owned_index(static_cast<std::size_t>(n), 0);
  {
    std::vector<NodeId> next(static_cast<std::size_t>(k), 0);
    for (NodeId v = 0; v < n; ++v) {
      const int s = p.assign[static_cast<std::size_t>(v)];
      owned_index[static_cast<std::size_t>(v)] = next[static_cast<std::size_t>(s)]++;
    }
  }

  // ---- Materialize each shard: owned list, ghost table, local CSR with
  // remapped columns and the local-edge -> global-edge origin map.
  p.shards.resize(static_cast<std::size_t>(k));
  std::vector<NodeId> ghost_slot(static_cast<std::size_t>(n), -1);  // sparse-reset scratch
  for (int s = 0; s < k; ++s) {
    Shard& sh = p.shards[static_cast<std::size_t>(s)];
    sh.owned.reserve(static_cast<std::size_t>(counts[static_cast<std::size_t>(s)]));
    for (NodeId v = 0; v < n; ++v) {
      if (p.assign[static_cast<std::size_t>(v)] == s) sh.owned.push_back(v);
    }
    // Pass 1: collect remote sources (ascending by construction of the
    // second loop below — collect then sort to keep it obvious).
    for (const NodeId v : sh.owned) {
      for (const NodeId u : g.neighbors(v)) {
        if (p.assign[static_cast<std::size_t>(u)] != s &&
            ghost_slot[static_cast<std::size_t>(u)] < 0) {
          ghost_slot[static_cast<std::size_t>(u)] = 0;  // mark; index assigned after sort
          sh.ghosts.push_back(u);
        }
      }
    }
    std::sort(sh.ghosts.begin(), sh.ghosts.end());
    for (NodeId i = 0; i < static_cast<NodeId>(sh.ghosts.size()); ++i) {
      ghost_slot[static_cast<std::size_t>(sh.ghosts[static_cast<std::size_t>(i)])] = i;
    }
    // Pass 2: local CSR. Owned rows keep their global neighbor order;
    // ghost rows are empty.
    const NodeId own = sh.num_owned();
    const NodeId n_loc = own + static_cast<NodeId>(sh.ghosts.size());
    sh.local.num_nodes = n_loc;
    sh.local.row_ptr.assign(static_cast<std::size_t>(n_loc) + 1, 0);
    EdgeId local_edges = 0;
    for (const NodeId v : sh.owned) local_edges += g.degree(v);
    sh.local.col_idx.reserve(static_cast<std::size_t>(local_edges));
    sh.edge_origin.reserve(static_cast<std::size_t>(local_edges));
    for (NodeId r = 0; r < own; ++r) {
      const NodeId v = sh.owned[static_cast<std::size_t>(r)];
      const EdgeId begin = g.row_ptr[static_cast<std::size_t>(v)];
      const EdgeId end = g.row_ptr[static_cast<std::size_t>(v) + 1];
      for (EdgeId e = begin; e < end; ++e) {
        const NodeId u = g.col_idx[static_cast<std::size_t>(e)];
        const NodeId lu = p.assign[static_cast<std::size_t>(u)] == s
                              ? owned_index[static_cast<std::size_t>(u)]
                              : own + ghost_slot[static_cast<std::size_t>(u)];
        sh.local.col_idx.push_back(lu);
        sh.edge_origin.push_back(e);
      }
      sh.local.row_ptr[static_cast<std::size_t>(r) + 1] =
          static_cast<EdgeId>(sh.local.col_idx.size());
    }
    for (NodeId r = own; r < n_loc; ++r) {
      sh.local.row_ptr[static_cast<std::size_t>(r) + 1] =
          static_cast<EdgeId>(sh.local.col_idx.size());
    }
    // Exchange routing.
    sh.ghost_owner.reserve(sh.ghosts.size());
    sh.ghost_owner_row.reserve(sh.ghosts.size());
    for (const NodeId u : sh.ghosts) {
      sh.ghost_owner.push_back(p.assign[static_cast<std::size_t>(u)]);
      sh.ghost_owner_row.push_back(owned_index[static_cast<std::size_t>(u)]);
    }
    p.total_ghosts += static_cast<NodeId>(sh.ghosts.size());
    // Reset scratch for the next shard.
    for (const NodeId u : sh.ghosts) ghost_slot[static_cast<std::size_t>(u)] = -1;
  }

  for (NodeId v = 0; v < n; ++v) {
    const int sv = p.assign[static_cast<std::size_t>(v)];
    for (const NodeId u : g.neighbors(v)) {
      if (p.assign[static_cast<std::size_t>(u)] != sv) ++p.cut_edges;
    }
  }
  return p;
}

}  // namespace gnnbridge::shard
