#include "graph/generators.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "graph/bucket.hpp"

namespace gnnbridge::graph {

DiscreteSampler::DiscreteSampler(std::span<const double> weights) {
  const std::size_t n = weights.size();
  assert(n > 0);
  prob_.resize(n);
  alias_.resize(n);

  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  assert(total > 0.0);

  // Scaled probabilities; classic two-worklist alias construction.
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) scaled[i] = weights[i] * static_cast<double>(n) / total;

  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (std::uint32_t i : large) {
    prob_[i] = 1.0;
    alias_[i] = i;
  }
  for (std::uint32_t i : small) {
    prob_[i] = 1.0;
    alias_[i] = i;
  }
}

std::size_t DiscreteSampler::sample(Rng& rng) const {
  const std::size_t i = rng.below(prob_.size());
  return rng.uniform() < prob_[i] ? i : alias_[i];
}

std::vector<double> power_law_degrees(NodeId n, double avg_degree, double alpha,
                                      double max_degree) {
  assert(n > 0 && avg_degree >= 1.0 && max_degree >= avg_degree);
  std::vector<double> raw(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    raw[static_cast<std::size_t>(i)] = std::pow(static_cast<double>(i) + 1.0, -alpha);
  }
  // Bisection on the scale factor c so that mean(clamp(c*raw, 1, max)) hits
  // avg_degree. Monotone in c, so bisection converges.
  auto mean_for = [&](double c) {
    double sum = 0.0;
    for (double r : raw) sum += std::clamp(c * r, 1.0, max_degree);
    return sum / static_cast<double>(n);
  };
  double lo = 1.0, hi = max_degree * static_cast<double>(n);
  for (int it = 0; it < 100; ++it) {
    const double mid = 0.5 * (lo + hi);
    (mean_for(mid) < avg_degree ? lo : hi) = mid;
  }
  const double c = 0.5 * (lo + hi);
  std::vector<double> out(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::clamp(c * raw[i], 1.0, max_degree);
  return out;
}

Coo chung_lu(std::span<const double> degrees, Rng& rng) {
  const NodeId n = static_cast<NodeId>(degrees.size());
  const double total = std::accumulate(degrees.begin(), degrees.end(), 0.0);
  const EdgeId target_edges = static_cast<EdgeId>(total / 2.0);

  DiscreteSampler sampler(degrees);
  Coo coo;
  coo.num_nodes = n;
  coo.src.reserve(static_cast<std::size_t>(target_edges));
  coo.dst.reserve(static_cast<std::size_t>(target_edges));
  for (EdgeId e = 0; e < target_edges; ++e) {
    const NodeId u = static_cast<NodeId>(sampler.sample(rng));
    const NodeId v = static_cast<NodeId>(sampler.sample(rng));
    if (u == v) continue;
    coo.add_edge(u, v);
  }
  return symmetrize(coo);
}

Coo planted_partition(NodeId n, NodeId community_size, double avg_degree,
                      double frac_within, Rng& rng, NodeId anchors) {
  assert(community_size > 1 && community_size <= n);
  assert(frac_within >= 0.0 && frac_within <= 1.0);
  assert(anchors >= 0 && anchors <= community_size);
  Coo coo;
  coo.num_nodes = n;
  // Each undirected edge contributes 2 to total degree; drawing
  // avg_degree/2 stubs per node hits the target mean after symmetrization.
  const int stubs = std::max(1, static_cast<int>(std::lround(avg_degree / 2.0)));
  for (NodeId v = 0; v < n; ++v) {
    const NodeId comm_begin = (v / community_size) * community_size;
    const NodeId comm_end = std::min<NodeId>(comm_begin + community_size, n);
    const NodeId comm_n = comm_end - comm_begin;
    for (int s = 0; s < stubs; ++s) {
      NodeId u;
      if (rng.uniform() < frac_within && comm_n > 1) {
        const NodeId pool = anchors > 0 ? std::min(anchors, comm_n) : comm_n;
        u = comm_begin + static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(pool)));
      } else {
        u = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
      }
      if (u == v) continue;
      coo.add_edge(v, u);
    }
  }
  return symmetrize(coo);
}

Coo merge_edges(const Coo& a, const Coo& b) {
  assert(a.num_nodes == b.num_nodes);
  return coo_from_csr(bucket_edges(a.num_nodes, {{a}, {b}}, RowRule::kSetNoSelfLoops));
}

Coo erdos_renyi(NodeId n, double avg_degree, Rng& rng) {
  const EdgeId target_edges = static_cast<EdgeId>(static_cast<double>(n) * avg_degree / 2.0);
  Coo coo;
  coo.num_nodes = n;
  for (EdgeId e = 0; e < target_edges; ++e) {
    const NodeId u = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
    const NodeId v = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    coo.add_edge(u, v);
  }
  return symmetrize(coo);
}

}  // namespace gnnbridge::graph
