#include "graph/datasets.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "rt/fault.hpp"
#include "rt/validate.hpp"

namespace gnnbridge::graph {

namespace {

/// Per-dataset generator recipe. Node counts are ~1/40 of the originals
/// (floor of a few thousand so small graphs stay meaningful); avg degrees
/// for the three heavy graphs (protein, reddit, ddi) are reduced with the
/// max/avg ratio preserved so the suite runs in minutes on one core.
///
/// Power-law datasets carry an *anchored-community overlay*: a fraction
/// `frac_comm` of each node's degree goes to a few shared anchor nodes in
/// its community (co-citation / co-purchase structure). This gives the
/// pairwise neighbor-set similarity that real OGB graphs have and that
/// locality-aware scheduling exploits; the Chung-Lu part keeps the degree
/// skew of Table 3.
struct Recipe {
  std::string_view name;
  DegreeStats paper;  // Table 3 values.
  enum class Kind { kPowerLaw, kClustered } kind;
  NodeId n;
  double avg_degree;
  double alpha;        // power-law skew (kPowerLaw only)
  double max_degree;   // degree-sequence cap (kPowerLaw only)
  NodeId community;    // community size
  double frac_within;  // in-community edge fraction (kClustered)
  double frac_comm;    // community-overlay degree fraction (kPowerLaw)
  NodeId anchors;      // anchor nodes per community (overlay)
};

constexpr double kNoMax = 0.0;

Recipe recipe_for(DatasetId id) {
  using K = Recipe::Kind;
  switch (id) {
    case DatasetId::kArxiv:
      // 169K/1.2M avg 7 max 13155: extreme hubs (max/avg ~ 1900).
      return {"arxiv", {169343, 1166243, 7, 13155, 4600, 4.1e-5},
              K::kPowerLaw, 42000, 7.0, 0.95, 4800.0, 20, 0.0, 0.35, 5};
    case DatasetId::kCollab:
      // 236K/2.4M avg 10 max 671: mild skew, collaboration cliques.
      return {"collab", {235868, 2358104, 10, 671, 360, 4.2e-5},
              K::kPowerLaw, 59000, 10.0, 0.45, 170.0, 16, 0.0, 0.5, 6};
    case DatasetId::kCitation:
      // 2.9M/30M avg 10 max 1738: co-citation overlap.
      return {"citation", {2927963, 30561187, 10, 1738, 221, 4.0e-6},
              K::kPowerLaw, 96000, 10.0, 0.50, 440.0, 24, 0.0, 0.5, 6};
    case DatasetId::kDdi:
      // 4K/2.1M avg 501: tiny, extremely dense, naturally clustered.
      return {"ddi", {4267, 2135822, 501, 2234, 177000, 1.2e-1},
              K::kClustered, 4000, 250.0, 0.0, kNoMax, 500, 0.85, 0.0, 0};
    case DatasetId::kProtein:
      // 133K/79M avg 597: biology network with strong communities.
      return {"protein", {132534, 79122504, 597, 7750, 386000, 4.5e-3},
              K::kClustered, 13000, 90.0, 0.0, kNoMax, 130, 0.90, 0.0, 0};
    case DatasetId::kPpa:
      // 576K/42M avg 74 max 3241.
      return {"ppa", {576289, 42463862, 74, 3241, 9900, 1.3e-4},
              K::kPowerLaw, 29000, 50.0, 0.55, 2200.0, 32, 0.0, 0.45, 10};
    case DatasetId::kReddit:
      // 233K/115M avg 492 max 21657: social graph, heavy tail.
      return {"reddit", {232965, 114615892, 492, 21657, 640000, 2.1e-3},
              K::kPowerLaw, 23000, 90.0, 0.60, 4000.0, 64, 0.0, 0.35, 16};
    case DatasetId::kProducts:
      // 2.4M/124M avg 51 max 17481: co-purchase clusters.
      return {"products", {2449029, 123718280, 51, 17481, 9100, 2.1e-5},
              K::kPowerLaw, 80000, 25.0, 0.65, 8600.0, 24, 0.0, 0.45, 8};
  }
  assert(false && "unknown dataset id");
  return {};
}

}  // namespace

std::string_view dataset_name(DatasetId id) { return recipe_for(id).name; }

DegreeStats paper_stats(DatasetId id) { return recipe_for(id).paper; }

rt::Result<Dataset> try_make_dataset(DatasetId id, double scale, std::uint64_t seed) {
  const Recipe r = recipe_for(id);
  const std::string frame =
      "try_make_dataset('" + std::string(r.name) + "', scale=" + std::to_string(scale) + ")";
  if (auto fault = rt::fire_fault(rt::kSeamDatasetLoad)) {
    return std::move(*fault).with_context(frame);
  }
  if (!(scale > 0.0 && scale <= 1.0)) {
    return rt::Status(rt::StatusCode::kInvalidArgument,
                      "scale must be in (0, 1], got " + std::to_string(scale))
        .with_context(frame);
  }
  // Seed mixes in the dataset id so graphs differ even with equal shapes.
  tensor::Rng rng(seed * 0x100 + static_cast<std::uint64_t>(id));

  const NodeId n = std::max<NodeId>(64, static_cast<NodeId>(std::lround(r.n * scale)));
  // Degree-related quantities scale as sqrt(scale): node counts shrink
  // linearly but degree ratios (max/avg, community density) should degrade
  // slowly, or small test-scale graphs lose the skew/overlap the
  // experiments depend on.
  const double deg_scale = std::sqrt(scale);
  Coo coo;
  if (r.kind == Recipe::Kind::kPowerLaw) {
    const double cap = std::min<double>(r.max_degree * deg_scale + 16.0, n - 1.0);
    const double cl_avg = r.avg_degree * (1.0 - r.frac_comm);
    const auto degrees = power_law_degrees(n, std::min<double>(std::max(cl_avg, 1.0), cap),
                                           r.alpha, std::max(cap, r.avg_degree));
    coo = chung_lu(degrees, rng);
    if (r.frac_comm > 0.0 && r.community > 1) {
      const NodeId community = std::max<NodeId>(4, r.community);
      const Coo overlay = planted_partition(n, community, r.avg_degree * r.frac_comm,
                                            /*frac_within=*/1.0, rng, r.anchors);
      coo = merge_edges(coo, overlay);
    }
    // OGB node ids carry no community structure; scramble ids so the
    // natural task order has none either (the locality problem of
    // Observation 1 that locality-aware scheduling then solves). The
    // clustered datasets (protein, ddi) keep contiguous ids — the paper
    // describes them as inherently clustered, with good baseline locality.
    std::vector<NodeId> relabel(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) relabel[static_cast<std::size_t>(v)] = v;
    for (NodeId v = n - 1; v > 0; --v) {
      std::swap(relabel[static_cast<std::size_t>(v)],
                relabel[rng.below(static_cast<std::uint64_t>(v) + 1)]);
    }
    for (auto& u : coo.src) u = relabel[static_cast<std::size_t>(u)];
    for (auto& u : coo.dst) u = relabel[static_cast<std::size_t>(u)];
    coo = canonicalize(coo);
  } else {
    const NodeId community =
        std::max<NodeId>(8, static_cast<NodeId>(std::lround(r.community * deg_scale)));
    const double avg = std::min<double>(r.avg_degree * deg_scale, community - 1.0);
    coo = planted_partition(n, community, std::max(avg, 2.0), r.frac_within, rng);
  }

  Dataset d;
  d.id = id;
  d.name = std::string(r.name);
  d.csr = csr_from_coo(coo);
  d.coo = std::move(coo);
  d.stats = degree_stats(d.csr);
  if (rt::Status s = rt::validate_csr(d.csr); !s.ok()) {
    return std::move(s).with_context(frame);
  }
  return d;
}

Dataset make_dataset(DatasetId id, double scale, std::uint64_t seed) {
  rt::Result<Dataset> r = try_make_dataset(id, scale, seed);
  if (!r.ok()) {
    std::fprintf(stderr, "gnnbridge: make_dataset failed: %s\n",
                 r.status().to_string().c_str());
    std::abort();
  }
  return std::move(r).value();
}

}  // namespace gnnbridge::graph
