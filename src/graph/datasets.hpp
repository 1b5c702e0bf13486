// The eight evaluation datasets, rebuilt synthetically.
//
// Table 3 of the paper characterizes each OGB dataset by node count, edge
// count, average/max degree, degree variance, and density. We regenerate
// each one at roughly 1/40 linear scale with the *shape* preserved:
//
//   * the average degree is matched exactly (it sets arithmetic intensity),
//   * the max/avg degree ratio is matched approximately (it drives the
//     load-imbalance observations, Table 4 / Figure 8),
//   * protein and ddi are generated with planted communities because the
//     paper singles them out as "already clustered" graphs on which
//     locality scheduling has nothing to gain (Figures 3 and 9),
//   * density ordering across datasets is preserved (ddi ≫ protein/reddit ≫
//     the citation graphs).
//
// This is the substitution documented in DESIGN.md §2.
#pragma once

#include <array>
#include <string>
#include <string_view>

#include "graph/csr.hpp"
#include "graph/stats.hpp"
#include "rt/status.hpp"

namespace gnnbridge::graph {

/// Identifiers for the eight evaluation graphs, in the order the paper's
/// figures list them.
enum class DatasetId {
  kArxiv,
  kCollab,
  kCitation,
  kDdi,
  kProtein,
  kPpa,
  kReddit,
  kProducts,
};

/// All dataset ids, in paper order.
inline constexpr std::array<DatasetId, 8> kAllDatasets = {
    DatasetId::kArxiv,  DatasetId::kCollab,  DatasetId::kCitation, DatasetId::kDdi,
    DatasetId::kProtein, DatasetId::kPpa,    DatasetId::kReddit,   DatasetId::kProducts,
};

/// Short dataset name as used in the paper's figures ("arxiv", "collab", ...).
std::string_view dataset_name(DatasetId id);

/// Statistics of the *original* OGB dataset, transcribed from Table 3.
/// Used by bench_table3 to print paper-vs-generated comparisons.
DegreeStats paper_stats(DatasetId id);

/// A generated dataset: the edge list and the center-keyed CSR, ready for
/// every backend, and its measured statistics. Every generated graph is
/// symmetric, so the CSR's rows are also each node's out-neighbors.
struct Dataset {
  DatasetId id{};
  std::string name;
  Coo coo;        ///< (dst,src)-sorted canonical edge list.
  Csr csr;        ///< center-keyed: row v = in-neighbors of v.
  DegreeStats stats;
};

/// Generates dataset `id` deterministically (same seed -> same graph).
/// `scale` in (0, 1] shrinks node counts further below the default
/// reduced size; benches use scale=1, quick tests use smaller scales.
///
/// Fallible entry point: rejects out-of-range scales with
/// kInvalidArgument, reports injected `dataset_load` faults, and
/// validates the generated CSR before handing it out.
rt::Result<Dataset> try_make_dataset(DatasetId id, double scale = 1.0,
                                     std::uint64_t seed = 21);

/// Infallible convenience wrapper around `try_make_dataset` for callers
/// that pass known-good arguments (tests, benches). Aborts with the
/// rendered Status on failure — it cannot degrade, only refuse.
Dataset make_dataset(DatasetId id, double scale = 1.0, std::uint64_t seed = 21);

}  // namespace gnnbridge::graph
