// Prometheus text exposition writer (DESIGN.md §13).
//
// Renders a RegistrySnapshot in the Prometheus text format (version
// 0.0.4): counters as single samples, histograms as cumulative
// `_bucket{le="..."}` series plus `_sum`/`_count`, each preceded by a
// `# TYPE` line. Instrument names are prefixed `gnnbridge_` with dots
// mapped to underscores ("serve.job_cycles" -> "gnnbridge_serve_job_cycles").
// The rendering is a pure function of the snapshot — with the registry
// filled through the deterministic fold discipline, the exposition is
// byte-identical at any host thread count. Numbers print with %.12g, the
// same convention as the JSON exporters.
#pragma once

#include <string>
#include <string_view>

#include "obs/registry.hpp"
#include "rt/status.hpp"

namespace gnnbridge::obs {

/// "serve.job_cycles" -> "gnnbridge_serve_job_cycles": prefix, and every
/// character outside [A-Za-z0-9_] becomes '_'.
std::string prometheus_name(std::string_view name);

/// The whole snapshot in Prometheus text exposition format.
std::string render_prometheus(const RegistrySnapshot& snap);

/// Crash-safe write of render_prometheus (sibling .tmp + atomic rename).
rt::Status write_prometheus_file(const std::string& path, const RegistrySnapshot& snap);

}  // namespace gnnbridge::obs
