#include "obs/registry.hpp"

#include <set>

namespace gnnbridge::obs {

void TelemetryRegistry::counter_add(std::string_view name, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void TelemetryRegistry::observe(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) it = histograms_.emplace(std::string(name), LogHistogram{}).first;
  it->second.observe(value);
}

std::uint64_t TelemetryRegistry::counter_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

HistogramSnapshot TelemetryRegistry::histogram_snapshot(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? HistogramSnapshot{} : it->second.snapshot();
}

RegistrySnapshot TelemetryRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  RegistrySnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, value] : counters_) snap.counters.emplace_back(name, value);
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) snap.histograms.emplace_back(name, hist.snapshot());
  return snap;
}

void TelemetryRegistry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  histograms_.clear();
}

std::uint64_t counter_value(const RegistrySnapshot& snap, std::string_view name) {
  for (const auto& [n, value] : snap.counters) {
    if (n == name) return value;
  }
  return 0;
}

bool unique_counter_names(const RegistrySnapshot& snap) {
  std::set<std::string_view> names;
  for (const auto& c : snap.counters) {
    if (!names.insert(c.first).second) return false;
  }
  return true;
}

}  // namespace gnnbridge::obs
