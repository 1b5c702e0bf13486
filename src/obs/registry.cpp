#include "obs/registry.hpp"

#include "prof/json_writer.hpp"

namespace gnnbridge::obs {

TelemetryRegistry& TelemetryRegistry::instance() {
  static TelemetryRegistry* reg = new TelemetryRegistry();  // leaked: outlives atexit
  return *reg;
}

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

std::size_t TelemetryRegistry::counter_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size();
}

std::size_t TelemetryRegistry::histogram_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return histograms_.size();
}

void write_telemetry_json(prof::JsonWriter& w, const RegistrySnapshot& snap) {
  w.begin_object();
  w.key("counters");
  w.begin_array();
  for (const auto& [name, value] : snap.counters) {
    w.begin_object();
    w.kv("name", std::string_view(name));
    w.kv("value", value);
    w.end_object();
  }
  w.end_array();
  w.key("histograms");
  w.begin_array();
  for (const auto& [name, h] : snap.histograms) {
    w.begin_object();
    w.kv("name", std::string_view(name));
    w.kv("count", h.count);
    w.kv("sum", h.sum);
    w.kv("min", h.min);
    w.kv("max", h.max);
    w.kv("p50", h.p50);
    w.kv("p90", h.p90);
    w.kv("p99", h.p99);
    w.key("buckets");
    w.begin_array();
    for (const auto& [le, count] : h.buckets) {
      w.begin_object();
      w.kv("le", le);
      w.kv("count", count);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace gnnbridge::obs
