#include "obs/slo.hpp"

#include <cmath>

#include "obs/journal.hpp"
#include "prof/json_writer.hpp"

namespace gnnbridge::obs {
namespace {

std::uint64_t window_index_for(double arrival_cycles, double window_cycles) {
  if (window_cycles <= 0.0) return 0;
  const double idx = std::floor(arrival_cycles / window_cycles);
  if (idx <= 0.0) return 0;
  return static_cast<std::uint64_t>(idx);
}

double budget_for(const SloConfig& cfg, std::uint64_t window_requests) {
  double error_fraction = 1.0 - cfg.success_objective;
  if (error_fraction < 0.0) error_fraction = 0.0;
  return error_fraction * static_cast<double>(window_requests);
}

double burn_rate_for(const SloConfig& cfg, std::uint64_t window_requests,
                     std::uint64_t window_violations) {
  const double allowed = budget_for(cfg, window_requests);
  if (allowed > 0.0) return static_cast<double>(window_violations) / allowed;
  return window_violations > 0 ? static_cast<double>(window_violations) : 0.0;
}

}  // namespace

SloTracker& SloTracker::instance() {
  static SloTracker tracker;
  return tracker;
}

bool SloTracker::enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enabled_;
}

void SloTracker::configure(const SloConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  cfg_ = config;
  enabled_ = true;
}

void SloTracker::set_enabled(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = on;
}

SloConfig SloTracker::config() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cfg_;
}

SloOutcome SloTracker::record(const std::string& tenant, double arrival_cycles,
                              double e2e_cycles, bool success) {
  std::lock_guard<std::mutex> lock(mu_);
  SloOutcome out;
  if (!enabled_) return out;
  out.window_index = window_index_for(arrival_cycles, cfg_.window_cycles);

  TenantState& state = tenants_[tenant];
  Window& window = state.windows[out.window_index];
  state.requests += 1;
  window.requests += 1;

  if (!success) {
    out.failure_violation = true;
    state.failure_violations += 1;
  } else if (cfg_.latency_objective_cycles > 0.0 &&
             e2e_cycles > cfg_.latency_objective_cycles) {
    out.latency_violation = true;
    state.latency_violations += 1;
  } else {
    state.good += 1;
  }

  if (out.failure_violation || out.latency_violation) {
    window.violations += 1;
    const double allowed = budget_for(cfg_, window.requests);
    if (static_cast<double>(window.violations) > allowed && !window.exhausted) {
      window.exhausted = true;
      out.budget_exhausted_now = true;
    }
  }
  return out;
}

SloSnapshot SloTracker::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  SloSnapshot snap;
  snap.enabled = enabled_;
  snap.config = cfg_;
  for (const auto& [tenant, state] : tenants_) {
    TenantSlo row;
    row.tenant = tenant;
    row.requests = state.requests;
    row.good = state.good;
    row.latency_violations = state.latency_violations;
    row.failure_violations = state.failure_violations;
    row.windows = static_cast<std::uint64_t>(state.windows.size());
    if (!state.windows.empty()) {
      const auto& [index, window] = *state.windows.rbegin();
      row.window_index = index;
      row.window_requests = window.requests;
      row.window_violations = window.violations;
      row.burn_rate = burn_rate_for(cfg_, window.requests, window.violations);
      row.budget_exhausted = window.exhausted;
    }
    snap.tenants.push_back(std::move(row));
  }
  return snap;
}

void SloTracker::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = false;
  cfg_ = SloConfig{};
  tenants_.clear();
}

void score_slo(const std::string& request_id, const std::string& tenant, double arrival_cycles,
               double e2e_cycles, bool success, const std::string& failure_detail,
               std::uint64_t attempts, bool journal) {
  SloTracker& slo = SloTracker::instance();
  if (!slo.enabled()) return;
  const SloOutcome so = slo.record(tenant, arrival_cycles, e2e_cycles, success);
  if (!journal) return;
  const auto violation = [&](std::string code, std::string detail, std::uint64_t attempt) {
    JournalEvent ev;
    ev.request_id = request_id;
    ev.type = "slo_violation";
    ev.key = tenant;
    ev.code = std::move(code);
    ev.detail = std::move(detail);
    ev.attempt = attempt;
    ev.cycles = e2e_cycles;
    EventJournal::instance().append(std::move(ev));
  };
  if (so.latency_violation) violation("latency", "end-to-end over latency objective", attempts);
  if (so.failure_violation) violation("failure", failure_detail, attempts);
  if (so.budget_exhausted_now) {
    violation("budget_exhausted",
              "window " + std::to_string(so.window_index) + " error budget exhausted", 0);
  }
}

void write_slo_json(prof::JsonWriter& w, const SloSnapshot& snap) {
  w.begin_object();
  w.kv("enabled", snap.enabled);
  w.kv("latency_objective_cycles", snap.config.latency_objective_cycles);
  w.kv("success_objective", snap.config.success_objective);
  w.kv("window_cycles", snap.config.window_cycles);
  w.key("tenants");
  w.begin_array();
  for (const TenantSlo& row : snap.tenants) {
    w.begin_object();
    w.kv("tenant", row.tenant);
    w.kv("requests", row.requests);
    w.kv("good", row.good);
    w.kv("latency_violations", row.latency_violations);
    w.kv("failure_violations", row.failure_violations);
    w.kv("violations", row.latency_violations + row.failure_violations);
    w.kv("windows", row.windows);
    w.kv("window_index", row.window_index);
    w.kv("window_requests", row.window_requests);
    w.kv("window_violations", row.window_violations);
    w.kv("burn_rate", row.burn_rate);
    w.kv("budget_exhausted", row.budget_exhausted);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace gnnbridge::obs
