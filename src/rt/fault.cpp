#include "rt/fault.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace gnnbridge::rt {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

struct ParsedArm {
  std::string seam;
  int remaining = 1;
  bool always = false;
};

std::string known_seam_list() {
  std::string out;
  for (const SeamInfo& info : kSeamTable) {
    if (!out.empty()) out += ", ";
    out += info.name;
  }
  return out;
}

/// "fault plan entry 2 ('=5'): " — every parse diagnostic names the
/// 1-based entry position and quotes the offending text so a long
/// comma-separated plan is debuggable from the message alone.
std::string entry_prefix(int index, std::string_view entry) {
  return "fault plan entry " + std::to_string(index) + " ('" + std::string(entry) + "'): ";
}

/// Parses one `seam[=N|*]` entry. `index` is the 1-based position of the
/// entry in the plan, used only for diagnostics.
Status parse_entry(std::string_view entry, int index, ParsedArm& out) {
  const std::size_t eq = entry.find('=');
  const std::string_view seam = trim(entry.substr(0, eq));
  if (seam.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  entry_prefix(index, entry) + "empty seam name");
  }
  if (!known_seam(seam)) {
    return Status(StatusCode::kInvalidArgument,
                  entry_prefix(index, entry) + "unknown seam '" + std::string(seam) +
                      "' (known: " + known_seam_list() + ")");
  }
  out.seam = std::string(seam);
  out.remaining = 1;
  out.always = false;
  if (eq == std::string_view::npos) return OkStatus();

  const std::string_view count = trim(entry.substr(eq + 1));
  if (count == "*") {
    out.always = true;
    return OkStatus();
  }
  const std::string count_str(count);
  char* end = nullptr;
  const long n = std::strtol(count_str.c_str(), &end, 10);
  if (count_str.empty() || end != count_str.c_str() + count_str.size() || n <= 0 ||
      n > 1'000'000) {
    return Status(StatusCode::kInvalidArgument,
                  entry_prefix(index, entry) + "bad count '" + count_str +
                      "' for seam '" + out.seam +
                      "' (want a positive integer <= 1000000 or '*')");
  }
  out.remaining = static_cast<int>(n);
  return OkStatus();
}

Status parse_plan(std::string_view plan, std::vector<ParsedArm>& out) {
  std::size_t pos = 0;
  int index = 0;
  while (pos <= plan.size()) {
    std::size_t comma = plan.find(',', pos);
    if (comma == std::string_view::npos) comma = plan.size();
    const std::string_view entry = trim(plan.substr(pos, comma - pos));
    ++index;  // empty entries still occupy a position ("a,,b" -> b is entry 3)
    if (!entry.empty()) {
      ParsedArm arm;
      GNNBRIDGE_RETURN_IF_ERROR(parse_entry(entry, index, arm));
      out.push_back(std::move(arm));
    }
    pos = comma + 1;
  }
  return OkStatus();
}

// The active job-plan scope on this thread (see ScopedJobPlan). When
// non-null, fire()/armed() use its arms exclusively and never touch the
// global map or mutex.
thread_local FaultInjector::ScopedJobPlan* t_job = nullptr;

/// Consumes one shot of `seam`: the shot's 0-based index, or nullopt when
/// the seam is not armed.
std::optional<int> consume(FaultInjector::Arms& arms, std::string_view seam) {
  const auto it = arms.find(seam);
  if (it == arms.end()) return std::nullopt;
  const int shot = it->second.fired++;
  if (!it->second.always && --it->second.remaining <= 0) arms.erase(it);
  return shot;
}

Status injected_fault(std::string_view seam) {
  return Status(StatusCode::kFaultInjected, "injected fault at seam '" + std::string(seam) + "'");
}

}  // namespace

bool known_seam(std::string_view seam) {
  for (const SeamInfo& info : kSeamTable) {
    if (info.name == seam) return true;
  }
  return false;
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector* injector = new FaultInjector();  // leaked: outlives atexit users
  return *injector;
}

void FaultInjector::maybe_load_env_locked() {
  if (env_checked_) return;
  env_checked_ = true;
  const char* env = std::getenv("GNNBRIDGE_FAULT_PLAN");
  if (!env || !*env) return;
  std::vector<ParsedArm> arms;
  const Status s = parse_plan(env, arms);
  if (!s.ok()) {
    // A malformed plan must never take the process down — warn and run
    // without injection rather than silently arming the wrong seam.
    std::fprintf(stderr, "gnnbridge: ignoring GNNBRIDGE_FAULT_PLAN: %s\n",
                 s.to_string().c_str());
    return;
  }
  for (auto& arm : arms) arms_[arm.seam] = Arm{arm.remaining, arm.always};
}

Status FaultInjector::set_plan(std::string_view plan) {
  std::vector<ParsedArm> arms;
  GNNBRIDGE_RETURN_IF_ERROR(parse_plan(plan, arms));
  std::lock_guard<std::mutex> lock(mu_);
  env_checked_ = true;  // an explicit plan overrides the environment
  arms_.clear();
  for (auto& arm : arms) arms_[arm.seam] = Arm{arm.remaining, arm.always};
  return OkStatus();
}

void FaultInjector::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  env_checked_ = true;
  arms_.clear();
}

std::optional<Status> FaultInjector::fire(std::string_view seam) {
  if (ScopedJobPlan* job = t_job) {
    // Thread-confined per-job plan: no lock, no global state. The listener
    // runs outside any lock, so it may call back into the injector.
    const std::optional<int> shot = consume(job->arms_, seam);
    if (!shot) return std::nullopt;
    if (job->listener_) job->listener_(job->ctx_, seam, *shot);
    return injected_fault(seam);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    maybe_load_env_locked();
    if (!consume(arms_, seam)) return std::nullopt;
  }
  return injected_fault(seam);
}

bool FaultInjector::armed(std::string_view seam) const {
  if (t_job) return t_job->arms_.find(seam) != t_job->arms_.end();
  std::lock_guard<std::mutex> lock(mu_);
  const_cast<FaultInjector*>(this)->maybe_load_env_locked();
  return arms_.find(seam) != arms_.end();
}

FaultInjector::ScopedJobPlan::ScopedJobPlan(std::string_view plan, FaultFireListener listener,
                                            void* ctx)
    : listener_(listener), ctx_(ctx) {
  std::vector<ParsedArm> parsed;
  status_ = parse_plan(plan, parsed);
  if (!status_.ok()) return;
  for (auto& arm : parsed) arms_[arm.seam] = Arm{arm.remaining, arm.always};
  prev_ = t_job;
  t_job = this;
  active_ = true;
}

FaultInjector::ScopedJobPlan::~ScopedJobPlan() {
  if (active_) t_job = prev_;
}

std::string FaultInjector::plan_string() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [seam, arm] : arms_) {
    if (!out.empty()) out += ',';
    out += seam;
    if (arm.always) {
      out += "=*";
    } else if (arm.remaining != 1) {
      out += '=' + std::to_string(arm.remaining);
    }
  }
  return out;
}

void raise_if_armed(std::string_view seam, std::string_view where) {
  if (auto fault = fire_fault(seam)) {
    throw StageFailure(std::string(seam),
                       std::move(*fault).with_context(std::string(where)));
  }
}

}  // namespace gnnbridge::rt
