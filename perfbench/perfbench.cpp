// perfbench — host performance of the gnnbridge engine and simulator.
//
// The figure benches gate the *modeled* counters; this program measures how
// long the host takes to produce them, and how much memory it uses. It runs
// one workload per process, closed loop (one pass in flight at a time),
// through the library's public API only:
//
//   fwd-trace   trace-only GCN and GAT forward passes on all eight datasets,
//               Ours and DGL, engines reused and warm (what Figure 7 costs);
//   cold-graph  every pass generates a graph the process has never seen and
//               runs a fresh auto-tuned, 4-shard engine on a GCN forward;
//   train-full  GCN training steps in ExecMode::kFull on collab, learning a
//               teacher GCN's output.
//
// A round is the workload's fixed sequence of passes (32, 8 and 8). The
// timed phase runs a fixed number of whole rounds, set by --seconds and the
// workload's nominal round time, never by how fast the host happens to be.
// The host is shared: its speed drifts by up to 2x over seconds and by a
// quarter over an hour. So a fixed speed probe (host work outside the
// program) runs between passes, and every pass time is rescaled to the
// probe's nominal speed; pass-time metrics then use each round position's
// median repetition. Every pass's modeled counters are folded into a
// per-round digest; rounds must repeat their first digest, a small canary
// round at the default seed must match the stored reference, and a failed,
// degraded or mismatching pass counts as failed.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the per-layer
// breakdown instead (see layers.hpp), plus the tracing overhead and the
// speedup over one thread. The last stdout line is one JSON object.
//
//   perfbench --workload fwd-trace --seed 1 --seconds 20 --trace 0
//             [--scale 0.25] [--setup-reps 3] [--passes N]
//             [--reference FILE|none] [--git SHA] [--src DIGEST]
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/dgl.hpp"
#include "engine/engine.hpp"
#include "graph/datasets.hpp"
#include "layers.hpp"
#include "models/reference.hpp"
#include "par/thread_pool.hpp"
#include "prof/json_reader.hpp"
#include "prof/span.hpp"
#include "prof/tracer.hpp"
#include "sim/device.hpp"

namespace gb = gnnbridge;
using gb::baselines::ExecMode;
using gb::baselines::RunResult;
using gb::models::Matrix;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::uint64_t kDefaultSeed = 1;
constexpr double kDefaultScale = 0.25;
/// The canary round runs at this scale with the default seed on every run.
constexpr double kCanaryScale = 0.05;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Derives an independent input seed from the workload seed (splitmix64).
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Quantile by linear interpolation between order statistics; 0 for an
/// empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double h = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (h - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// A fixed piece of host work that the program under test never runs: a
/// dependent walk over a random cycle that fits in a core's L2 cache, mixing
/// every step into an accumulator. An untimed lap first pulls the cycle into
/// the cache, so the timed laps do not depend on what the passes left there.
/// Timed next to each pass, it tells how fast the shared host's core runs at
/// that moment. Each lap is timed on its own and the median lap counts, so a
/// moment in which the hypervisor runs another guest does not.
class SpeedProbe {
 public:
  /// The probe's time at the reference speed, to which pass times are
  /// rescaled: its median on a 4-vCPU Xeon VM (2 MiB L2 per core).
  static constexpr double kNominalMs = 2.7;

  SpeedProbe() : next_(kWords) {
    // Sattolo's shuffle: one cycle through every word, from a fixed seed.
    std::iota(next_.begin(), next_.end(), 0u);
    std::uint64_t state = 0x5eed;
    for (std::uint32_t i = kWords - 1; i > 0; --i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(next_[i], next_[static_cast<std::uint32_t>((state >> 33) % i)]);
    }
  }

  double ms() {
    walk();
    std::array<double, kTimedLaps> lap_ms{};
    for (double& t : lap_ms) {
      const auto t0 = Clock::now();
      walk();
      t = since(t0) * 1e3;
    }
    std::nth_element(lap_ms.begin(), lap_ms.begin() + kTimedLaps / 2, lap_ms.end());
    return lap_ms[kTimedLaps / 2] * kTimedLaps;
  }

 private:
  static constexpr std::uint32_t kWords = 1u << 16;  // 256 KiB
  static constexpr std::size_t kTimedLaps = 7;

  void walk() {
    std::uint32_t at = 0;
    std::uint64_t acc = 0;
    for (std::uint32_t step = 0; step < kWords; ++step) {
      at = next_[at];
      acc = (acc ^ at) * 0x100000001b3ull;
    }
    sink_ = sink_ + acc;
  }

  std::vector<std::uint32_t> next_;
  volatile std::uint64_t sink_ = 0;
};

SpeedProbe& probe() {
  static SpeedProbe p;
  return p;
}

/// Rescales a time measured between two probe readings to the probe's
/// nominal speed.
double rescale(double t, double probe_before_ms, double probe_after_ms) {
  return t * SpeedProbe::kNominalMs / (0.5 * (probe_before_ms + probe_after_ms));
}

/// FNV-1a over the modeled counters of a sequence of passes.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    add(bits);
  }
  void add(const gb::sim::RunStats& s) {
    add(s.total_cycles);
    add(s.total_hits());
    add(s.total_misses());
    add(static_cast<std::uint64_t>(s.num_launches()));
    add(s.total_flops());
    add(s.ghost_bytes);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------- workloads

/// The benchmark's own timer around graph::make_dataset.
struct GenLog {
  double seconds = 0.0;
  double edges = 0.0;
  std::size_t calls = 0;
};

gb::rt::Result<gb::graph::Dataset> generate(gb::graph::DatasetId id, double scale,
                                            std::uint64_t seed, GenLog& log) {
  const auto t0 = Clock::now();
  gb::prof::Span span("bench.make_dataset", "bench");
  auto d = gb::graph::try_make_dataset(id, scale, seed);
  log.seconds += since(t0);
  ++log.calls;
  if (d.ok()) log.edges += static_cast<double>(d->csr.num_edges());
  return d;
}

gb::graph::Dataset must(gb::rt::Result<gb::graph::Dataset> d) {
  if (!d.ok()) throw std::runtime_error("dataset generation failed: " + d.status().to_string());
  return std::move(d).value();
}

struct PassResult {
  RunResult run;
  bool degraded = false;
  bool ok() const { return run.status.ok() && !degraded; }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Passes per round.
  virtual std::size_t round_size() const = 0;
  /// Passes run at set-up, after the inputs are built. Repeating workloads
  /// replay the first passes of a round; others consume fresh passes.
  virtual std::size_t warm_up_passes() const { return round_size(); }
  /// Whether every round runs the same passes, so every round's digest
  /// must equal the first one's.
  virtual bool rounds_repeat() const = 0;
  /// Seconds of --seconds that one round stands for: sizes the timed phase
  /// as a fixed number of rounds. Chosen so that a 20 s run repeats every
  /// position 3 (fwd-trace), 8 (cold-graph) and 5 (train-full) times.
  virtual double nominal_round_s() const = 0;
  /// Whether the passes do host arithmetic (ExecMode::kFull), so that
  /// forcing them to kSimulateOnly changes what they run.
  virtual bool does_math() const { return false; }
  /// Runs pass `g` (a process-wide pass counter) in the workload's own
  /// mode, or in kSimulateOnly when `trace_only` is set.
  virtual PassResult run_pass(std::uint64_t g, bool trace_only) = 0;
  /// Round-level check after a whole round.
  virtual bool round_ok() { return true; }
  /// Output check after the timed phase; `note` describes the outcome.
  virtual bool verify(std::string& note) {
    (void)note;
    return true;
  }
  const GenLog& gen() const { return gen_; }

 protected:
  GenLog gen_;
};

const gb::sim::DeviceSpec kSpec = gb::sim::v100();

class FwdTrace final : public Workload {
 public:
  FwdTrace(double scale, std::uint64_t seed)
      : gcn_params_(gb::models::init_gcn(gcn_cfg_, mix(seed, 2))),
        gat_params_(gb::models::init_gat(gat_cfg_, mix(seed, 3))) {
    for (std::size_t i = 0; i < gb::graph::kAllDatasets.size(); ++i) {
      data_.push_back(must(generate(gb::graph::kAllDatasets[i], scale, mix(seed, 10 + i), gen_)));
      x_.push_back(gb::models::init_features(data_.back().csr.num_nodes, 512, mix(seed, 20 + i)));
    }
  }
  // GCN then GAT; Ours then DGL; the eight datasets in paper order.
  std::size_t round_size() const override { return 4 * data_.size(); }
  // Ours' GCN on every dataset: memoizes each graph's LAS order.
  std::size_t warm_up_passes() const override { return data_.size(); }
  bool rounds_repeat() const override { return true; }
  double nominal_round_s() const override { return 10.0; }
  PassResult run_pass(std::uint64_t g, bool /*trace_only*/) override {
    const std::size_t n = data_.size();
    const std::size_t i = static_cast<std::size_t>(g % round_size());
    const bool gat = i >= 2 * n;
    const bool ours = (i / n) % 2 == 0;
    const gb::graph::Dataset& d = data_[i % n];
    const Matrix& x = x_[i % n];
    gb::prof::Span span(ours ? perfbench::kPassSpanEngine : perfbench::kPassSpanBaselines,
                        "bench");
    gb::baselines::Backend& b = ours ? static_cast<gb::baselines::Backend&>(ours_) : dgl_;
    PassResult r;
    r.run = gat ? b.run_gat(d, {&gat_cfg_, &gat_params_, &x}, ExecMode::kSimulateOnly, kSpec)
                : b.run_gcn(d, {&gcn_cfg_, &gcn_params_, &x}, ExecMode::kSimulateOnly, kSpec);
    r.degraded = ours && !ours_.degraded_knobs().empty();
    return r;
  }

 private:
  gb::models::GcnConfig gcn_cfg_;
  gb::models::GatConfig gat_cfg_;
  gb::models::GcnParams gcn_params_;
  gb::models::GatParams gat_params_;
  std::vector<gb::graph::Dataset> data_;
  std::vector<Matrix> x_;
  gb::engine::OptimizedEngine ours_;
  gb::baselines::DglBackend dgl_;
};

class ColdGraph final : public Workload {
 public:
  ColdGraph(double scale, std::uint64_t seed)
      : scale_(scale), seed_(seed), params_(gb::models::init_gcn(cfg_, mix(seed, 2))) {
    // Features depend on the dataset id only (an id's node count is fixed
    // by the scale); one throwaway graph per id gives the node count.
    for (std::size_t i = 0; i < gb::graph::kAllDatasets.size(); ++i) {
      const auto d = must(generate(gb::graph::kAllDatasets[i], scale, mix(seed, 500 + i), gen_));
      x_.push_back(gb::models::init_features(d.csr.num_nodes, 512, mix(seed, 20 + i)));
    }
  }
  std::size_t round_size() const override { return gb::graph::kAllDatasets.size(); }
  std::size_t warm_up_passes() const override { return 2; }
  bool rounds_repeat() const override { return false; }
  double nominal_round_s() const override { return 2.5; }
  PassResult run_pass(std::uint64_t g, bool /*trace_only*/) override {
    const std::size_t i = static_cast<std::size_t>(g % round_size());
    gb::prof::Span span(perfbench::kPassSpanEngine, "bench");
    PassResult r;
    auto d = generate(gb::graph::kAllDatasets[i], scale_, mix(seed_, 1000 + g), gen_);
    if (!d.ok()) {
      r.run.status = d.status();
      return r;
    }
    if (x_[i].rows() != d->csr.num_nodes) {
      r.run.status = gb::rt::Status(gb::rt::StatusCode::kInvalidArgument, "node count moved");
      return r;
    }
    gb::engine::EngineConfig cfg;
    cfg.auto_tune = true;
    cfg.shards = 4;
    gb::engine::OptimizedEngine engine(cfg);
    r.run = engine.run_gcn(*d, {&cfg_, &params_, &x_[i]}, ExecMode::kSimulateOnly, kSpec);
    r.degraded = !engine.degraded_knobs().empty();
    return r;
  }

 private:
  double scale_;
  std::uint64_t seed_;
  gb::models::GcnConfig cfg_;
  gb::models::GcnParams params_;
  std::vector<Matrix> x_;
};

class TrainFull final : public Workload {
 public:
  static constexpr std::size_t kSteps = 8;
  static constexpr float kLr = 0.5f;
  /// Tolerance of the final kFull forward against the reference, relative
  /// to the reference's largest magnitude (at least 1).
  static constexpr double kTol = 1e-4;

  TrainFull(double scale, std::uint64_t seed)
      : data_(must(generate(gb::graph::DatasetId::kCollab, scale, mix(seed, 10), gen_))) {
    cfg_.dims = {128, 64, 32};
    x_ = gb::models::init_features(data_.csr.num_nodes, 128, mix(seed, 20));
    const gb::models::GcnParams teacher = gb::models::init_gcn(cfg_, mix(seed, 3));
    target_ = gb::models::gcn_forward_ref(data_.csr, x_, cfg_, teacher);
    init_ = gb::models::init_gcn(cfg_, mix(seed, 2));
    params_ = init_;
  }
  std::size_t round_size() const override { return kSteps; }
  std::size_t warm_up_passes() const override { return 2; }
  bool rounds_repeat() const override { return true; }
  double nominal_round_s() const override { return 4.0; }
  bool does_math() const override { return true; }
  PassResult run_pass(std::uint64_t g, bool trace_only) override {
    const std::size_t i = static_cast<std::size_t>(g % kSteps);
    if (i == 0 && !trace_only) params_ = init_;  // each round trains from scratch
    gb::prof::Span span(perfbench::kPassSpanEngine, "bench");
    auto step = engine_.train_gcn_step(data_, cfg_, params_, x_, target_, kLr,
                                        trace_only ? ExecMode::kSimulateOnly : ExecMode::kFull,
                                        kSpec);
    learning_round_ = !trace_only;
    if (!trace_only) {
      if (i == 0) first_loss_ = step.loss;
      last_loss_ = step.loss;
    }
    PassResult r;
    r.run = std::move(step.run);
    r.degraded = !engine_.degraded_knobs().empty();
    return r;
  }
  bool round_ok() override {
    return !learning_round_ || (std::isfinite(last_loss_) && last_loss_ < first_loss_);
  }
  bool verify(std::string& note) override {
    const RunResult out =
        engine_.run_gcn(data_, {&cfg_, &params_, &x_}, ExecMode::kFull, kSpec);
    const Matrix ref = gb::models::gcn_forward_ref(data_.csr, x_, cfg_, params_);
    if (!out.status.ok() || out.output.rows() != ref.rows() || out.output.cols() != ref.cols()) {
      note = "kFull forward failed or has the wrong shape";
      return false;
    }
    double err = 0.0, mag = 1.0;
    const std::size_t n = static_cast<std::size_t>(ref.rows() * ref.cols());
    for (std::size_t k = 0; k < n; ++k) {
      err = std::max(err, std::fabs(static_cast<double>(out.output.data()[k] - ref.data()[k])));
      mag = std::max(mag, std::fabs(static_cast<double>(ref.data()[k])));
    }
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "trained kFull forward vs gcn_forward_ref: max|diff| %.3g (tolerance %.1g x %.3g); "
                  "loss %.6g -> %.6g over %zu steps",
                  err, kTol, mag, static_cast<double>(first_loss_),
                  static_cast<double>(last_loss_), kSteps);
    note = buf;
    return err <= kTol * mag;
  }

 private:
  gb::graph::Dataset data_;
  gb::models::GcnConfig cfg_;
  Matrix x_;
  Matrix target_;
  gb::models::GcnParams init_;
  gb::models::GcnParams params_;
  gb::engine::OptimizedEngine engine_;
  float first_loss_ = 0.0f;
  float last_loss_ = 0.0f;
  bool learning_round_ = false;
};

std::unique_ptr<Workload> make_workload(std::string_view name, double scale, std::uint64_t seed) {
  if (name == "fwd-trace") return std::make_unique<FwdTrace>(scale, seed);
  if (name == "cold-graph") return std::make_unique<ColdGraph>(scale, seed);
  if (name == "train-full") return std::make_unique<TrainFull>(scale, seed);
  return nullptr;
}

// ------------------------------------------------------------------- phases

struct PhasePlan {
  /// Exactly this many whole rounds (when > 0).
  std::size_t rounds = 0;
  /// Exactly this many passes, no round checks (self-test).
  std::size_t passes = 0;
  /// What odd rounds change, so that both variants are timed in the same
  /// stretch of host time.
  enum class Alternate {
    kNone,
    kTraceOnly,  ///< forced to kSimulateOnly (kernels.math_s)
    kUntraced,   ///< even rounds traced, odd rounds not (trace.overhead)
    kOneThread,  ///< at one host thread (par.speedup_1t)
  };
  Alternate alternate = Alternate::kNone;
};

struct PhaseResult {
  /// Pass times in ms at the probe's nominal speed, by position in the
  /// round: even ("own") rounds, and the odd rounds of an alternating phase.
  std::vector<std::vector<double>> own_ms;
  std::vector<std::vector<double>> alt_ms;
  std::size_t own_passes = 0;
  std::vector<double> round_s;  ///< own whole rounds, at nominal speed
  /// Wall time of the own passes as measured (probes excluded), and the
  /// process CPU time they took.
  double own_raw_s = 0.0;
  double own_cpu_s = 0.0;
  /// Peak RSS of the process when the phase's second own round ended (or
  /// the phase did). The high-water mark keeps creeping up in long runs, so
  /// it is read after a fixed amount of work rather than at the end.
  double rss_mb = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t degraded = 0;
  // Modeled counters of the own passes.
  double launches = 0.0, blocks = 0.0, hits = 0.0, misses = 0.0, dram_bytes = 0.0;
};

/// The median time at each round position. Pass times are already rescaled
/// to the probe's speed; the median drops repetitions that a burst of other
/// tenants' load slowed down faster than the probe could follow.
std::vector<double> median_by_position(const std::vector<std::vector<double>>& by_pos) {
  std::vector<double> med;
  for (const auto& samples : by_pos) {
    if (!samples.empty()) med.push_back(quantile(samples, 0.5));
  }
  return med;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Runs a phase. `g` is the pass counter; the odd rounds of an alternating
/// phase replay the pass indices of the round before them, so both variants
/// see the same inputs. `expect` is the digest of the first whole round the
/// run made (set here if still empty); every later whole round of a
/// repeating workload must reproduce it.
PhaseResult run_phase(Workload& w, std::uint64_t& g, const PhasePlan& plan,
                      std::optional<std::uint64_t>& expect) {
  using Alternate = PhasePlan::Alternate;
  PhaseResult res;
  const std::size_t size = w.round_size();
  res.own_ms.resize(size);
  res.alt_ms.resize(size);
  double probe_ms = probe().ms();
  std::uint64_t own_g = g;
  for (std::size_t round = 0;; ++round) {
    if (plan.passes > 0 ? res.attempted >= plan.passes : round >= plan.rounds) break;
    const bool alt = plan.alternate != Alternate::kNone && round % 2 == 1;
    const bool forced = alt && plan.alternate == Alternate::kTraceOnly;
    if (plan.alternate == Alternate::kUntraced) gb::prof::Tracer::instance().set_enabled(!alt);
    if (plan.alternate == Alternate::kOneThread) gb::par::set_max_threads(alt ? 1 : 0);
    const std::size_t n =
        plan.passes > 0 ? std::min<std::size_t>(size, plan.passes - res.attempted) : size;
    if (!alt) own_g = g;
    std::uint64_t pass_g = alt ? own_g : g;
    Digest digest;
    std::uint64_t round_failed = 0;
    double round_ms = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double c0 = cpu_seconds();
      const auto p0 = Clock::now();
      const PassResult p = w.run_pass(pass_g++, forced);
      const double raw_s = since(p0);
      const double cpu_s = cpu_seconds() - c0;
      const double next_probe_ms = probe().ms();
      const double ms = rescale(raw_s * 1e3, probe_ms, next_probe_ms);
      probe_ms = next_probe_ms;
      ++res.attempted;
      if (p.degraded) ++res.degraded;
      if (!p.ok()) ++round_failed;
      digest.add(p.run.stats);
      if (alt) {
        res.alt_ms[i].push_back(ms);
        continue;
      }
      res.own_ms[i].push_back(ms);
      round_ms += ms;
      ++res.own_passes;
      res.own_raw_s += raw_s;
      res.own_cpu_s += cpu_s;
      const gb::sim::RunStats& s = p.run.stats;
      res.launches += static_cast<double>(s.num_launches());
      res.hits += static_cast<double>(s.total_hits());
      res.misses += static_cast<double>(s.total_misses());
      for (const auto& k : s.kernels) {
        res.blocks += static_cast<double>(k.num_blocks);
        res.dram_bytes += static_cast<double>(k.dram_bytes);
      }
    }
    if (!alt) g = pass_g;
    if (n == size) {
      if (!alt) res.round_s.push_back(round_ms * 1e-3);
      if (res.round_s.size() == 2 && res.rss_mb == 0.0) res.rss_mb = peak_rss_mb();
      bool good = w.round_ok();
      if (!expect) {
        expect = digest.value();
      } else if (w.rounds_repeat() && digest.value() != *expect) {
        good = false;
      }
      if (!good) round_failed = n;
    }
    res.failed += round_failed;
  }
  if (plan.alternate == Alternate::kUntraced) gb::prof::Tracer::instance().set_enabled(false);
  if (plan.alternate == Alternate::kOneThread) gb::par::set_max_threads(0);
  if (res.rss_mb == 0.0) res.rss_mb = peak_rss_mb();
  return res;
}

// ------------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-24s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), json_number(metrics[i].value).c_str(),
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// ---------------------------------------------------------------------- main

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 20.0;
  bool trace = false;
  double scale = kDefaultScale;
  int setup_reps = 3;
  std::size_t passes = 0;
  std::string reference = "none";
  std::string git = "unknown";
  std::string src = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload fwd-trace|cold-graph|train-full "
               "--seed N --seconds S --trace 0|1 [--scale X] "
               "[--setup-reps N] [--passes N] [--reference FILE|none] [--git SHA] "
               "[--src DIGEST]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    if (flag == "--workload") o.workload = v;
    else if (flag == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") o.seconds = std::atof(v);
    else if (flag == "--trace") o.trace = std::string_view(v) == "1";
    else if (flag == "--scale") o.scale = std::atof(v);
    else if (flag == "--setup-reps") o.setup_reps = std::max(1, std::atoi(v));
    else if (flag == "--passes") o.passes = std::strtoull(v, nullptr, 10);
    else if (flag == "--reference") o.reference = v;
    else if (flag == "--git") o.git = v;
    else if (flag == "--src") o.src = v;
    else usage("unknown flag");
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.scale > 0.0 && o.scale <= 1.0)) usage("--scale must be in (0, 1]");
  return o;
}

/// Reference digest `key` of this workload, when a reference file is in use.
std::optional<std::uint64_t> reference_digest(const Options& o, std::string_view key) {
  if (o.reference == "none") return std::nullopt;
  auto doc = gb::prof::parse_json_file(o.reference);
  if (!doc.ok()) throw std::runtime_error("cannot read reference: " + doc.status().to_string());
  const gb::prof::JsonValue* entry = doc->find(o.workload);
  const std::string s = entry ? entry->str_or(key, "") : "";
  if (s.empty()) throw std::runtime_error("reference has no " + o.workload + "." + std::string(key));
  return std::strtoull(s.c_str(), nullptr, 16);
}

int run(const Options& o) {
  if (o.workload != "fwd-trace" && o.workload != "cold-graph" && o.workload != "train-full") {
    usage("unknown workload");
  }
  const int threads = gb::par::max_threads();
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::printf("provenance: git=%s src=%s build=%s workload=%s scale=%g seed=%llu threads=%d "
              "nproc=%ld llc_bytes=%ld trace=%d\n",
              o.git.c_str(), o.src.c_str(), PERFBENCH_BUILD_TYPE, o.workload.c_str(), o.scale,
              static_cast<unsigned long long>(o.seed), threads, nproc, llc, o.trace ? 1 : 0);
  if (threads > nproc) {
    std::printf("warning: %d threads exceed the %ld online processors\n", threads, nproc);
  }
  std::fflush(stdout);

  std::uint64_t attempted = 0, failed = 0, degraded = 0;
  bool correct = true;
  const auto tally = [&](const PhaseResult& p) {
    attempted += p.attempted;
    failed += p.failed;
    degraded += p.degraded;
  };

  // Set-up: inputs, engines and the warm-up passes, repeated for a median.
  std::unique_ptr<Workload> w;
  std::uint64_t g = 0;
  std::vector<double> setup_s;
  std::optional<std::uint64_t> round_digest;
  const int reps = o.trace ? 1 : o.setup_reps;
  for (int rep = 0; rep < reps; ++rep) {
    w.reset();
    const double probe_before_ms = probe().ms();
    const auto t0 = Clock::now();
    w = make_workload(o.workload, o.scale, o.seed);
    // Repeating workloads replay their first passes; the others warm up on
    // pass indices the timed phases never reach, so those stay unseen.
    std::uint64_t warm_g = w->rounds_repeat() ? 0 : (1ull << 40) + 1000ull * rep;
    std::optional<std::uint64_t> no_digest;
    const PhaseResult warm =
        run_phase(*w, warm_g, {.passes = w->warm_up_passes()}, no_digest);
    const double raw_s = since(t0);
    setup_s.push_back(rescale(raw_s, probe_before_ms, probe().ms()));
    std::printf("setup %d: %.3f s measured, %.3f s at nominal speed\n", rep, raw_s,
                setup_s.back());
    tally(warm);
  }

  // A fixed amount of work, at least three repetitions of every position.
  const auto rounds = static_cast<std::size_t>(
      std::max(3.0, std::round(o.seconds / w->nominal_round_s())));
  const PhasePlan timed{.rounds = rounds, .passes = o.passes};
  std::vector<Metric> metrics;
  if (!o.trace) {
    const PhaseResult p = run_phase(*w, g, timed, round_digest);
    tally(p);
    const std::vector<double> med = median_by_position(p.own_ms);
    double wall_s = 0.0;
    for (const auto& samples : p.own_ms) wall_s += sum(samples) * 1e-3;
    std::printf("timed phase: %zu passes in %zu whole rounds; %.3f s measured, %.3f s at "
                "nominal speed; round_s:",
                p.own_passes, p.round_s.size(), p.own_raw_s, wall_s);
    for (double t : p.round_s) std::printf(" %.3f", t);
    std::printf("\npass_ms samples: %zu positions, each the median of %zu passes:", med.size(),
                p.own_passes / std::max<std::size_t>(1, med.size()));
    for (double t : med) std::printf(" %.1f", t);
    std::printf("\n");
    const double round_s = quantile(p.round_s, 0.5);
    metrics = {
        {"setup_s", quantile(setup_s, 0.5), "s"},
        {"wall_s", wall_s, "s"},
        {"passes_per_s", round_s > 0.0 ? static_cast<double>(w->round_size()) / round_s : 0.0,
         "1/s"},
        {"pass_ms_p50", quantile(med, 0.5), "ms"},
        {"pass_ms_p90", quantile(med, 0.9), "ms"},
        {"peak_rss_mb", p.rss_mb, "MB"},
    };
  } else {
    // Three alternating phases, each timing its two variants side by side.
    using Alternate = PhasePlan::Alternate;
    const std::size_t pairs = std::max<std::size_t>(1, 16 / w->round_size());
    const auto paired = [&](Alternate alt, std::size_t n) {
      return o.passes > 0 ? timed : PhasePlan{.rounds = 2 * n, .alternate = alt};
    };
    // A: own mode against kSimulateOnly, for workloads whose own mode is
    // not kSimulateOnly already.
    const PhaseResult a = run_phase(
        *w, g, paired(w->does_math() ? Alternate::kTraceOnly : Alternate::kNone, pairs),
        round_digest);
    tally(a);
    // C: traced against untraced, on the same warm engines as the timed
    // passes, so the layers explain the passes the end-to-end metrics time.
    gb::prof::Tracer& tracer = gb::prof::Tracer::instance();
    tracer.clear();
    tracer.set_enabled(true);  // an alternating phase switches it per round
    const double gen_before_s = w->gen().seconds;
    const PhaseResult c = run_phase(
        *w, g, paired(Alternate::kUntraced, std::max<std::size_t>(1, 32 / w->round_size())),
        round_digest);
    tracer.set_enabled(false);
    // Per pass of the phase: the untraced rounds generate graphs too.
    const double gen_c_s =
        (w->gen().seconds - gen_before_s) / std::max<double>(1.0, static_cast<double>(c.attempted));
    const perfbench::LayerTotals lt = perfbench::fold_spans(tracer.snapshot());
    tracer.clear();
    tally(c);
    // D: threaded against one thread.
    const PhaseResult d = run_phase(*w, g, paired(Alternate::kOneThread, pairs), round_digest);
    tally(d);

    // Per-pass costs from the median repetition of each round position; a
    // phase without odd rounds (self-test) compares against itself.
    const auto med_sum = [](const std::vector<std::vector<double>>& by_pos) {
      return sum(median_by_position(by_pos));
    };
    const auto ratio = [&](const PhaseResult& p) {
      const double own = med_sum(p.own_ms);
      return own > 0.0 && !p.alt_ms.front().empty() ? med_sum(p.alt_ms) / own : 1.0;
    };
    const double positions = static_cast<double>(median_by_position(a.own_ms).size());
    const double math_ms = a.alt_ms.front().empty() ? 0.0 : med_sum(a.own_ms) - med_sum(a.alt_ms);
    const double per = 1.0 / std::max<double>(1.0, static_cast<double>(c.own_passes));
    const double lines = c.hits + c.misses;
    std::printf("traced phase: %zu traced passes in %zu rounds, %.0f spans; median round: "
                "untraced %.3f s, traced %.3f s; threaded %.3f s, 1-thread %.3f s\n",
                c.own_passes, c.round_s.size(), lt.spans, med_sum(c.alt_ms) * 1e-3,
                med_sum(c.own_ms) * 1e-3, med_sum(d.own_ms) * 1e-3, med_sum(d.alt_ms) * 1e-3);
    // Layer shares of the traced pass as measured (spans are not rescaled).
    const double pass_s = c.own_raw_s * per;
    const auto share = [&](double s) { return pass_s > 0.0 ? s / pass_s : 0.0; };
    std::printf("layer shares of the %.1f ms traced pass: sim.launch %.2f, graph.gen %.2f, "
                "core+shard %.2f, kernels.trace %.2f, engine.self %.2f, baselines.self %.2f; "
                "kernels.math %.2f of the own-mode pass\n",
                pass_s * 1e3, share(lt.sim_launch_s * per), share(gen_c_s),
                share(lt.core_shard_s * per), share(lt.kernels_trace_s * per),
                share(lt.engine_self_s * per), share(lt.baselines_self_s * per),
                math_ms > 0.0 ? math_ms / med_sum(a.own_ms) : 0.0);
    const GenLog& gen = w->gen();
    const double gen_calls = std::max<double>(1.0, static_cast<double>(gen.calls));
    metrics = {
        {"graph.gen_s", gen.seconds / gen_calls, "s"},
        {"graph.edges", gen.edges / gen_calls, "count"},
        {"core.las_s", lt.las_s * per, "s"},
        {"core.las_calls", lt.las_calls * per, "count"},
        {"core.las_pairs", lt.las_pairs * per, "count"},
        {"core.las_clusters", lt.las_clusters * per, "count"},
        {"core.ng_s", lt.ng_s * per, "s"},
        {"core.ng_tasks", lt.ng_tasks * per, "count"},
        {"core.tuner_s", lt.tuner_s * per, "s"},
        {"core.tuner_probes", lt.tuner_probes * per, "count"},
        {"core.tuner_gain",
         lt.tuner_best_cycles > 0.0 ? lt.tuner_heuristic_cycles / lt.tuner_best_cycles : 1.0,
         "ratio"},
        {"core.tuner_runs", lt.tuner_runs, "count"},
        {"shard.partition_s", lt.partition_s * per, "s"},
        {"shard.cut_edges", lt.cut_edges * per, "count"},
        {"shard.ghosts", lt.ghosts * per, "count"},
        {"engine.self_s", lt.engine_self_s * per, "s"},
        {"baselines.self_s", lt.baselines_self_s * per, "s"},
        {"kernels.trace_s", lt.kernels_trace_s * per, "s"},
        {"kernels.math_s", math_ms * 1e-3 / std::max(1.0, positions), "s"},
        {"sim.launch_s", lt.sim_launch_s * per, "s"},
        {"sim.launches", c.launches * per, "count"},
        {"sim.blocks", c.blocks * per, "count"},
        {"sim.lines", lines * per, "count"},
        {"sim.lines_per_s", lt.sim_launch_s > 0.0 ? lines / lt.sim_launch_s : 0.0, "1/s"},
        {"sim.l2_hit_rate", lines > 0.0 ? c.hits / lines : 0.0, "ratio"},
        {"sim.dram_bytes", c.dram_bytes * per, "B"},
        {"par.cpu_util", a.own_raw_s > 0.0 ? a.own_cpu_s / (a.own_raw_s * threads) : 0.0,
         "ratio"},
        {"par.speedup_1t", ratio(d), "ratio"},
        {"trace.overhead", c.alt_ms.front().empty() ? 0.0 : 1.0 / ratio(c) - 1.0, "ratio"},
        {"rt.degraded", 0.0, "count"},  // filled below, after the canary
        {"rt.failed", 0.0, "count"},
    };
  }

  std::printf("digest.round %s\n", round_digest ? hex(*round_digest).c_str() : "none");
  if (round_digest && o.seed == kDefaultSeed && o.scale == kDefaultScale) {
    if (const auto ref = reference_digest(o, "round"); ref && *ref != *round_digest) {
      std::printf("FAIL: round digest %s != reference %s\n", hex(*round_digest).c_str(),
                  hex(*ref).c_str());
      failed += w->round_size();
    }
  }

  std::string note;
  const bool verified = w->verify(note);
  if (!note.empty()) std::printf("verify: %s\n", note.c_str());
  ++attempted;
  if (!verified) {
    ++failed;
    correct = false;
  }
  w.reset();

  // Canary: the workload's round at a small scale and the default seed,
  // checked against the stored reference on every run.
  {
    std::unique_ptr<Workload> canary = make_workload(o.workload, kCanaryScale, kDefaultSeed);
    std::uint64_t cg = 0;
    std::optional<std::uint64_t> digest;
    const auto t0 = Clock::now();
    const PhaseResult p = run_phase(*canary, cg, {.rounds = 1}, digest);
    tally(p);
    std::printf("digest.canary %s (%.3f s)\n", hex(digest.value_or(0)).c_str(), since(t0));
    if (const auto ref = reference_digest(o, "canary"); ref && *ref != digest) {
      std::printf("FAIL: canary digest %s != reference %s\n", hex(digest.value_or(0)).c_str(),
                  hex(*ref).c_str());
      failed += p.attempted - p.failed;
      correct = false;
    }
  }

  if (failed > 0) correct = false;
  std::printf("failed_frac %.6f (%llu failed of %llu passes attempted, %llu degraded)\n",
              static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(1, attempted)),
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(degraded));
  for (Metric& m : metrics) {
    if (m.name == "rt.degraded") m.value = static_cast<double>(degraded);
    if (m.name == "rt.failed") m.value = static_cast<double>(failed);
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
