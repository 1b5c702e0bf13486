// Retry policy: retryability classification + deterministic backoff
// (serving resilience, DESIGN.md §12).
//
// Every StatusCode is *explicitly* classified as retryable or fatal by an
// exhaustive switch — adding a code without deciding its class is a
// compile error (-Wswitch under -Werror), and a table test asserts the
// decisions. Backoff is exponential with fixed-seed multiplicative jitter and
// is measured in *simulated* cycles: run_batch charges it against the
// job's deadline through the virtual clock instead of sleeping, so
// retried runs stay byte-identical at any host thread count.
#pragma once

#include "rt/status.hpp"

namespace gnnbridge::rt {

enum class RetryClass {
  kRetryable,  ///< transient — another attempt may succeed
  kFatal,      ///< deterministic or terminal — retrying cannot help
};

/// The classification table. Exhaustive by construction: no default case,
/// so a new StatusCode fails the build until it is classified here.
constexpr RetryClass classify_for_retry(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return RetryClass::kFatal;  // nothing to retry
    case StatusCode::kInvalidArgument:
      return RetryClass::kFatal;  // the same inputs fail the same way
    case StatusCode::kNotFound:
      return RetryClass::kFatal;
    case StatusCode::kDataLoss:
      return RetryClass::kFatal;
    case StatusCode::kOutOfRange:
      return RetryClass::kFatal;
    case StatusCode::kFailedPrecondition:
      return RetryClass::kFatal;
    case StatusCode::kUnavailable:
      return RetryClass::kRetryable;  // transient dependency failure
    case StatusCode::kInternal:
      return RetryClass::kFatal;  // a bug does not heal on retry
    case StatusCode::kFaultInjected:
      return RetryClass::kRetryable;  // fault plans model transient faults
    case StatusCode::kDeadlineExceeded:
      return RetryClass::kFatal;  // the budget is spent
    case StatusCode::kCancelled:
      return RetryClass::kFatal;  // the caller asked us to stop
    case StatusCode::kResourceExhausted:
      return RetryClass::kRetryable;  // back off for the retry-after hint, then resubmit
  }
  return RetryClass::kFatal;  // unreachable; the switch above is exhaustive
}

/// True when another attempt at `status`'s operation may succeed.
inline bool retryable(const Status& status) {
  return classify_for_retry(status.code()) == RetryClass::kRetryable;
}

/// Backoff constants. All delays are simulated cycles (virtual clock).
/// The first backoff, before attempt 2, is ~36 µs of V100 sim-time.
inline constexpr double kBaseBackoffCycles = 50'000.0;
inline constexpr double kBackoffMultiplier = 2.0;
inline constexpr double kMaxBackoffCycles = 10'000'000.0;

/// Deterministic backoff charged before retry number `attempt` (1-based:
/// attempt 1 is the backoff after the first failure). Exponential in
/// `attempt` with multiplicative jitter in [0.5, 1.0), capped at
/// kMaxBackoffCycles; a pure function of `attempt`.
double backoff_cycles(int attempt);

}  // namespace gnnbridge::rt
