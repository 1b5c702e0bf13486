// Retryability classification (batch runs and shard recovery, DESIGN.md
// §12 and §17).
//
// Every StatusCode is *explicitly* classified as retryable or fatal by an
// exhaustive switch — adding a code without deciding its class is a
// compile error (-Wswitch under -Werror), and a table test asserts the
// decisions. run_batch spends a job's extra attempts only on retryable
// failures, and shard recovery re-executes a shard only for one.
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
  }
  return RetryClass::kFatal;  // unreachable; the switch above is exhaustive
}

/// True when another attempt at `status`'s operation may succeed.
inline bool retryable(const Status& status) {
  return classify_for_retry(status.code()) == RetryClass::kRetryable;
}

}  // namespace gnnbridge::rt
