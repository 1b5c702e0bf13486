// Retryability classification table (every StatusCode, asserted one by
// one). The classification switch itself is exhaustive at compile time
// (-Wswitch under -Werror); this table pins the *decisions* so
// reclassifying a code is a visible diff.
#include "rt/retry.hpp"

#include <gtest/gtest.h>

#include "rt/status.hpp"

namespace gnnbridge::rt {
namespace {

struct Row {
  StatusCode code;
  RetryClass want;
};

// One row per StatusCode enumerator, in enum order.
constexpr Row kTable[] = {
    {StatusCode::kOk, RetryClass::kFatal},
    {StatusCode::kInvalidArgument, RetryClass::kFatal},
    {StatusCode::kNotFound, RetryClass::kFatal},
    {StatusCode::kDataLoss, RetryClass::kFatal},
    {StatusCode::kOutOfRange, RetryClass::kFatal},
    {StatusCode::kFailedPrecondition, RetryClass::kFatal},
    {StatusCode::kUnavailable, RetryClass::kRetryable},
    {StatusCode::kInternal, RetryClass::kFatal},
    {StatusCode::kFaultInjected, RetryClass::kRetryable},
};

// The classification is constexpr: usable in static dispatch decisions.
static_assert(classify_for_retry(StatusCode::kUnavailable) == RetryClass::kRetryable);
static_assert(classify_for_retry(StatusCode::kInternal) == RetryClass::kFatal);

TEST(RetryClassificationTest, EveryCodeIsClassifiedAsExpected) {
  for (const Row& row : kTable) {
    EXPECT_EQ(classify_for_retry(row.code), row.want)
        << "code " << status_code_name(row.code);
  }
}

TEST(RetryClassificationTest, RetryableMatchesTheTable) {
  for (const Row& row : kTable) {
    if (row.code == StatusCode::kOk) continue;  // ok Status carries no code to retry
    const Status status(row.code, "x");
    EXPECT_EQ(retryable(status), row.want == RetryClass::kRetryable)
        << "code " << status_code_name(row.code);
  }
  EXPECT_FALSE(retryable(OkStatus()));
}

TEST(RetryClassificationTest, TerminalResilienceCodesNeverRetry) {
  // The codes run_batch and the degradation ladder end a job with when
  // nothing is left to try must be fatal: a job without a dataset or run
  // request (kInvalidArgument), bad inputs caught by preflight
  // (kFailedPrecondition) and spent ladder rounds (kInternal). Retrying
  // them would only replay the same failure max_attempts times.
  EXPECT_EQ(classify_for_retry(StatusCode::kInvalidArgument), RetryClass::kFatal);
  EXPECT_EQ(classify_for_retry(StatusCode::kFailedPrecondition), RetryClass::kFatal);
  EXPECT_EQ(classify_for_retry(StatusCode::kInternal), RetryClass::kFatal);
}

}  // namespace
}  // namespace gnnbridge::rt
