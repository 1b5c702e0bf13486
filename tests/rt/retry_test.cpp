// Retryability classification table (every StatusCode, asserted one by
// one) and the deterministic sim-time backoff. The classification switch
// itself is exhaustive at compile time (-Wswitch under -Werror); this
// table pins the *decisions* so reclassifying a code is a visible diff.
#include "rt/retry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

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
    {StatusCode::kDeadlineExceeded, RetryClass::kFatal},
    {StatusCode::kCancelled, RetryClass::kFatal},
    {StatusCode::kResourceExhausted, RetryClass::kRetryable},
};

// The classification is constexpr: usable in static dispatch decisions.
static_assert(classify_for_retry(StatusCode::kUnavailable) == RetryClass::kRetryable);
static_assert(classify_for_retry(StatusCode::kDeadlineExceeded) == RetryClass::kFatal);

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
  // The two codes the resilience layer itself produces must be fatal:
  // retrying after the budget is spent (or the caller cancelled) would
  // make deadlines advisory.
  EXPECT_EQ(classify_for_retry(StatusCode::kDeadlineExceeded), RetryClass::kFatal);
  EXPECT_EQ(classify_for_retry(StatusCode::kCancelled), RetryClass::kFatal);
}

TEST(BackoffTest, PureFunctionOfPolicyAndAttempt) {
  for (int attempt = 1; attempt <= 10; ++attempt) {
    EXPECT_EQ(backoff_cycles(attempt), backoff_cycles(attempt)) << "attempt " << attempt;
  }
}

TEST(BackoffTest, ExponentialWithJitterInHalfToFullBand) {
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const double uncapped = kBaseBackoffCycles * std::pow(kBackoffMultiplier, attempt - 1);
    const double expected = std::min(uncapped, kMaxBackoffCycles);
    const double got = backoff_cycles(attempt);
    EXPECT_GE(got, 0.5 * expected) << "attempt " << attempt;
    EXPECT_LT(got, expected) << "attempt " << attempt;
  }
}

TEST(BackoffTest, CapBoundsLateAttempts) {
  for (int attempt = 1; attempt <= 40; ++attempt) {
    EXPECT_LE(backoff_cycles(attempt), kMaxBackoffCycles);
    EXPECT_GT(backoff_cycles(attempt), 0.0);
  }
}

}  // namespace
}  // namespace gnnbridge::rt
