#include "rt/status.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace gnnbridge::rt {
namespace {

TEST(StatusTest, DefaultIsOk) {
  const Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(static_cast<bool>(s));
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s(StatusCode::kDataLoss, "truncated payload");
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(static_cast<bool>(s));
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(s.message(), "truncated payload");
  EXPECT_EQ(s.to_string(), "DATA_LOSS: truncated payload");
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(status_code_name(StatusCode::kOk), "OK");
  EXPECT_EQ(status_code_name(StatusCode::kInvalidArgument), "INVALID_ARGUMENT");
  EXPECT_EQ(status_code_name(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_EQ(status_code_name(StatusCode::kDataLoss), "DATA_LOSS");
  EXPECT_EQ(status_code_name(StatusCode::kOutOfRange), "OUT_OF_RANGE");
  EXPECT_EQ(status_code_name(StatusCode::kFailedPrecondition), "FAILED_PRECONDITION");
  EXPECT_EQ(status_code_name(StatusCode::kUnavailable), "UNAVAILABLE");
  EXPECT_EQ(status_code_name(StatusCode::kInternal), "INTERNAL");
  EXPECT_EQ(status_code_name(StatusCode::kFaultInjected), "FAULT_INJECTED");
}

TEST(StatusTest, ContextChainRendersInnermostFirst) {
  const Status s = Status(StatusCode::kDataLoss, "bad number")
                       .with_context("parse_number")
                       .with_context("parse_json_file('m.json')");
  ASSERT_EQ(s.context().size(), 2u);
  EXPECT_EQ(s.context()[0], "parse_number");
  EXPECT_EQ(s.context()[1], "parse_json_file('m.json')");
  EXPECT_EQ(s.to_string(),
            "DATA_LOSS: bad number (in parse_number <- parse_json_file('m.json'))");
}

TEST(StatusTest, ContextOnLvalueChains) {
  Status s(StatusCode::kUnavailable, "io failed");
  s.with_context("inner").with_context("outer");
  ASSERT_EQ(s.context().size(), 2u);
  EXPECT_EQ(s.context()[0], "inner");
}

TEST(StatusTest, ContextIsNoOpOnOk) {
  Status s;
  s.with_context("should not appear");
  EXPECT_TRUE(s.context().empty());
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(StatusTest, EqualityIgnoresContext) {
  const Status a = Status(StatusCode::kNotFound, "gone").with_context("here");
  const Status b(StatusCode::kNotFound, "gone");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == Status(StatusCode::kNotFound, "different"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  const Result<int> r(Status(StatusCode::kNotFound, "no such dataset"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.status().message(), "no such dataset");
}

TEST(ResultTest, MoveExtractsValue) {
  Result<std::string> r(std::string("payload"));
  const std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Status fails_inner() { return Status(StatusCode::kInternal, "inner broke"); }

Status propagates() {
  GNNBRIDGE_RETURN_IF_ERROR(fails_inner());
  ADD_FAILURE() << "must not reach past a failed RETURN_IF_ERROR";
  return OkStatus();
}

Status passes_through() {
  GNNBRIDGE_RETURN_IF_ERROR(OkStatus());
  return Status(StatusCode::kUnavailable, "reached the end");
}

TEST(ReturnIfErrorTest, PropagatesErrorAndStopsOnOk) {
  EXPECT_EQ(propagates().code(), StatusCode::kInternal);
  EXPECT_EQ(passes_through().code(), StatusCode::kUnavailable);
}

TEST(StageFailureTest, CarriesSeamAndRenderedStatus) {
  const StageFailure f("sim_launch",
                       Status(StatusCode::kFaultInjected, "injected fault"));
  EXPECT_EQ(f.seam(), "sim_launch");
  EXPECT_EQ(f.status().code(), StatusCode::kFaultInjected);
  EXPECT_STREQ(f.what(), "FAULT_INJECTED: injected fault");
}

}  // namespace
}  // namespace gnnbridge::rt
