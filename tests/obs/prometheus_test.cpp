// Prometheus text exposition (DESIGN.md §13): label-value escaping per the
// exposition-format spec (backslash, double-quote, newline).
#include "obs/prometheus.hpp"

#include <gtest/gtest.h>

#include <string>

namespace gnnbridge::obs {
namespace {

TEST(PrometheusEscapeTest, PassesPlainValuesThrough) {
  EXPECT_EQ(prometheus_escape_label_value("tenant-a"), "tenant-a");
  EXPECT_EQ(prometheus_escape_label_value(""), "");
  EXPECT_EQ(prometheus_escape_label_value("utf8 σ ok"), "utf8 σ ok");
}

TEST(PrometheusEscapeTest, EscapesBackslashQuoteAndNewline) {
  EXPECT_EQ(prometheus_escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(prometheus_escape_label_value("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(prometheus_escape_label_value("line1\nline2"), "line1\\nline2");
  // A value made entirely of specials: \ " \n -> \\ \" \n (6 chars).
  EXPECT_EQ(prometheus_escape_label_value("\\\"\n"), "\\\\\\\"\\n");
}

}  // namespace
}  // namespace gnnbridge::obs
