#include <gtest/gtest.h>

#include <sstream>

#include "traffic/trace.hpp"

namespace {

using lrd::traffic::RateTrace;

TEST(RateTrace, ValidatesInput) {
  EXPECT_THROW(RateTrace({}, 0.01), std::invalid_argument);
  EXPECT_THROW(RateTrace({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(RateTrace({1.0, -2.0}, 0.01), std::invalid_argument);
}

TEST(RateTrace, BasicStats) {
  RateTrace t({1.0, 2.0, 3.0, 4.0}, 0.5);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_DOUBLE_EQ(t.bin_seconds(), 0.5);
  EXPECT_DOUBLE_EQ(t.duration(), 2.0);
  EXPECT_DOUBLE_EQ(t.mean(), 2.5);
  EXPECT_DOUBLE_EQ(t.variance(), 1.25);
  EXPECT_DOUBLE_EQ(t.min(), 1.0);
  EXPECT_DOUBLE_EQ(t.max(), 4.0);
  EXPECT_DOUBLE_EQ(t[2], 3.0);
}

TEST(RateTrace, WorkAccounting) {
  RateTrace t({2.0, 4.0}, 0.25);
  EXPECT_DOUBLE_EQ(t.work(0), 0.5);
  EXPECT_DOUBLE_EQ(t.work(1), 1.0);
  EXPECT_DOUBLE_EQ(t.total_work(), 1.5);
}

TEST(RateTrace, Head) {
  RateTrace t({1.0, 2.0, 3.0}, 0.1);
  RateTrace h = t.head(2);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_DOUBLE_EQ(h[1], 2.0);
  EXPECT_THROW(t.head(0), std::invalid_argument);
  EXPECT_THROW(t.head(4), std::invalid_argument);
}

TEST(RateTrace, SaveLoadRoundTrip) {
  RateTrace t({1.25, 0.0, 3.75e-3, 9.5222}, 1.0 / 29.97);
  std::stringstream ss;
  t.save(ss);
  auto loaded = RateTrace::try_load(ss);
  ASSERT_TRUE(loaded.has_value());
  const RateTrace& back = loaded.value();
  ASSERT_EQ(back.size(), t.size());
  EXPECT_DOUBLE_EQ(back.bin_seconds(), t.bin_seconds());
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_DOUBLE_EQ(back[i], t[i]);
}

TEST(RateTrace, LoadRejectsGarbage) {
  std::stringstream empty("");
  const auto from_empty = RateTrace::try_load(empty);
  EXPECT_FALSE(from_empty.has_value());
  EXPECT_EQ(from_empty.status().category(), lrd::ErrorCategory::kParse);
  std::stringstream truncated("0.01 5\n1.0 2.0\n");
  const auto from_truncated = RateTrace::try_load(truncated);
  EXPECT_FALSE(from_truncated.has_value());
  EXPECT_EQ(from_truncated.status().category(), lrd::ErrorCategory::kParse);
}

TEST(RateTrace, FileRoundTrip) {
  RateTrace t({1.0, 2.0}, 0.5);
  const std::string path = ::testing::TempDir() + "/lrd_trace_test.txt";
  t.save_file(path);
  RateTrace back = RateTrace::load_file(path);
  EXPECT_EQ(back.size(), 2u);
  EXPECT_THROW(RateTrace::load_file("/nonexistent/path/trace.txt"), std::runtime_error);
}

}  // namespace
