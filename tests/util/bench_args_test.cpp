// The shared bench flag parser (bench/bench_common.hpp): the flags CI
// passes parse, --help exits 0, anything else exits 2 instead of silently
// running the default grid.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../../bench/bench_common.hpp"

namespace accountnet::bench {
namespace {

BenchArgs parse(std::vector<std::string> words) {
  words.insert(words.begin(), "bench");
  std::vector<char*> argv;
  for (auto& w : words) argv.push_back(w.data());
  return parse_args(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchArgs, DefaultsWithNoFlags) {
  const BenchArgs a = parse({});
  EXPECT_FALSE(a.full);
  EXPECT_EQ(a.seed, 1u);
  EXPECT_FALSE(a.timeseries);
  EXPECT_EQ(a.threads, 0u);
  EXPECT_TRUE(a.trace.empty());
}

TEST(BenchArgs, ParsesEveryFlag) {
  const BenchArgs a = parse({"--seed", "7", "--threads", "4", "--timeseries", "--full",
                             "--trace", "byz_trace_seed7.json"});
  EXPECT_TRUE(a.full);
  EXPECT_EQ(a.seed, 7u);
  EXPECT_TRUE(a.timeseries);
  EXPECT_EQ(a.threads, 4u);
  EXPECT_EQ(a.trace, "byz_trace_seed7.json");
}

TEST(BenchArgsDeathTest, HelpPrintsUsageAndExitsZero) {
  EXPECT_EXIT(parse({"--help"}), ::testing::ExitedWithCode(0), "");
}

TEST(BenchArgsDeathTest, UnknownFlagExitsTwo) {
  EXPECT_EXIT(parse({"--sed", "3"}), ::testing::ExitedWithCode(2), "unknown argument");
  EXPECT_EXIT(parse({"stray"}), ::testing::ExitedWithCode(2), "unknown argument");
}

TEST(BenchArgsDeathTest, MalformedOrMissingValueExitsTwo) {
  EXPECT_EXIT(parse({"--seed", "abc"}), ::testing::ExitedWithCode(2), "malformed value");
  EXPECT_EXIT(parse({"--threads", "-1"}), ::testing::ExitedWithCode(2), "malformed value");
  EXPECT_EXIT(parse({"--seed", "3x"}), ::testing::ExitedWithCode(2), "malformed value");
  EXPECT_EXIT(parse({"--seed", "99999999999999999999999"}), ::testing::ExitedWithCode(2),
              "malformed value");
  EXPECT_EXIT(parse({"--seed"}), ::testing::ExitedWithCode(2), "missing value");
  EXPECT_EXIT(parse({"--trace"}), ::testing::ExitedWithCode(2), "missing value");
}

}  // namespace
}  // namespace accountnet::bench
