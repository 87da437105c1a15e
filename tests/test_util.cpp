// Unit tests for dmr::util — RNG determinism and distribution moments,
// statistics, tables, charts and configuration.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/chart.hpp"
#include "util/config.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace dmr::util;

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 10000; ++i) seen.insert(rng.uniform_int(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(5, 4), std::invalid_argument);
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(42);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.exponential_mean(10.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.15);
}

TEST(Rng, HyperexponentialMeanMatchesMixture) {
  Rng rng(42);
  RunningStats stats;
  // E = 0.7*5 + 0.3*50 = 18.5
  for (int i = 0; i < 300000; ++i) {
    stats.add(rng.hyperexponential(0.7, 5.0, 50.0));
  }
  EXPECT_NEAR(stats.mean(), 18.5, 0.5);
}

TEST(Rng, HyperexponentialIsOverdispersed) {
  Rng rng(9);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.add(rng.hyperexponential(0.8, 2.0, 40.0));
  }
  // Coefficient of variation > 1 distinguishes it from a plain
  // exponential.
  EXPECT_GT(stats.stddev() / stats.mean(), 1.1);
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, DiscreteRespectsWeights) {
  Rng rng(3);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.discrete(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.25);
}

TEST(Rng, DiscreteRejectsDegenerateInput) {
  Rng rng(1);
  const std::vector<double> zero = {0.0, 0.0};
  EXPECT_THROW(rng.discrete(zero), std::invalid_argument);
  const std::vector<double> negative = {1.0, -0.5};
  EXPECT_THROW(rng.discrete(negative), std::invalid_argument);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(77);
  Rng child = a.fork();
  Rng a2(77);
  (void)a2();  // fork consumed one draw
  EXPECT_NE(child(), a());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsCombined) {
  RunningStats a, b, all;
  Rng rng(21);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal();
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Summary, PercentilesOfKnownData) {
  std::vector<double> data;
  for (int i = 1; i <= 100; ++i) data.push_back(i);
  const Summary s = summarize(data);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.median, 50.5, 1e-9);
  EXPECT_NEAR(s.p25, 25.75, 1e-9);
  EXPECT_NEAR(s.p95, 95.05, 1e-9);
}

TEST(Summary, EmptyInputIsZeroed) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Histogram, BinsAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  for (double x : {0.5, 1.5, 1.6, 9.99, 10.0, -0.1}) h.add(x);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(1), 2u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.total(), 6u);
}

TEST(Histogram, RejectsDegenerateRange) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(TableWriter, AlignsColumns) {
  TableWriter t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("long-name"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableWriter, RejectsArityMismatch) {
  TableWriter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TableWriter, CsvQuoting) {
  TableWriter t({"x"});
  t.add_row({"has,comma"});
  EXPECT_NE(t.render_csv().find("\"has,comma\""), std::string::npos);
}

TEST(TableWriter, CellFormatting) {
  EXPECT_EQ(TableWriter::cell(3.14159, 2), "3.14");
  EXPECT_EQ(TableWriter::cell(42ll), "42");
  EXPECT_EQ(TableWriter::percent(0.4649, 2), "46.49%");
}

TEST(StepSeries, ValueAtAndAverage) {
  StepSeries s;
  s.add_point(0.0, 0.0);
  s.add_point(10.0, 4.0);
  s.add_point(20.0, 2.0);
  EXPECT_DOUBLE_EQ(s.value_at(5.0), 0.0);
  EXPECT_DOUBLE_EQ(s.value_at(10.0), 4.0);
  EXPECT_DOUBLE_EQ(s.value_at(15.0), 4.0);
  EXPECT_DOUBLE_EQ(s.value_at(25.0), 2.0);
  // [0,30]: 10s at 0 + 10s at 4 + 10s at 2 = 60/30 = 2
  EXPECT_NEAR(s.average(0.0, 30.0), 2.0, 1e-12);
}

TEST(StepSeries, RejectsNonMonotoneTime) {
  StepSeries s;
  s.add_point(5.0, 1.0);
  EXPECT_THROW(s.add_point(4.0, 2.0), std::invalid_argument);
}

TEST(StepSeries, SameInstantCollapses) {
  StepSeries s;
  s.add_point(1.0, 1.0);
  s.add_point(1.0, 3.0);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s.value_at(1.0), 3.0);
}

TEST(TimeSeriesChart, RendersAllSeries) {
  StepSeries s;
  s.add_point(0.0, 1.0);
  s.add_point(50.0, 5.0);
  TimeSeriesChart chart(100.0, 40, 4);
  chart.add_series("allocated", s);
  const std::string out = chart.render();
  EXPECT_NE(out.find("allocated"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);
}

TEST(Config, EnvRoundTrip) {
  set_env("DMR_TEST_KEY", "42");
  EXPECT_EQ(env_int("DMR_TEST_KEY", 0), 42);
  EXPECT_DOUBLE_EQ(env_double("DMR_TEST_KEY", 0.0), 42.0);
  set_env("DMR_TEST_KEY", "not-a-number");
  EXPECT_EQ(env_int("DMR_TEST_KEY", 7), 7);
  unset_env("DMR_TEST_KEY");
  EXPECT_FALSE(env_string("DMR_TEST_KEY").has_value());
}

TEST(Config, BoolParsing) {
  set_env("DMR_TEST_BOOL", "true");
  EXPECT_TRUE(env_bool("DMR_TEST_BOOL", false));
  set_env("DMR_TEST_BOOL", "0");
  EXPECT_FALSE(env_bool("DMR_TEST_BOOL", true));
  set_env("DMR_TEST_BOOL", "garbage");
  EXPECT_TRUE(env_bool("DMR_TEST_BOOL", true));
  unset_env("DMR_TEST_BOOL");
}

TEST(Config, KeyValueParsing) {
  const auto kv = parse_key_value("nodes=64");
  ASSERT_TRUE(kv.has_value());
  EXPECT_EQ(kv->first, "nodes");
  EXPECT_EQ(kv->second, "64");
  EXPECT_FALSE(parse_key_value("no-equals").has_value());
  EXPECT_FALSE(parse_key_value("=value").has_value());
}

TEST(Config, CountArgParsing) {
  int value = 7;
  EXPECT_FALSE(parse_count_arg("seeds=3", "jobs", value));
  EXPECT_FALSE(parse_count_arg("jobsx=3", "jobs", value));
  EXPECT_EQ(value, 7);
  EXPECT_TRUE(parse_count_arg("jobs=2147483647", "jobs", value));
  EXPECT_EQ(value, 2147483647);
  EXPECT_TRUE(parse_count_arg("threads=0", "threads", value, 0));
  EXPECT_EQ(value, 0);
  EXPECT_EQ(parse_count("12", "--clusters"), 12);
}

TEST(ConfigDeathTest, CountArgRejectsWrapAndJunk) {
  int value = 0;
  const auto exits_2 = testing::ExitedWithCode(2);
  // 2^32 + 1 used to wrap to 1 through static_cast<int>.
  EXPECT_EXIT(parse_count_arg("jobs=4294967297", "jobs", value), exits_2,
              "jobs: '4294967297'");
  EXPECT_EXIT(parse_count_arg("jobs=2147483648", "jobs", value), exits_2,
              "jobs");
  EXPECT_EXIT(parse_count_arg("jobs=0", "jobs", value), exits_2, "jobs");
  EXPECT_EXIT(parse_count_arg("jobs=-1", "jobs", value), exits_2, "jobs");
  EXPECT_EXIT(parse_count_arg("jobs=12x", "jobs", value), exits_2, "jobs");
  EXPECT_EXIT(parse_count_arg("jobs=", "jobs", value), exits_2, "jobs");
  EXPECT_EXIT(parse_count("+3", "--clusters", 1), exits_2, "--clusters");
  EXPECT_EXIT(parse_count("-0", "--trace-cell", 0), exits_2, "--trace-cell");
}

TEST(Log, SinkCapturesAtLevel) {
  auto& logger = Logger::instance();
  const LogLevel saved = logger.level();
  std::vector<std::string> lines;
  logger.set_sink([&](std::string_view line) { lines.emplace_back(line); });
  logger.set_level(LogLevel::Info);
  DMR_INFO("test") << "hello " << 42;
  DMR_DEBUG("test") << "filtered";
  logger.reset_sink();
  logger.set_level(saved);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("hello 42"), std::string::npos);
  EXPECT_NE(lines[0].find("[test]"), std::string::npos);
}

TEST(Log, ParseLevels) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::Trace);
  EXPECT_EQ(parse_log_level("off"), LogLevel::Off);
  EXPECT_EQ(parse_log_level("bogus"), LogLevel::Info);
}

}  // namespace
