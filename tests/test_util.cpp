// Unit tests for dmr::util — RNG determinism and distribution moments,
// statistics, tables, charts and configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/chart.hpp"
#include "util/config.hpp"
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
  std::vector<double> samples;
  for (int i = 0; i < 200000; ++i) {
    samples.push_back(rng.exponential_mean(10.0));
  }
  EXPECT_NEAR(summarize(samples).mean, 10.0, 0.15);
}

TEST(Rng, HyperexponentialMeanMatchesMixture) {
  Rng rng(42);
  std::vector<double> samples;
  // E = 0.7*5 + 0.3*50 = 18.5
  for (int i = 0; i < 300000; ++i) {
    samples.push_back(rng.hyperexponential(0.7, 5.0, 50.0));
  }
  EXPECT_NEAR(summarize(samples).mean, 18.5, 0.5);
}

/// The samples' standard deviation, with Bessel's correction.
double sample_stddev(const std::vector<double>& samples) {
  const double mean = summarize(samples).mean;
  double squares = 0.0;
  for (const double x : samples) squares += (x - mean) * (x - mean);
  return std::sqrt(squares / static_cast<double>(samples.size() - 1));
}

TEST(Rng, HyperexponentialIsOverdispersed) {
  Rng rng(9);
  std::vector<double> samples;
  for (int i = 0; i < 100000; ++i) {
    samples.push_back(rng.hyperexponential(0.8, 2.0, 40.0));
  }
  // Coefficient of variation > 1 distinguishes it from a plain
  // exponential.
  EXPECT_GT(sample_stddev(samples) / summarize(samples).mean, 1.1);
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  std::vector<double> samples;
  for (int i = 0; i < 200000; ++i) samples.push_back(rng.normal(3.0, 2.0));
  EXPECT_NEAR(summarize(samples).mean, 3.0, 0.05);
  EXPECT_NEAR(sample_stddev(samples), 2.0, 0.05);
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

TEST(Summary, MomentsOfKnownData) {
  const Summary s = summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(Summary, PercentilesOfKnownData) {
  std::vector<double> data;
  for (int i = 1; i <= 100; ++i) data.push_back(i);
  const Summary s = summarize(data);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.p95, 95.05, 1e-9);
}

TEST(Summary, EmptyInputIsZeroed) {
  const Summary s = summarize({});
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.p95, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
}

/// p95 and max as a sort yields them: std::sort, then the interpolated
/// percentile and the last sample (the mean stays 0).
Summary sorted_reference(std::vector<double> samples) {
  Summary s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const double pos = 0.95 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  s.p95 = samples.back();
  if (lo + 1 < samples.size()) {
    s.p95 = samples[lo] * (1.0 - frac) + samples[lo + 1] * frac;
  }
  s.max = samples.back();
  return s;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Seeded samples of one shape: archive-like waits (mostly +0.0) and
/// executions, runs of duplicates, the float extremes (subnormals, +inf,
/// DBL_MAX) with negatives, whole seconds, and integers on binade edges.
/// None is -0.0 or NaN, the two inputs std::sort may order differently.
std::vector<double> shaped_samples(int shape, std::size_t n,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    double x = 0.0;
    switch (shape) {
      case 0:  // waits
        x = rng.bernoulli(0.7) ? 0.0 : rng.exponential_mean(300.0);
        break;
      case 1:  // executions
        x = rng.uniform(1.0, 86400.0);
        break;
      case 2: {  // runs of duplicates and of +0.0
        const auto tenths = static_cast<double>(rng.uniform_int(1, 5));
        x = rng.bernoulli(0.3) ? 0.0 : tenths * 0.1;
        break;
      }
      case 3: {  // extremes and negatives
        const double pick = rng.uniform();
        if (pick < 0.1) {
          x = std::numeric_limits<double>::denorm_min() *
              static_cast<double>(rng.uniform_int(1, 1000));
        } else if (pick < 0.15) {
          x = std::numeric_limits<double>::infinity();
        } else if (pick < 0.2) {
          x = std::numeric_limits<double>::max();
        } else if (pick < 0.6) {
          x = -rng.exponential_mean(1e3);
        } else {
          x = rng.uniform(-1e-300, 1e300);
        }
        break;
      }
      case 4:  // whole seconds
        x = static_cast<double>(rng.uniform_int(0, 86400));
        break;
      default: {  // integers on binade edges, either sign
        const auto binade = static_cast<int>(rng.uniform_int(0, 62));
        const auto offset = static_cast<double>(rng.uniform_int(-1, 1));
        x = std::ldexp(1.0, binade) + offset;
        if (rng.bernoulli(0.25) && x != 0.0) x = -x;
        break;
      }
    }
    samples.push_back(x);
  }
  return samples;
}

TEST(Summary, SelectionMatchesSortedReference) {
  for (const int n : {0, 1, 2, 3, 1023, 1024, 1025, 2500, 300000}) {
    for (int shape = 0; shape < 6; ++shape) {
      for (const std::uint64_t seed : {1ULL, 2017ULL}) {
        const std::vector<double> samples =
            shaped_samples(shape, static_cast<std::size_t>(n), seed);
        const Summary s = summarize(samples);
        const Summary ref = sorted_reference(samples);
        double sum = 0.0;
        for (const double x : samples) sum += x;
        const double mean = n == 0 ? 0.0 : sum / static_cast<double>(n);
        EXPECT_EQ(bits(s.p95), bits(ref.p95))
            << "n " << n << " shape " << shape << " seed " << seed;
        EXPECT_EQ(bits(s.max), bits(ref.max))
            << "n " << n << " shape " << shape << " seed " << seed;
        EXPECT_EQ(bits(s.mean), bits(mean))
            << "n " << n << " shape " << shape << " seed " << seed;
      }
    }
  }
}

TEST(Summary, NanSampleThrows) {
  for (const int n : {1, 10, 2000}) {
    std::vector<double> samples(static_cast<std::size_t>(n), 1.0);
    samples[samples.size() / 2] = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(summarize(samples), std::invalid_argument) << "n " << n;
  }
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

/// The average as a scan from the first point: what StepSeries::average
/// computed before it started at a binary search.
double scanned_average(const StepSeries& s, double t0, double t1) {
  double prev_v = 0.0;
  for (std::size_t i = 0; i < s.size() && s.times()[i] <= t0; ++i) {
    prev_v = s.values()[i];
  }
  if (!(t1 > t0)) return prev_v;
  double area = 0.0;
  double prev_t = t0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const double t = s.times()[i];
    if (t <= t0) continue;
    if (t >= t1) break;
    area += prev_v * (t - prev_t);
    prev_t = t;
    prev_v = s.values()[i];
  }
  area += prev_v * (t1 - prev_t);
  return area / (t1 - t0);
}

TEST(StepSeries, AverageMatchesLinearScan) {
  Rng rng(2017);
  for (int trial = 0; trial < 200; ++trial) {
    StepSeries s;
    double t = rng.uniform(0.0, 50.0);
    const int points = static_cast<int>(rng.uniform_int(0, 40));
    for (int p = 0; p < points; ++p) {
      s.add_point(t, rng.uniform(0.0, 64.0));
      // Some repeats: same-instant points collapse.
      if (!rng.bernoulli(0.1)) t += rng.exponential_mean(7.3);
    }
    const double first = s.empty() ? 0.0 : s.times().front();
    const double last = s.last_time();
    // t0 before the first point, t1 past the last, both past the last,
    // and t1 == t0.
    std::vector<std::pair<double, double>> windows = {
        {first - 5.0, first + 3.0},
        {first - 5.0, last + 5.0},
        {last + 1.0, last + 9.0},
        {last, last},
    };
    for (int w = 0; w < 20; ++w) {
      const double t0 = rng.uniform(first - 10.0, last + 10.0);
      windows.emplace_back(t0, t0 + rng.exponential_mean(30.0));
      windows.emplace_back(t0, t0);
      windows.emplace_back(t0, t0 - 1.0);
    }
    for (std::size_t i = 0; i < s.size(); i += 3) {
      // t0 on a point, t1 on a point or between points.
      const double t0 = s.times()[i];
      windows.emplace_back(t0, s.times()[std::min(i + 2, s.size() - 1)]);
      windows.emplace_back(t0, t0 + rng.uniform(0.0, 20.0));
    }
    for (const auto& [t0, t1] : windows) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(s.average(t0, t1)),
                std::bit_cast<std::uint64_t>(scanned_average(s, t0, t1)))
          << "trial " << trial << " window [" << t0 << ", " << t1 << "]";
    }
  }
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

TEST(Config, RealAndU64Parsing) {
  EXPECT_DOUBLE_EQ(parse_real("0.9", "load", 0.0, 1.0), 0.9);
  EXPECT_DOUBLE_EQ(parse_real("1", "load", 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(parse_real("-2.5e1", "x", -100.0, 0.0), -25.0);
  EXPECT_EQ(parse_u64("18446744073709551615", "seed"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_u64("0", "seed"), 0u);
  EXPECT_STREQ(arg_value("load=0.5", "load"), "0.5");
  EXPECT_STREQ(arg_value("load=", "load"), "");
  EXPECT_EQ(arg_value("loads=0.5", "load"), nullptr);
  EXPECT_EQ(arg_value("load", "load"), nullptr);
}

TEST(ConfigDeathTest, RealAndU64RejectJunk) {
  const auto exits_2 = testing::ExitedWithCode(2);
  // NaN compares false against both bounds of a `< lo || > hi` check.
  EXPECT_EXIT(parse_real("nan", "load", 0.0, 1.0), exits_2, "load: 'nan'");
  EXPECT_EXIT(parse_real("inf", "load", 0.0, 1.0), exits_2, "load");
  EXPECT_EXIT(parse_real("1e999", "load", 0.0, 1.0), exits_2, "load");
  EXPECT_EXIT(parse_real("0.9abc", "load", 0.0, 1.0), exits_2, "load");
  EXPECT_EXIT(parse_real("1.5", "load", 0.0, 1.0), exits_2, "load");
  EXPECT_EXIT(parse_real("-0.1", "load", 0.0, 1.0), exits_2, "load");
  EXPECT_EXIT(parse_real("", "load", 0.0, 1.0), exits_2, "load");
  EXPECT_EXIT(parse_real(" 0.5", "load", 0.0, 1.0), exits_2, "load");
  // %llu read -1 as 18446744073709551615.
  EXPECT_EXIT(parse_u64("-1", "seed"), exits_2, "seed: '-1'");
  EXPECT_EXIT(parse_u64("+1", "seed"), exits_2, "seed");
  EXPECT_EXIT(parse_u64("18446744073709551616", "seed"), exits_2, "seed");
  EXPECT_EXIT(parse_u64("12abc", "seed"), exits_2, "seed");
  EXPECT_EXIT(parse_u64("11", "--job", 10), exits_2, "--job");
}

}  // namespace
