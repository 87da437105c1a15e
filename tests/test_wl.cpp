// Workload model tests: distribution shapes, determinism, repeat groups.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "util/stats.hpp"
#include "wl/feitelson.hpp"

namespace {

using namespace dmr::wl;

FeitelsonParams params(int jobs, std::uint64_t seed = 1) {
  FeitelsonParams p;
  p.jobs = jobs;
  p.max_size = 20;
  p.mean_interarrival = 10.0;
  p.seed = seed;
  return p;
}

TEST(SizeWeights, SmallSizesDominate) {
  const auto w = feitelson_size_weights(20);
  ASSERT_EQ(w.size(), 20u);
  EXPECT_GT(w[0], w[2]);   // size 1 > size 3
  EXPECT_GT(w[4], w[5]);   // size 5 > size 6
}

TEST(SizeWeights, PowersOfTwoSpike) {
  const auto w = feitelson_size_weights(20);
  EXPECT_GT(w[7], w[6]);    // 8 boosted over 7
  EXPECT_GT(w[15], w[14]);  // 16 boosted over 15
  EXPECT_GT(w[15], w[16]);  // 16 over 17
}

TEST(SizeWeights, RejectsBadMax) {
  EXPECT_THROW(feitelson_size_weights(0), std::invalid_argument);
}

TEST(BalancedInterarrival, MatchesSampledOfferedLoad) {
  // The closed-form pacing must reproduce the sampled node-seconds per
  // job: offered load = E[size * runtime] / (interarrival * nodes).
  FeitelsonParams p = params(4000);
  p.mean_interarrival =
      feitelson_balanced_interarrival(p, /*nodes=*/20, /*target_load=*/0.8);
  const auto jobs = generate_feitelson(p);
  double node_seconds = 0.0;
  for (const auto& job : jobs) node_seconds += job.size * job.runtime;
  const double horizon = jobs.back().arrival;
  const double sampled_load = node_seconds / (horizon * 20.0);
  EXPECT_NEAR(sampled_load, 0.8, 0.25);
}

TEST(BalancedInterarrival, ScalesInverselyWithClusterSize) {
  const FeitelsonParams p = params(100);
  const double small = feitelson_balanced_interarrival(p, 20, 0.8);
  const double large = feitelson_balanced_interarrival(p, 80, 0.8);
  EXPECT_NEAR(small / large, 4.0, 1e-9);
  EXPECT_THROW(feitelson_balanced_interarrival(p, 0, 0.8),
               std::invalid_argument);
  EXPECT_THROW(feitelson_balanced_interarrival(p, 20, 0.0),
               std::invalid_argument);
}

TEST(Generate, DeterministicForSeed) {
  const auto a = generate_feitelson(params(100, 7));
  const auto b = generate_feitelson(params(100, 7));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].size, b[i].size);
    EXPECT_EQ(a[i].runtime, b[i].runtime);
  }
}

TEST(Generate, DifferentSeedsDiffer) {
  const auto a = generate_feitelson(params(50, 1));
  const auto b = generate_feitelson(params(50, 2));
  int same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size == b[i].size && a[i].runtime == b[i].runtime) ++same;
  }
  EXPECT_LT(same, 10);
}

TEST(Generate, ExactJobCountAndMonotoneArrivals) {
  const auto jobs = generate_feitelson(params(237));
  EXPECT_EQ(jobs.size(), 237u);
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_GE(jobs[i].arrival, jobs[i - 1].arrival);
    EXPECT_EQ(jobs[i].index, static_cast<int>(i));
  }
}

TEST(Generate, SizesWithinBounds) {
  const auto jobs = generate_feitelson(params(500));
  for (const auto& job : jobs) {
    EXPECT_GE(job.size, 1);
    EXPECT_LE(job.size, 20);
    EXPECT_GE(job.runtime, 1.0);
  }
}

TEST(Generate, InterArrivalMeanApproximatesPoisson) {
  auto p = params(4000, 3);
  const auto jobs = generate_feitelson(p);
  const auto stats = workload_stats(jobs);
  EXPECT_NEAR(stats.mean_interarrival, 10.0, 1.0);
}

TEST(Generate, RuntimeCorrelatesWithSize) {
  auto p = params(6000, 5);
  p.max_runtime = 0.0;
  const auto jobs = generate_feitelson(p);
  double small_sum = 0.0, big_sum = 0.0;
  int small_n = 0, big_n = 0;
  for (const auto& job : jobs) {
    if (job.size <= 4) {
      small_sum += job.runtime;
      ++small_n;
    } else if (job.size >= 12) {
      big_sum += job.runtime;
      ++big_n;
    }
  }
  ASSERT_GT(small_n, 100);
  ASSERT_GT(big_n, 100);
  EXPECT_GT(big_sum / big_n, small_sum / small_n);
}

TEST(Generate, RuntimeCapRespected) {
  auto p = params(1000, 9);
  p.max_runtime = 60.0;
  for (const auto& job : generate_feitelson(p)) {
    EXPECT_LE(job.runtime, 60.0);
  }
}

TEST(Generate, RepeatGroupsShareSizeAndRuntime) {
  const auto jobs = generate_feitelson(params(2000, 11));
  int repeats = 0;
  for (const auto& job : jobs) {
    if (job.repeat_of < 0) continue;
    ++repeats;
    const auto& first = jobs[static_cast<std::size_t>(job.repeat_of)];
    EXPECT_EQ(job.size, first.size);
    EXPECT_EQ(job.runtime, first.runtime);
    EXPECT_GT(job.arrival, first.arrival);
  }
  // Heavy-tailed repeats: some, but a minority.
  EXPECT_GT(repeats, 50);
  EXPECT_LT(repeats, 1200);
}

TEST(Generate, Pow2FractionElevated) {
  const auto jobs = generate_feitelson(params(5000, 13));
  const auto stats = workload_stats(jobs);
  // Powers of two in [1,20]: {1,2,4,8,16} = 25% of sizes but should
  // carry well over 40% of the mass with the boost.
  EXPECT_GT(stats.pow2_fraction, 0.45);
}

/// The samples' standard deviation, with Bessel's correction.
double sample_stddev(const std::vector<double>& samples) {
  const double mean = dmr::util::summarize(samples).mean;
  double squares = 0.0;
  for (const double x : samples) squares += (x - mean) * (x - mean);
  return std::sqrt(squares / static_cast<double>(samples.size() - 1));
}

TEST(Generate, HyperexponentialRuntimeOverdispersed) {
  auto p = params(8000, 17);
  const auto jobs = generate_feitelson(p);
  std::vector<double> runtimes;
  for (const auto& job : jobs) runtimes.push_back(job.runtime);
  const double mean = dmr::util::summarize(runtimes).mean;
  EXPECT_GT(sample_stddev(runtimes) / mean, 1.0);
}

}  // namespace
