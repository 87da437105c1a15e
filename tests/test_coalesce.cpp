// Golden outcomes for the paths where the checking inhibitor swallows
// reconfiguring points and where rigid jobs run untouched.
//
// engine_digests.hpp drives Flexible Sleep with the inhibitor disabled,
// so every step there reaches the RMS.  These runs cover the rest: the
// Table I CG / Jacobi / N-body mix (15 s inhibitor period on CG and
// Jacobi), Flexible Sleep under several inhibitor periods with one job
// in three rigid, and a rigid-only workload — each on one cluster and on
// the 3-member federation, synchronous and asynchronous.  A digest covers
// every job's lifecycle, the metrics tail and the redistribution totals,
// so any change in when a job checks, resizes or ends changes it.
//
// The driver dispatches one engine event per check that reaches the RMS;
// the event-count gates and the Inhibitor::would_allow tests below pin
// that, deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "chk/auditor.hpp"
#include "dmr/inhibitor.hpp"
#include "engine_digests.hpp"

namespace {

using namespace dmr;

constexpr std::uint64_t kSeeds[] = {1, 7, 42, 2017};

drv::DriverConfig single_cluster_config() {
  drv::DriverConfig config;
  config.rms.nodes = 64;
  config.rms.shrink_priority_boost = true;
  config.rms.scheduler.backfill = true;
  return config;
}

drv::DriverConfig federation_config() {
  drv::DriverConfig config;
  const fed::MemberMix mix = fed::parse_member_mix(fed::kDefaultMemberMix);
  for (int c = 0; c < 3; ++c) {
    config.federation.clusters.push_back(fed::member_spec(mix, c));
  }
  config.federation.placement = fed::Placement::LeastLoaded;
  return config;
}

/// The Section IX mix at a fifth of Table I's iterations, submitted at
/// each class's maximum size (capped at `max_size`).
std::vector<drv::JobPlan> table_one_mix(std::uint64_t seed, int jobs,
                                        int max_size) {
  const std::vector<apps::AppModel> classes = {
      apps::cg_model(), apps::jacobi_model(), apps::nbody_model()};
  std::vector<int> class_of(static_cast<std::size_t>(jobs));
  for (int i = 0; i < jobs; ++i) class_of[static_cast<std::size_t>(i)] = i % 3;
  util::Rng rng(seed);
  rng.shuffle(class_of);
  std::vector<drv::JobPlan> plans;
  double arrival = 0.0;
  for (int i = 0; i < jobs; ++i) {
    arrival += rng.exponential_mean(60.0);
    drv::JobPlan plan;
    plan.model = classes[static_cast<std::size_t>(
        class_of[static_cast<std::size_t>(i)])];
    plan.model.iterations =
        std::max(1, static_cast<int>(plan.model.iterations * 0.2));
    rms::DmrRequest& request = plan.model.request;
    request.max_procs = std::min(request.max_procs, max_size);
    request.preferred = std::min(request.preferred, max_size);
    plan.arrival = arrival;
    plan.submit_nodes = request.max_procs;
    plan.flexible = true;
    plans.push_back(std::move(plan));
  }
  return plans;
}

/// Flexible Sleep over 25 steps, every third job rigid (or all of them).
std::vector<drv::JobPlan> fs_mix(std::uint64_t seed, int jobs, int max_size,
                                 bool all_rigid) {
  wl::FeitelsonParams params;
  params.jobs = jobs;
  params.max_size = max_size;
  params.mean_interarrival = 10.0;
  params.max_runtime = 300.0;
  params.seed = seed;
  std::vector<drv::JobPlan> plans;
  int index = 0;
  for (const auto& job : wl::generate_feitelson(params)) {
    drv::JobPlan plan;
    plan.arrival = job.arrival;
    plan.model = apps::fs_model(25, job.size, job.runtime / 25, max_size,
                                std::size_t(1) << 24);
    plan.submit_nodes = job.size;
    plan.flexible = !all_rigid && index++ % 3 != 2;
    plans.push_back(std::move(plan));
  }
  return plans;
}

struct RunResult {
  std::string text;
  std::uint64_t events = 0;
  int jobs = 0;
};

/// One audited run; its text is what the digests hash.
RunResult run(drv::DriverConfig config, bool asynchronous,
              std::vector<drv::JobPlan> plans) {
  chk::Auditor auditor;
  config.asynchronous = asynchronous;
  config.hooks.auditor = &auditor;
  sim::Engine engine;
  drv::WorkloadDriver driver(engine, config);
  RunResult result;
  result.jobs = static_cast<int>(plans.size());
  for (auto& plan : plans) driver.add(std::move(plan));
  const drv::WorkloadMetrics metrics = driver.run();
  const chk::Report report = auditor.report();
  EXPECT_TRUE(report.ok()) << report.describe();
  char totals[160];
  std::snprintf(totals, sizeof(totals),
                "bytes=%zu redist=%.17g aborted=%lld\n",
                metrics.bytes_redistributed, metrics.redistribution_seconds,
                static_cast<long long>(metrics.aborted_expands));
  result.text = digests::job_table(driver.federation()) +
                digests::metrics_tail(metrics) + totals;
  result.events = engine.executed();
  return result;
}

struct Scenario {
  const char* name;
  bool federation;
  /// < 0: the Table I mix; otherwise Flexible Sleep at this period.
  double period;
  bool all_rigid;
};

constexpr Scenario kScenarios[] = {
    {"table1_single", false, -1.0, false},
    {"table1_federation", true, -1.0, false},
    {"fs_p0_single", false, 0.0, false},
    {"fs_p7_single", false, 7.0, false},
    {"fs_p30_single", false, 30.0, false},
    {"fs_p0_federation", true, 0.0, false},
    {"fs_p7_federation", true, 7.0, false},
    {"fs_p30_federation", true, 30.0, false},
    {"rigid_single", false, 0.0, true},
};

RunResult run_scenario(const Scenario& scenario, std::uint64_t seed,
                       bool asynchronous) {
  drv::DriverConfig config =
      scenario.federation ? federation_config() : single_cluster_config();
  const int max_size = scenario.federation ? 16 : 64;
  if (scenario.period < 0.0) {
    return run(config, asynchronous, table_one_mix(seed, 30, max_size));
  }
  config.sched_period_override = scenario.period;
  return run(config, asynchronous,
             fs_mix(seed, 60, max_size, scenario.all_rigid));
}

/// Sync and async runs of one scenario and seed, hashed together.
std::uint64_t scenario_digest(const Scenario& scenario, std::uint64_t seed) {
  std::string text = run_scenario(scenario, seed, false).text;
  text += run_scenario(scenario, seed, true).text;
  return digests::fnv1a(text);
}

// Captured from the per-iteration driver, which dispatched one engine
// event per application step.  Row order follows kScenarios; columns
// follow kSeeds.
constexpr std::uint64_t kGoldens[][4] = {
    {0xe5133884336262d5ULL, 0x757676fb38f7397aULL, 0x253ba5dfc73d66c5ULL,
     0x608225bb637522d9ULL},
    {0xe8ab777e6bd780ddULL, 0x3483d323df27d6beULL, 0x28c16b2d5d925161ULL,
     0x7f66cd640d650f40ULL},
    {0x21f11c6b2d2a294fULL, 0x6b643737e20eee77ULL, 0xd8777b9a9c1c6165ULL,
     0x896baaf05f3e2f68ULL},
    {0xcee0ab4b2a7b6f57ULL, 0xa433be5d2a3c4f39ULL, 0xd69070e43e439761ULL,
     0x311f958d64f265d5ULL},
    {0x46df671d3a3ade2cULL, 0x5a11fcfbbd10831aULL, 0xd8e696a59d550c2aULL,
     0xff4e08d242888a52ULL},
    {0x9f4b8bbbe28b459aULL, 0x16dcacae6175f270ULL, 0x509851af85703e2aULL,
     0x68b8c3abf1e5f6bdULL},
    {0x7ceeccbaea8d0a72ULL, 0x82e0b71a521d2be4ULL, 0xd39f1e6acca24fecULL,
     0x7f3a32ccedd90c31ULL},
    {0xb1599d366aaf633aULL, 0x07a6ff348f11cbc0ULL, 0xec547b7ce523f904ULL,
     0x3b3b954f1687fb64ULL},
    {0x1d00d273383236adULL, 0xb749a4d856c07e5dULL, 0xe94dcd88866c9b6fULL,
     0xda5f83c432ab98c3ULL},
};
static_assert(std::size(kGoldens) == std::size(kScenarios));

TEST(CoalesceGolden, EveryScenarioAndSeed) {
  for (std::size_t s = 0; s < std::size(kScenarios); ++s) {
    for (std::size_t k = 0; k < std::size(kSeeds); ++k) {
      const std::uint64_t actual = scenario_digest(kScenarios[s], kSeeds[k]);
      EXPECT_EQ(actual, kGoldens[s][k])
          << kScenarios[s].name << " seed " << kSeeds[k] << ": 0x" << std::hex
          << actual;
    }
  }
}

// Deterministic event counts: the driver dispatches one engine event per
// check that reaches the RMS, not one per application step.
TEST(CoalesceEvents, RigidJobsDispatchArrivalBeginAndFinishOnly) {
  for (const Scenario& scenario : kScenarios) {
    if (!scenario.all_rigid) continue;
    for (const std::uint64_t seed : kSeeds) {
      const RunResult result = run_scenario(scenario, seed, false);
      EXPECT_EQ(result.events, 3ULL * static_cast<std::uint64_t>(result.jobs))
          << scenario.name << " seed " << seed;
    }
  }
}

TEST(CoalesceEvents, TableOneMixDispatchesFewerThan150EventsPerJob) {
  for (const Scenario& scenario : kScenarios) {
    if (scenario.period >= 0.0) continue;
    for (const std::uint64_t seed : kSeeds) {
      for (const bool asynchronous : {false, true}) {
        const RunResult result = run_scenario(scenario, seed, asynchronous);
        EXPECT_LT(result.events, 150ULL * static_cast<std::uint64_t>(result.jobs))
            << scenario.name << " seed " << seed << " async " << asynchronous;
      }
    }
  }
}

TEST(InhibitorPredicate, WouldAllowNeverArms) {
  dmr::Inhibitor inhibitor(5.0);
  EXPECT_TRUE(inhibitor.would_allow(0.0));
  EXPECT_TRUE(inhibitor.would_allow(1.0));  // still unarmed
  EXPECT_TRUE(inhibitor.allow(1.0));
  EXPECT_FALSE(inhibitor.would_allow(2.0));
  EXPECT_TRUE(inhibitor.would_allow(7.0));
  // Neither probe moved the window: it still runs from 1.0.
  EXPECT_FALSE(inhibitor.would_allow(5.5));
  EXPECT_FALSE(inhibitor.allow(5.5));
}

TEST(InhibitorPredicate, ExactlyOnePeriodLaterIsAllowed) {
  dmr::Inhibitor inhibitor(5.0);
  EXPECT_TRUE(inhibitor.allow(1.0));
  EXPECT_TRUE(inhibitor.would_allow(6.0));
  EXPECT_TRUE(inhibitor.allow(6.0));
  EXPECT_FALSE(inhibitor.would_allow(10.5));
}

TEST(InhibitorPredicate, NonPositivePeriodAlwaysAllows) {
  for (const double period : {0.0, -1.0}) {
    dmr::Inhibitor inhibitor(period);
    for (const double t : {0.0, 0.0, 1e-9, 3.0}) {
      EXPECT_TRUE(inhibitor.would_allow(t)) << period;
      EXPECT_TRUE(inhibitor.allow(t)) << period;
    }
  }
}

TEST(InhibitorPredicate, WouldAllowPredictsAllow) {
  std::mt19937_64 rng(2017);
  for (int round = 0; round < 50; ++round) {
    const double period = std::uniform_real_distribution<>(-1.0, 20.0)(rng);
    dmr::Inhibitor inhibitor(period);
    const double max_gap = 1.5 * std::max(period, 0.0) + 1.0;
    double t = std::uniform_real_distribution<>(0.0, 100.0)(rng);
    for (int i = 0; i < 200; ++i) {
      // Gaps straddle the period; some repeat the same instant.
      t += std::uniform_int_distribution<>(0, 9)(rng) == 0
               ? 0.0
               : std::uniform_real_distribution<>(0.0, max_gap)(rng);
      if (std::uniform_int_distribution<>(0, 49)(rng) == 0) inhibitor.reset();
      const bool predicted = inhibitor.would_allow(t);
      EXPECT_EQ(predicted, inhibitor.allow(t))
          << "round " << round << " step " << i << " t " << t;
    }
  }
}

}  // namespace
