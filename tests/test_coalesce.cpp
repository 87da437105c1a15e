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
// that, deterministically.  The steps in between advance in closed form
// (drv::advance_steps); AdvanceSteps checks it bit for bit against the
// step-by-step loop it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <optional>
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
    rms::Request& request = plan.model.request;
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
  for (auto& plan : plans) driver.submit_at(std::move(plan));
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
  /// Added to every arrival of the Table I mix.
  double epoch = 0.0;
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
    // SWF-epoch clocks: at 2^31 s one ulp is 2^-21 s, so every skipped
    // step's sum rounds on a grid coarse enough to show in the digest.
    {"table1_epoch_single", false, -1.0, false, 0x1p31},
};

RunResult run_scenario(const Scenario& scenario, std::uint64_t seed,
                       bool asynchronous) {
  drv::DriverConfig config =
      scenario.federation ? federation_config() : single_cluster_config();
  const int max_size = scenario.federation ? 16 : 64;
  if (scenario.period < 0.0) {
    std::vector<drv::JobPlan> plans = table_one_mix(seed, 30, max_size);
    for (drv::JobPlan& plan : plans) plan.arrival += scenario.epoch;
    return run(config, asynchronous, std::move(plans));
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
// event per application step; the table1_epoch_single row from the
// coalesced driver that still added each skipped step in turn.  Every
// row but rigid_single was re-pinned when user ids became consecutive
// (the expand protocol's resizer left the job table): the job lines
// carry ids, and nothing else in them moved.  Row order follows
// kScenarios; columns follow kSeeds.
constexpr std::uint64_t kGoldens[][4] = {
    {0x2fc935740061fdc1ULL, 0xdce82d8b6ad511acULL, 0x0c4d6edd439e79feULL,
     0xb92eb70c35c5dfceULL},
    {0x1ef2600f85aa39bbULL, 0x28374de923cbae7dULL, 0x3881dc3e634a654dULL,
     0x33c24f233a565bd5ULL},
    {0x87ddfa791f925be8ULL, 0x377767f8dd7391f0ULL, 0xf5e69a1784b96310ULL,
     0xf10dc3bc1830a56bULL},
    {0x722554fd739b24edULL, 0x6dd83452daf81d8fULL, 0xc653b3362134e9dfULL,
     0x4bbab504caf6775cULL},
    {0x7f6b042d63ea79beULL, 0xf46d28584e6ffde2ULL, 0x41ccf22f48435132ULL,
     0x58e8b5c6ed383f63ULL},
    {0x8b8a60683d19493aULL, 0xf40328e04094e49dULL, 0xd48073290e171d6bULL,
     0x0db9186b922012efULL},
    {0xdd5fa19360c51c23ULL, 0xd66981c8a3c34adeULL, 0x88b018bb20d91835ULL,
     0x28d545ebd084fa13ULL},
    {0xc254ea02fa240f02ULL, 0xded7e5eb7108c737ULL, 0x0804e2d62a6150b6ULL,
     0x4e478bef9f8efdceULL},
    {0x1d00d273383236adULL, 0xb749a4d856c07e5dULL, 0xe94dcd88866c9b6fULL,
     0xda5f83c432ab98c3ULL},
    {0x20bff6e7a7b4de13ULL, 0xce299f539906cb1fULL, 0x6e7cf5f233cd0c2fULL,
     0x26a0697d92423b90ULL},
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
// check that reaches the RMS, not one per application step.  A rigid
// job's start schedules its finish inside the pass, with no event of its
// own.
TEST(CoalesceEvents, RigidJobsDispatchArrivalAndFinishOnly) {
  for (const Scenario& scenario : kScenarios) {
    if (!scenario.all_rigid) continue;
    for (const std::uint64_t seed : kSeeds) {
      const RunResult result = run_scenario(scenario, seed, false);
      EXPECT_EQ(result.events, 2ULL * static_cast<std::uint64_t>(result.jobs))
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
      const bool predicted = inhibitor.would_allow(t);
      EXPECT_EQ(predicted, inhibitor.allow(t))
          << "round " << round << " step " << i << " t " << t;
    }
  }
}

// --- drv::advance_steps against the loop it replaced -------------------------

/// One `at += step` per skipped step: the oracle.
drv::StepRun step_by_step(double at, double step, int n,
                          const Inhibitor* inhibitor) {
  int k = 0;
  while (k < n && !(inhibitor != nullptr && inhibitor->would_allow(at))) {
    at += step;
    ++k;
  }
  return {at, k};
}

/// ulp of a positive normal `at`: the spacing of doubles in its binade.
double ulp_of(double at) { return std::ldexp(1.0, std::ilogb(at) - 52); }

struct AdvanceCase {
  double at = 0.0;
  double step = 0.0;
  int n = 0;
  std::optional<Inhibitor> inhibitor;
};

/// Case `i` of the seeded sweep.  The clock, step, inhibitor and n
/// classes cycle with i, so every combination recurs.
AdvanceCase advance_case(std::mt19937_64& rng, std::uint64_t i) {
  const auto uniform = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  const auto integer = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  AdvanceCase c;
  switch (i % 5) {
    case 0:  // a simulated clock
      c.at = uniform(0.0, 1e5);
      break;
    case 1:  // an SWF-epoch clock, ulp 2^-21 s
      c.at = 0x1p31 + uniform(0.0, 1e6);
      break;
    case 2: {  // a few ulps below a power of two, or on it
      c.at = std::ldexp(1.0, integer(-30, 60));
      for (int j = integer(0, 8); j > 0; --j) c.at = std::nextafter(c.at, 0.0);
      break;
    }
    case 3:  // any binade, subnormals and the top one included
      c.at = std::ldexp(uniform(1.0, 2.0), integer(-1080, 1023));
      break;
    default: {  // zeros, signs and the extremes
      constexpr double kSpecial[] = {
          0.0, -0.0, std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::min(), -3.5, -1e-300,
          std::numeric_limits<double>::max()};
      c.at = kSpecial[static_cast<std::size_t>(integer(0, 6))];
      break;
    }
  }
  const double u = std::isnormal(c.at) && c.at > 0.0 ? ulp_of(c.at) : 0x1p-40;
  switch ((i / 5) % 6) {
    case 0:  // an exact tie: (m + 1/2) ulps
      c.step = (integer(0, 1000) + 0.5) * u;
      break;
    case 1:  // below half an ulp (zero included)
      c.step = integer(0, 7) == 0 ? 0.0 : uniform(0.0, 0.5) * u;
      break;
    case 2: {  // a whole number of ulps plus a fraction near one half
      const double half = std::nextafter(0.5, integer(0, 1) == 0 ? 0.0 : 1.0);
      const double fraction = integer(0, 1) == 0 ? half : uniform(0.0, 1.0);
      c.step = (integer(0, 1 << 20) + fraction) * u;
      break;
    }
    case 3:  // a step in seconds, scaled across binades
      c.step = std::ldexp(uniform(1e-3, 100.0), integer(-20, 20));
      break;
    case 4:  // comparable to the clock: crosses a binade every few steps
      c.step = std::abs(c.at) * uniform(0.01, 4.0) + u;
      break;
    default: {  // negative, infinite, NaN or zero
      constexpr double kSpecial[] = {
          -0.25, std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN(), 0.0, -0.0};
      c.step = kSpecial[static_cast<std::size_t>(integer(0, 4))];
      break;
    }
  }
  c.n = (i / 30) % 7 == 0 ? integer(0, 3) : integer(0, 3000);
  switch ((i / 210) % 4) {
    case 0:  // a rigid job: no inhibitor
      break;
    case 1:  // disabled: every check goes through
      c.inhibitor.emplace(integer(0, 1) == 0 ? 0.0 : -1.0);
      break;
    case 2:  // unarmed: the first check goes through
      c.inhibitor.emplace(uniform(1e-3, 30.0));
      break;
    default: {  // armed, the window ending about `stop` steps ahead
      const double stop = integer(-10, c.n + 10);
      const double period = std::abs(c.step) * uniform(0.5, 400.0) + 1e-9;
      c.inhibitor.emplace(period);
      c.inhibitor->allow(c.at + stop * c.step - period);
      break;
    }
  }
  return c;
}

TEST(AdvanceSteps, MatchesStepByStepLoop) {
  constexpr std::uint64_t kCases = 1'000'000;
  std::mt19937_64 rng(2017);
  std::uint64_t mismatches = 0;
  for (std::uint64_t i = 0; i < kCases; ++i) {
    const AdvanceCase c = advance_case(rng, i);
    const Inhibitor* inhibitor = c.inhibitor ? &*c.inhibitor : nullptr;
    const drv::StepRun expected = step_by_step(c.at, c.step, c.n, inhibitor);
    const drv::StepRun actual =
        drv::advance_steps(c.at, c.step, c.n, inhibitor);
    if (std::bit_cast<std::uint64_t>(actual.at) ==
            std::bit_cast<std::uint64_t>(expected.at) &&
        actual.steps == expected.steps) {
      continue;
    }
    if (++mismatches <= 10) {
      char text[200];
      std::snprintf(text, sizeof(text),
                    "case %llu: %a + %a * %d: %a after %d, loop %a after %d",
                    static_cast<unsigned long long>(i), c.at, c.step, c.n,
                    actual.at, actual.steps, expected.at, expected.steps);
      ADD_FAILURE() << text;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << kCases << " cases";
}

// --- the search for the step that reopens the inhibitor ---------------------

/// advance_steps as it was before it aimed at Inhibitor::reopens_at: a
/// bisection over each binade's sums for the first one the inhibitor lets
/// through.  Kept as the oracle for runs too long for step_by_step.
drv::StepRun bisection_reference(double at, double step, int n,
                                 const Inhibitor* inhibitor) {
  using Limits = std::numeric_limits<double>;
  const auto allows = [inhibitor](double t) {
    return inhibitor != nullptr && inhibitor->would_allow(t);
  };
  // The additions of `step` that stay in at's binade, each adding
  // per_step exactly (take == 0: the next one is a plain addition).
  const auto binade_run = [](double at, double step, int limit) {
    struct {
      double per_step = 0.0;
      int take = 0;
    } run;
    if (!(at >= 0x1p-971 && at <= Limits::max() && step >= 0.0)) return run;
    constexpr std::uint64_t kMantissa = (std::uint64_t(1) << 52) - 1;
    const auto bits = std::bit_cast<std::uint64_t>(at);
    const double lo = std::bit_cast<double>(bits & ~kMantissa);
    const double u = lo * 0x1p-52;
    const auto room =
        static_cast<std::int64_t>(kMantissa + 1 - (bits & kMantissa));
    if (!(step < static_cast<double>(room) * u)) return run;
    const double inverse_u =
        std::bit_cast<double>((std::uint64_t(2098) - (bits >> 52)) << 52);
    const double units = step * inverse_u;
    const double stride = (units + 0x1p52) - 0x1p52;
    if (std::abs(units - stride) == 0.5) return run;
    run.per_step = stride * u;
    if (static_cast<double>(limit) * stride < static_cast<double>(room)) {
      run.take = limit;
    } else {
      run.take = static_cast<int>((room - 1) /
                                  static_cast<std::int64_t>(stride));
    }
    return run;
  };
  int k = 0;
  while (k < n && !allows(at)) {
    const auto [per_step, take] = binade_run(at, step, n - k);
    if (take == 0) {
      at += step;
      ++k;
      continue;
    }
    const auto sum = [&](int j) {
      return at + static_cast<double>(j) * per_step;
    };
    if (!allows(sum(take))) {
      at = sum(take);
      k += take;
      continue;
    }
    int below = 0;
    int above = take;
    while (above - below > 1) {
      const int mid = below + (above - below) / 2;
      (allows(sum(mid)) ? above : below) = mid;
    }
    return {sum(above), k + above};
  }
  return {at, k};
}

/// Where a case's reopening time lies against the step sum it aims at.
enum class Aim {
  kOnSum,
  kUlpBelow,
  kUlpAbove,
  kRoundsAcross,
  kCoarse,  // no period makes last + period round to the aimed time
  kOverflow
};

struct ReopenCase {
  double at = 0.0;
  double step = 0.0;
  int n = 0;
  Inhibitor inhibitor;
  Aim aim = Aim::kOnSum;
};

/// Case `i` of the seeded sweep around the reopening time: an inhibitor
/// armed so that last + period lands on the sum some step ahead, or an
/// ulp either side, from a last check on the clock's grid, one with finer
/// bits (there the exact last + period can lie across the sum it rounds
/// to) or one so far back that rounding spans many steps; one run in
/// four is 2^18 to 2^20 steps long.
ReopenCase reopen_case(std::mt19937_64& rng, std::uint64_t i) {
  const auto uniform = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  const auto integer = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  ReopenCase c;
  switch (i % 4) {
    case 0:  // a simulated clock
      c.at = uniform(1e-3, 1e5);
      break;
    case 1:  // an SWF-epoch clock, ulp 2^-21 s
      c.at = 0x1p31 + uniform(0.0, 1e6);
      break;
    case 2: {  // a few ulps below a power of two: the run crosses it
      c.at = std::ldexp(1.0, integer(-30, 60));
      for (int j = integer(1, 8); j > 0; --j) c.at = std::nextafter(c.at, 0.0);
      break;
    }
    default:  // any normal binade
      c.at = std::ldexp(uniform(1.0, 2.0), integer(-900, 1000));
      break;
  }
  const double u = ulp_of(c.at);
  switch ((i / 4) % 3) {
    case 0:  // a step in seconds, scaled across binades
      c.step = std::ldexp(uniform(1e-3, 100.0), integer(-20, 20));
      break;
    case 1:  // a whole number of ulps and a fraction
      c.step = (integer(1, 1 << 16) + uniform(0.0, 1.0)) * u;
      break;
    default:  // Table I's step times
      c.step = uniform(0.005, 0.1);
      break;
  }
  c.n = (i / 12) % 4 == 0 ? integer(1 << 18, 1 << 20)
        : (i / 12) % 4 == 1 ? integer(1, 512)
                            : integer(513, 4096);
  const double sum =
      bisection_reference(c.at, c.step, integer(1, c.n), nullptr).at;
  const int side = integer(-1, 1);
  const double reopen =
      side == 0 ? sum
                : std::nextafter(sum, side * std::numeric_limits<double>::max());
  // The last granted check: some steps back on the clock's grid, a
  // small clock with bits far finer than the sum's, or far enough before
  // the clock's zero that the period's ulp, and with it the rounding of
  // last + period and of would_allow's t - last, spans many steps.
  double last = 0.0;
  switch ((i / 48) % 3) {
    case 0:
      last = c.at - c.step * uniform(0.0, 4.0);
      break;
    case 1:
      last = uniform(-1.0, 1.0) * std::min(1.0, c.at);
      break;
    default:
      last = -std::ldexp(std::max(c.at, c.step), integer(0, 60));
      break;
  }
  // A period that makes last + period round to `reopen`, where a few
  // ulps of search find one.
  double period = reopen - last;
  for (int tries = 0; tries < 4 && last + period != reopen; ++tries) {
    period = std::nextafter(period, last + period < reopen
                                        ? std::numeric_limits<double>::max()
                                        : 0.0);
  }
  c.inhibitor = Inhibitor(period);
  c.inhibitor.allow(last);
  // Knuth's two-sum: the rounding error of last + period.
  const double rounded = last + period;
  const double back = rounded - last;
  const double error = (last - (rounded - back)) + (period - back);
  if (rounded != reopen) {
    c.aim = Aim::kCoarse;
  } else if (side == 0) {
    c.aim = error != 0.0 ? Aim::kRoundsAcross : Aim::kOnSum;
  } else {
    c.aim = side < 0 ? Aim::kUlpBelow : Aim::kUlpAbove;
  }
  return c;
}

/// Case `i` whose reopening time overflows: last + period ties halfway
/// between the largest double and 2^1024 and rounds to +infinity, while
/// would_allow(max) rounds max - last up to the period and lets the
/// largest double through (when the run reaches it), or a plain overflow
/// that lets nothing through.
ReopenCase overflow_case(std::mt19937_64& rng, std::uint64_t i) {
  const auto integer = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  constexpr double kMax = std::numeric_limits<double>::max();
  ReopenCase c;
  c.aim = Aim::kOverflow;
  const double u = 0x1p971;  // ulp of the top binade
  c.step = integer(1, 64) * u + (i % 2 == 0 ? 0.0 : 0.25 * u);
  const int ahead = integer(1, 4096);
  c.at = kMax - ahead * std::round(c.step / u) * u;
  c.n = ahead + integer(-2, 2);
  double period = 0x1p1023 + 2.0 * integer(1, 1 << 20) * u;
  double last = (kMax - period) + 0x1p970;
  if (i % 3 == 2) {  // no finite time reopens it
    period = kMax;
    last = std::ldexp(1.0, integer(1000, 1023));
  }
  c.inhibitor = Inhibitor(period);
  c.inhibitor.allow(last);
  return c;
}

TEST(InhibitorPredicate, ReopensAtIsLastPlusPeriodWhileArmed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Inhibitor(15.0).reopens_at(), -kInf);  // never granted
  Inhibitor disabled(0.0);
  disabled.allow(3.0);
  EXPECT_EQ(disabled.reopens_at(), -kInf);
  Inhibitor armed(15.0);
  armed.allow(0.1);
  EXPECT_EQ(armed.reopens_at(), 0.1 + 15.0);
  armed.allow(armed.reopens_at() + 1.0);
  EXPECT_EQ(armed.reopens_at(), (0.1 + 15.0 + 1.0) + 15.0);
  Inhibitor overflowing(std::numeric_limits<double>::max());
  overflowing.allow(0x1p1023);
  EXPECT_EQ(overflowing.reopens_at(), kInf);
}

TEST(AdvanceSteps, MatchesBisectionAroundTheReopeningTime) {
  constexpr std::uint64_t kCases = 120'000;
  constexpr std::uint64_t kOverflowCases = 3'000;
  std::mt19937_64 rng(5150);
  std::uint64_t mismatches = 0;
  int aimed[6] = {};
  int long_runs = 0;
  int overflow_opened = 0;
  for (std::uint64_t i = 0; i < kCases + kOverflowCases; ++i) {
    const ReopenCase c = i < kCases ? reopen_case(rng, i)
                                    : overflow_case(rng, i - kCases);
    // The loop where it is quick, the bisection where it is not.
    const drv::StepRun expected =
        c.n <= 512 ? step_by_step(c.at, c.step, c.n, &c.inhibitor)
                   : bisection_reference(c.at, c.step, c.n, &c.inhibitor);
    const drv::StepRun actual =
        drv::advance_steps(c.at, c.step, c.n, &c.inhibitor);
    ++aimed[static_cast<int>(c.aim)];
    long_runs += c.n >= (1 << 18) ? 1 : 0;
    if (c.aim == Aim::kOverflow && c.inhibitor.would_allow(expected.at)) {
      ++overflow_opened;
    }
    if (std::bit_cast<std::uint64_t>(actual.at) ==
            std::bit_cast<std::uint64_t>(expected.at) &&
        actual.steps == expected.steps) {
      continue;
    }
    if (++mismatches <= 10) {
      char text[240];
      std::snprintf(text, sizeof(text),
                    "case %llu: %a + %a * %d, reopening %a: %a after %d, "
                    "reference %a after %d",
                    static_cast<unsigned long long>(i), c.at, c.step, c.n,
                    c.inhibitor.reopens_at(), actual.at, actual.steps,
                    expected.at, expected.steps);
      ADD_FAILURE() << text;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << kCases + kOverflowCases << " cases";
  // Every kind of aim recurs often enough to matter.
  for (int a = 0; a < 6; ++a) EXPECT_GT(aimed[a], 1000) << "aim " << a;
  EXPECT_GT(long_runs, 20000);
  EXPECT_GT(overflow_opened, 1000);
}

}  // namespace
