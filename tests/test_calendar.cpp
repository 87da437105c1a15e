// Calendar-queue engine tests: the ordering contract and the golden
// outcome digests pinning the rewrite to the pre-change (priority-queue)
// engine, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <tuple>
#include <vector>

#include "engine_digests.hpp"
#include "sim/engine.hpp"

namespace {

using namespace dmr::sim;

// Golden outcome digests across four seeds and the three drive paths,
// first captured from the pre-calendar engine (the std::priority_queue
// implementation), which the calendar rewrite reproduced exactly — a
// single changed timestamp, counter or sample line anywhere in a run
// changes the FNV-1a value.  Re-pinned when user ids became consecutive
// (the expand protocol's resizer left the job table): the job lines
// carry ids, and nothing else in them moved.  The service values were
// re-pinned again when the sample lines lost their two dead keys
// (`rejected_full_cum`, a copy of `rejected_full_total`, and
// `wait_cause_dependency`, which nothing reported): deleting those keys
// from the old text gives the new text byte for byte.
struct GoldenDigest {
  std::uint64_t seed;
  std::uint64_t single_cluster;
  std::uint64_t federation;
  std::uint64_t service;
};

constexpr GoldenDigest kGoldens[] = {
    {1ULL, 0x9b4ecec00eef8554ULL, 0xdd3e637b32a1db32ULL,
     0x17ed96cf6fe4c1a8ULL},
    {7ULL, 0xb7accfa73ec19e28ULL, 0x33914c13d1105585ULL,
     0xe408252dbb9737afULL},
    {42ULL, 0x7f693be8ad713f05ULL, 0x8cd6db2127a37b47ULL,
     0x0ca084bd6f95c0b0ULL},
    {2017ULL, 0xd209cc9a99b1a142ULL, 0x94506e0b5b0fdedaULL,
     0x635a02bd59ced9d5ULL},
};

TEST(CalendarGolden, SingleClusterSeedSweep) {
  for (const GoldenDigest& golden : kGoldens) {
    EXPECT_EQ(dmr::digests::single_cluster_digest(golden.seed),
              golden.single_cluster)
        << "seed " << golden.seed;
  }
}

TEST(CalendarGolden, FederationSeedSweep) {
  for (const GoldenDigest& golden : kGoldens) {
    EXPECT_EQ(dmr::digests::federation_digest(golden.seed), golden.federation)
        << "seed " << golden.seed;
  }
}

TEST(CalendarGolden, ServiceReplaySeedSweep) {
  for (const GoldenDigest& golden : kGoldens) {
    EXPECT_EQ(dmr::digests::service_digest(golden.seed), golden.service)
        << "seed " << golden.seed;
  }
}

// The engine's ordering contract: events fire in ascending (time, lane,
// sequence) order no matter how the calendar buckets them.  Random
// schedules across lanes and ~2^40-second spans — including schedules
// issued from inside running callbacks — are checked against a reference
// sort of the same (time, lane, seq) keys.
TEST(CalendarOrdering, RandomScheduleMatchesReferenceSort) {
  for (std::uint32_t round = 0; round < 20; ++round) {
    std::mt19937_64 rng(round * 7919 + 13);
    Engine engine;
    // key = (time, lane, issue index); issue index stands in for the
    // engine's internal sequence number — both count schedule calls.
    using Key = std::tuple<double, int, int>;
    std::vector<Key> fired;
    std::vector<Key> keys;
    int issued = 0;

    // Time spans from "immediate" through several year re-anchors:
    // exponents reach ~2^40 seconds, far beyond any initial ring span.
    auto random_time = [&](double at_least) {
      const double exponent = std::uniform_real_distribution<>(0.0, 40.0)(rng);
      return at_least + std::exp2(exponent) - 1.0;
    };
    auto random_lane = [&] {
      const int lane = std::uniform_int_distribution<>(0, 2)(rng);
      return static_cast<Lane>(lane);
    };
    auto schedule_one = [&](double at_least) {
      const double time = random_time(at_least);
      const Lane lane = random_lane();
      const Key key{time, static_cast<int>(lane), issued++};
      engine.schedule_at(time, [&fired, key] { fired.push_back(key); }, lane);
      keys.push_back(key);
    };

    for (int i = 0; i < 400; ++i) schedule_one(0.0);
    // A few events reschedule from inside the run (chained steps).
    for (int i = 0; i < 30; ++i) {
      const double time = random_time(0.0);
      const Key key{time, static_cast<int>(Lane::Normal), issued++};
      engine.schedule_at(time, [&, key] {
        fired.push_back(key);
        schedule_one(std::get<0>(key));
      });
      keys.push_back(key);
    }
    engine.run();

    std::vector<Key> expected = keys;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(fired, expected) << "round " << round;
    EXPECT_TRUE(engine.empty());
  }
}

// Far-future events force year re-anchoring (advance_year): the ring
// only spans a finite window, so a horizon jump must re-bucket and keep
// firing in order.
TEST(CalendarOrdering, FarFutureYearAdvance) {
  Engine engine;
  std::vector<double> fired;
  // Powers of ~1000 apart: every gap forces at least one re-anchor.
  const double times[] = {1.0, 1e3, 1e6, 1e9, 1e12, 1e15};
  for (const double t : times) {
    engine.schedule_at(t, [&fired, t] { fired.push_back(t); });
  }
  // Interleave near-term chatter so the first year is non-trivial.
  for (int i = 0; i < 100; ++i) {
    engine.schedule_at(0.5 + 0.001 * i, [] {});
  }
  engine.run();
  ASSERT_EQ(fired.size(), 6u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_DOUBLE_EQ(engine.now(), 1e15);
}

// Past ~1e19 s a one-second day is narrower than the spacing of doubles,
// so a year anchored there used to end at its own epoch: advance_year
// never moved the minimum out of overflow and run() spun forever.
TEST(CalendarOrdering, YearAdvancesBeyondDoubleSpacing) {
  Engine engine;
  std::vector<double> fired;
  auto record = [&engine, &fired] { fired.push_back(engine.now()); };
  engine.schedule_at(1.0, record);
  engine.schedule_at(1e20, [&] {
    record();
    engine.schedule_after(1.0, record);  // rounds back to now out here
    engine.schedule_at(1e300, record);
  });
  EXPECT_EQ(engine.run(), 4u);
  const std::vector<double> expected = {1.0, 1e20, 1e20, 1e300};
  EXPECT_EQ(fired, expected);
}

}  // namespace
