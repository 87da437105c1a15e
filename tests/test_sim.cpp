// Unit tests for the discrete-event engine and the trace recorder.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace {

using namespace dmr::sim;

TEST(Engine, EventsFireInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(3.0, [&] { order.push_back(3); });
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(2.0, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(Engine, SameTimeFifoBySchedulingOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, ScheduleAfterUsesCurrentTime) {
  Engine engine;
  double fired_at = -1.0;
  engine.schedule_at(5.0, [&] {
    engine.schedule_after(2.5, [&] { fired_at = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Engine, RejectsPastAndNegative) {
  Engine engine;
  engine.schedule_at(10.0, [] {});
  engine.run();
  EXPECT_THROW(engine.schedule_at(5.0, [] {}), std::invalid_argument);
  EXPECT_THROW(engine.schedule_after(-1.0, [] {}), std::invalid_argument);
}

// +inf used to be accepted, after which run() spun forever: the calendar
// cannot re-anchor a year at an infinite epoch.  NaN and -inf are
// unorderable or in the past; all three are refused up front.
TEST(Engine, RejectsNonFiniteTimes) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const double at : {kInf, -kInf, kNaN}) {
    Engine engine;
    EXPECT_THROW(engine.schedule_at(at, [] {}), std::invalid_argument) << at;
    EXPECT_THROW(engine.schedule_after(at, [] {}), std::invalid_argument)
        << at;
    EXPECT_TRUE(engine.empty()) << at;
  }
}

TEST(Engine, RunUntilRejectsNonFiniteHorizon) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  Engine engine;
  int fired = 0;
  engine.schedule_at(1.0, [&fired] { ++fired; });
  engine.schedule_at(5.0, [&fired] { ++fired; });
  for (const double horizon : {kInf, -kInf, kNaN}) {
    EXPECT_THROW(engine.run_until(horizon), std::invalid_argument) << horizon;
  }
  // Nothing ran and the clock is untouched, so scheduling still works.
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
  engine.schedule_after(2.0, [&fired] { ++fired; });
  EXPECT_EQ(engine.run_until(3.0), 2u);
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(Engine, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Engine engine;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    engine.schedule_at(t, [&fired, &engine] { fired.push_back(engine.now()); });
  }
  engine.run_until(2.5);
  EXPECT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(engine.now(), 2.5);
  engine.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Engine, RunUntilWindowProperty) {
  // Randomized interleaving of schedule / run_until: every event fires in
  // time order, inside the run_until window that covers it.  After each
  // window the clock sits exactly at the window end and queued() counts
  // exactly the events not yet due.
  std::mt19937 gen(20170712);
  for (int round = 0; round < 20; ++round) {
    Engine engine;
    std::uniform_real_distribution<double> time_dist(0.0, 100.0);
    std::vector<double> planned;
    std::vector<double> fired;
    auto schedule = [&](double at) {
      planned.push_back(at);
      engine.schedule_at(at,
                         [&fired, &engine] { fired.push_back(engine.now()); });
    };
    for (int i = 0; i < 60; ++i) schedule(time_dist(gen));
    // Advance in random increasing steps, scheduling a few more events
    // ahead of the clock as we go.
    double t = 0.0;
    std::size_t executed = 0;
    while (t < 100.0) {
      t += std::uniform_real_distribution<double>(1.0, 30.0)(gen);
      executed += engine.run_until(t);
      const auto due = static_cast<std::size_t>(std::count_if(
          planned.begin(), planned.end(), [t](double at) { return at <= t; }));
      EXPECT_EQ(engine.now(), t);
      EXPECT_EQ(executed, due);
      EXPECT_EQ(fired.size(), due);
      EXPECT_EQ(engine.queued(), planned.size() - due);
      for (int i = 0; i < 5; ++i) schedule(t + time_dist(gen));
    }
    executed += engine.run();

    std::sort(planned.begin(), planned.end());
    EXPECT_EQ(executed, planned.size());
    ASSERT_EQ(fired.size(), planned.size());
    for (std::size_t i = 0; i < planned.size(); ++i) {
      EXPECT_DOUBLE_EQ(fired[i], planned[i]);
    }
    EXPECT_TRUE(engine.empty());
  }
}

TEST(Engine, RunWithLimit) {
  Engine engine;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(i + 1.0, [&] { ++count; });
  }
  EXPECT_EQ(engine.run(4), 4u);
  EXPECT_EQ(count, 4);
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine engine;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) engine.schedule_after(1.0, chain);
  };
  engine.schedule_at(0.0, chain);
  engine.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(engine.now(), 99.0);
}

TEST(Trace, RecordsSeriesAgainstEngineClock) {
  Engine engine;
  TraceRecorder trace(engine);
  engine.schedule_at(0.0, [&] { trace.record("alloc", 4.0); });
  engine.schedule_at(10.0, [&] { trace.record("alloc", 8.0); });
  engine.run();
  EXPECT_DOUBLE_EQ(trace.series("alloc").value_at(5.0), 4.0);
  EXPECT_DOUBLE_EQ(trace.series("alloc").value_at(10.0), 8.0);
  EXPECT_NEAR(trace.average("alloc", 0.0, 20.0), 6.0, 1e-12);
}

TEST(Trace, UnknownSeriesThrows) {
  Engine engine;
  TraceRecorder trace(engine);
  EXPECT_THROW(trace.series("nope"), std::out_of_range);
}

TEST(Trace, CsvExport) {
  Engine engine;
  TraceRecorder trace(engine);
  engine.schedule_at(1.0, [&] { trace.record("x", 2.0); });
  engine.run();
  const std::string csv = trace.to_csv("x");
  EXPECT_NE(csv.find("time,x"), std::string::npos);
  EXPECT_NE(csv.find("1,2"), std::string::npos);
}

}  // namespace
