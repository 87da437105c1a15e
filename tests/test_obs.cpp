// Tests for the observability layer: the trace recorder's output
// survives the strict validator (and tampered documents do not), ring
// overflow is counted rather than silently truncated, the profiler
// counts every dispatched event, attaching tracing never perturbs
// simulated outcomes, and the JSON reader rejects what the escaper never
// writes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dmr/observe.hpp"
#include "dmr/service.hpp"
#include "dmr/simulation.hpp"

namespace {

using namespace dmr;

// --- shared workload helper -------------------------------------------------

struct RunOutcome {
  std::string digest;
  drv::WorkloadMetrics metrics;
  std::uint64_t executed = 0;  // engine events dispatched
};

/// Run `plans` through the driver with `hooks` attached, and render
/// every job's full-precision lifecycle plus the resize tallies:
/// byte-identical across runs iff the simulated outcomes are.
RunOutcome run_plans(drv::DriverConfig config,
                     std::vector<drv::JobPlan> plans,
                     const obs::Hooks& hooks) {
  sim::Engine engine;
  config.hooks = hooks;
  drv::WorkloadDriver driver(engine, config);
  for (auto& plan : plans) driver.submit_at(std::move(plan));
  RunOutcome outcome;
  outcome.metrics = driver.run();
  outcome.executed = engine.executed();
  std::ostringstream out;
  out.precision(17);
  const fed::Federation& federation = driver.federation();
  for (int c = 0; c < federation.cluster_count(); ++c) {
    for (const rms::Job* job : federation.manager(c).jobs()) {
      out << job->id << ':' << job->submit_time << ':' << job->start_time
          << ':' << job->end_time << '\n';
    }
  }
  out << "makespan=" << outcome.metrics.makespan
      << " expands=" << outcome.metrics.expands
      << " shrinks=" << outcome.metrics.shrinks
      << " bytes=" << outcome.metrics.bytes_redistributed << '\n';
  outcome.digest = out.str();
  return outcome;
}

/// A small FS workload (Feitelson sizes/arrivals, 5 reconfiguring
/// points) on a 16-node cluster, with `hooks` threaded through the
/// driver.
RunOutcome run_fs(std::uint64_t seed, const obs::Hooks& hooks) {
  wl::FeitelsonParams params;
  params.jobs = 20;
  params.max_size = 16;
  params.mean_interarrival = 15.0;
  params.max_runtime = 60.0 * 5;
  params.seed = seed;
  std::vector<drv::JobPlan> plans;
  for (const auto& job : wl::generate_feitelson(params)) {
    drv::JobPlan plan;
    plan.arrival = job.arrival;
    plan.model = apps::fs_model(5, job.size, job.runtime / 5, 16,
                                std::size_t(1) << 20);
    plan.submit_nodes = job.size;
    plan.flexible = true;
    plans.push_back(std::move(plan));
  }
  drv::DriverConfig config;
  config.rms.nodes = 16;
  return run_plans(config, std::move(plans), hooks);
}

/// The Section IX mix: CG, Jacobi and N-body round-robin, each submitted
/// at its maximum size, at a fifth of Table I's iterations, on 64 nodes
/// with EASY backfill and the shrink priority boost.
RunOutcome run_section_ix(std::uint64_t seed, const obs::Hooks& hooks) {
  const std::vector<apps::AppModel> classes = {
      apps::cg_model(), apps::jacobi_model(), apps::nbody_model()};
  util::Rng rng(seed);
  std::vector<drv::JobPlan> plans;
  double arrival = 0.0;
  for (int i = 0; i < 24; ++i) {
    arrival += rng.exponential_mean(60.0);
    drv::JobPlan plan;
    plan.model = classes[i % 3];
    plan.model.iterations =
        std::max(1, static_cast<int>(plan.model.iterations * 0.2));
    plan.arrival = arrival;
    plan.submit_nodes = plan.model.request.max_procs;
    plan.flexible = true;
    plans.push_back(std::move(plan));
  }
  drv::DriverConfig config;
  config.rms.nodes = 64;
  config.rms.scheduler.backfill = true;
  config.rms.shrink_priority_boost = true;
  return run_plans(config, std::move(plans), hooks);
}

std::string wrap_events(const std::string& events) {
  return "{\"traceEvents\":[" + events + "]}";
}

// --- recorder -> validator round trip ---------------------------------------

TEST(TraceRecorder, RealRunRoundTripsThroughStrictValidator) {
  obs::TraceRecorder trace;
  const RunOutcome outcome = run_fs(2017, {.trace = &trace});
  ASSERT_GT(outcome.metrics.jobs, 0);
  ASSERT_GT(trace.recorded(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);

  const obs::TraceValidation validation =
      obs::validate_trace(trace.to_json());
  EXPECT_TRUE(validation.ok) << validation.describe();
  for (const auto& error : validation.errors) ADD_FAILURE() << error;
  // The validator counts non-metadata events: exactly the ring.
  EXPECT_EQ(validation.events, trace.recorded());
  // Timeline substance: schedule spans, per-job async spans, and the
  // global counter tracks (allocated/running/completed at least).
  EXPECT_GT(validation.spans, 0u);
  EXPECT_GT(validation.async_spans, 0u);
  EXPECT_GE(validation.counter_tracks, 3);
  EXPECT_EQ(validation.dropped, 0u);
}

TEST(TraceRecorder, EscapesHostileNamesAndArgs) {
  obs::TraceRecorder trace;
  trace.set_process_name(0, "quo\"te\\slash");
  trace.instant(0, 0, 1.0, "name \"with\" quotes",
                "\"k\":\"v\\\"esc\"");
  trace.counter(0, 2.0, "tab\tand\nnewline", 4.5);
  const obs::TraceValidation validation =
      obs::validate_trace(trace.to_json());
  EXPECT_TRUE(validation.ok) << validation.describe();
}

// --- tampered documents -----------------------------------------------------

TEST(TraceValidate, AcceptsMinimalBalancedTrace) {
  const auto validation = obs::validate_trace(wrap_events(
      R"({"ph":"B","ts":0,"pid":0,"tid":0,"name":"a"},)"
      R"({"ph":"E","ts":5,"pid":0,"tid":0})"));
  EXPECT_TRUE(validation.ok) << validation.describe();
  EXPECT_EQ(validation.spans, 1u);
}

TEST(TraceValidate, RejectsUnclosedSpan) {
  const auto validation = obs::validate_trace(
      wrap_events(R"({"ph":"B","ts":0,"pid":0,"tid":0,"name":"a"})"));
  EXPECT_FALSE(validation.ok);
}

TEST(TraceValidate, RejectsBackwardsTimestamps) {
  const auto validation = obs::validate_trace(wrap_events(
      R"({"ph":"B","ts":10,"pid":0,"tid":0,"name":"a"},)"
      R"({"ph":"E","ts":5,"pid":0,"tid":0})"));
  EXPECT_FALSE(validation.ok);
}

TEST(TraceValidate, RejectsCounterWithoutValue) {
  const auto validation = obs::validate_trace(
      wrap_events(R"({"ph":"C","ts":0,"pid":0,"tid":0,"name":"c"})"));
  EXPECT_FALSE(validation.ok);
}

TEST(TraceValidate, RejectsCompleteEventWithoutDuration) {
  const auto validation = obs::validate_trace(
      wrap_events(R"({"ph":"X","ts":0,"pid":0,"tid":0,"name":"x"})"));
  EXPECT_FALSE(validation.ok);
}

TEST(TraceValidate, RejectsUnbalancedAsyncScope) {
  const auto validation = obs::validate_trace(wrap_events(
      R"({"ph":"e","ts":0,"pid":0,"tid":0,"cat":"job","id":"0x1"})"));
  EXPECT_FALSE(validation.ok);
}

TEST(TraceValidate, RejectsIdsNoTrackCanHold) {
  // pid and tid are 32-bit track ids: each is checked before it is
  // converted, and the error names the field and the event.
  const struct {
    std::string ids;
    std::string error;
  } cases[] = {
      {R"("pid":1e30,"tid":0)", "malformed pid (event 1)"},
      {R"("pid":-1,"tid":0)", "malformed pid (event 1)"},
      {R"("pid":2.5,"tid":0)", "malformed pid (event 1)"},
      {R"("pid":0,"tid":4294967296)", "malformed tid (event 1)"},
      {R"("pid":0,"tid":"7")", "malformed tid (event 1)"},
  };
  for (const auto& bad : cases) {
    const auto validation = obs::validate_trace(wrap_events(
        R"({"ph":"i","ts":0,"pid":0,"tid":0,"name":"a"},)"
        R"({"ph":"i","ts":1,)" + bad.ids + R"(,"name":"b"})"));
    EXPECT_FALSE(validation.ok) << bad.ids;
    ASSERT_FALSE(validation.errors.empty()) << bad.ids;
    EXPECT_EQ(validation.errors.front(), bad.error) << bad.ids;
  }
  // The largest 32-bit ids are valid tracks.
  const auto widest = obs::validate_trace(wrap_events(
      R"({"ph":"i","ts":0,"pid":4294967295,"tid":4294967295,"name":"a"})"));
  EXPECT_TRUE(widest.ok) << widest.describe();
}

TEST(TraceValidate, RejectsADroppedCountNoCounterCanHold) {
  for (const std::string dropped : {"1e30", "-6", "2.5"}) {
    const auto validation = obs::validate_trace(
        R"({"otherData":{"dropped_events":)" + dropped +
        R"(},"traceEvents":[{"ph":"i","ts":0,"pid":0,"tid":0,"name":"a"}]})");
    EXPECT_FALSE(validation.ok) << dropped;
    ASSERT_FALSE(validation.errors.empty()) << dropped;
    EXPECT_EQ(validation.errors.front(), "malformed otherData.dropped_events")
        << dropped;
  }
}

TEST(TraceValidate, RejectsMalformedJson) {
  EXPECT_FALSE(obs::validate_trace("this is not json").ok);
  EXPECT_FALSE(obs::validate_trace("{\"traceEvents\":42}").ok);
}

TEST(TraceValidate, RejectsZeroEventTimeline) {
  // Every structural rule passes vacuously on an empty timeline, so the
  // validator must refuse to call it valid.
  const auto validation = obs::validate_trace(wrap_events(""));
  EXPECT_FALSE(validation.ok);
  ASSERT_FALSE(validation.errors.empty());
  EXPECT_NE(validation.errors.front().find("no events"), std::string::npos);
}

TEST(TraceValidate, RejectsEmptyFile) {
  const std::string path = testing::TempDir() + "dmr_empty_trace.json";
  { std::ofstream touch(path); }
  const auto validation = obs::validate_trace_file(path);
  EXPECT_FALSE(validation.ok);
  ASSERT_FALSE(validation.errors.empty());
  EXPECT_NE(validation.errors.front().find("empty"), std::string::npos);
}

// --- ring overflow ----------------------------------------------------------

TEST(TraceRecorder, OverflowCountsDropsAndWritesThemBack) {
  obs::TraceRecorder trace(/*capacity=*/8);
  trace.async_begin(0, 0.0, "job", 1, "span");
  for (int i = 0; i < 32; ++i) {
    trace.counter(0, double(i), "depth", double(i));
  }
  trace.async_end(0, 40.0, "job", 1);  // dropped: the ring is full
  EXPECT_EQ(trace.recorded(), 8u);
  EXPECT_EQ(trace.dropped(), 26u);

  const obs::TraceValidation validation =
      obs::validate_trace(trace.to_json());
  // The loss is read back, and the unclosed async span it caused is
  // demoted to a warning — reported, but not a lie about completeness.
  EXPECT_EQ(validation.dropped, 26u);
  EXPECT_TRUE(validation.ok) << validation.describe();
  EXPECT_FALSE(validation.warnings.empty());
}

TEST(TraceRecorder, NeverSilentlyTruncates) {
  obs::TraceRecorder trace(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) trace.instant(0, 0, double(i), "i");
  const std::string json = trace.to_json();
  EXPECT_NE(json.find("\"dropped_events\":6"), std::string::npos) << json;
  // The timeline itself flags the loss with a final instant event.
  EXPECT_NE(json.find("events dropped"), std::string::npos) << json;
}

// --- determinism: tracing on/off, seed-swept --------------------------------

TEST(TraceRecorder, AttachedObservabilityNeverPerturbsOutcomes) {
  for (const auto run : {&run_fs, &run_section_ix}) {
    const char* input = run == &run_fs ? "fs" : "section-ix";
    for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 2017ULL}) {
      SCOPED_TRACE(::testing::Message() << input << " seed " << seed);
      const RunOutcome detached = run(seed, {});
      const RunOutcome repeat = run(seed, {});
      obs::TraceRecorder trace;
      obs::Profiler profiler;
      const RunOutcome attached =
          run(seed, {.trace = &trace, .profiler = &profiler});
      ASSERT_FALSE(detached.digest.empty());
      EXPECT_EQ(detached.digest, repeat.digest);
      EXPECT_EQ(detached.digest, attached.digest);
      EXPECT_GT(attached.metrics.expands, 0);
      EXPECT_GT(attached.metrics.shrinks, 0);
      EXPECT_EQ(profiler.events(), attached.executed);
      const obs::TraceValidation validation =
          obs::validate_trace(trace.to_json());
      EXPECT_TRUE(validation.ok) << validation.describe();
    }
  }
}

// --- profiler ---------------------------------------------------------------

TEST(Profiler, ReadsPeakRss) {
  EXPECT_GT(obs::Profiler::peak_rss_kb(), 0) << "VmHWM should parse on Linux";
}

// --- provenance -------------------------------------------------------------

TEST(BuildInfo, ProvenanceFieldsAreRenderable) {
  EXPECT_NE(dmr::git_sha(), nullptr);
  EXPECT_GT(std::string(dmr::git_sha()).size(), 0u);
  const std::string stamp = dmr::iso8601_utc_now();
  ASSERT_EQ(stamp.size(), 20u) << stamp;  // 2026-01-02T03:04:05Z
  EXPECT_EQ(stamp[4], '-');
  EXPECT_EQ(stamp[10], 'T');
  EXPECT_EQ(stamp.back(), 'Z');
  const std::string fields = dmr::bench_provenance_fields(4);
  EXPECT_NE(fields.find("\"git_sha\":\""), std::string::npos);
  EXPECT_NE(fields.find("\"timestamp\":\""), std::string::npos);
  EXPECT_NE(fields.find("\"threads\":4"), std::string::npos);
  EXPECT_EQ(fields.find('{'), std::string::npos);  // brace-free splice
}

// --- service surface --------------------------------------------------------

TEST(ServiceCounters, SamplesExposeIngestTallies) {
  svc::ServiceConfig config;
  config.driver.rms.nodes = 16;
  config.sample_period = 30.0;
  config.window = 300.0;
  svc::Service service(config);
  for (int i = 0; i < 6; ++i) {
    svc::JobRequest request;
    request.tag = i;
    request.arrival = 10.0 * i;
    request.nodes = 2;
    request.min_nodes = 1;
    request.max_nodes = 4;
    request.runtime = 60.0;
    request.steps = 5;
    request.flexible = true;
    ASSERT_TRUE(service.submit(request));
  }
  ASSERT_TRUE(service.drain(1.0e6));

  EXPECT_EQ(service.accepted(), 6);
  EXPECT_EQ(service.rejected_stale(), 0);
  EXPECT_EQ(service.queue().rejected_full(), 0u);
  EXPECT_EQ(service.completed(), 6);

  // Samples carry the cumulative ingest tallies and surface them in
  // their JSON line.
  ASSERT_FALSE(service.sample_records().empty());
  const svc::MetricsSample& last = service.sample_records().back();
  EXPECT_EQ(last.submitted_total, service.accepted());
  EXPECT_EQ(last.rejected_stale_total, service.rejected_stale());
  EXPECT_EQ(last.rejected_full_total,
            static_cast<long long>(service.queue().rejected_full()));
  EXPECT_NE(last.to_json().find("\"rejected_full_total\":"), std::string::npos);
}

TEST(ServiceCounters, TraceHooksRecordRingAndUtilizationTracks) {
  obs::TraceRecorder trace;
  svc::ServiceConfig config;
  config.driver.rms.nodes = 16;
  config.driver.hooks.trace = &trace;
  config.sample_period = 30.0;
  config.window = 300.0;
  svc::Service service(config);
  svc::JobRequest request;
  request.arrival = 0.0;
  request.nodes = 2;
  request.min_nodes = 1;
  request.max_nodes = 4;
  request.runtime = 120.0;
  request.steps = 5;
  request.flexible = true;
  ASSERT_TRUE(service.submit(request));
  ASSERT_TRUE(service.drain(1.0e6));

  const std::string json = trace.to_json();
  EXPECT_NE(json.find("ring depth"), std::string::npos);
  EXPECT_NE(json.find("utilization"), std::string::npos);
  const obs::TraceValidation validation = obs::validate_trace(json);
  EXPECT_TRUE(validation.ok) << validation.describe();
}

// --- JSON text: the one escaper and the strict reader ------------------------

TEST(Json, RejectsMalformedStringsAndNumbers) {
  const std::vector<std::string> bad = {
      "\"\\uZZZZ\"",       // not hex
      "[\"\\u12\", 1]",    // short escape must not eat the quote
      "\"\\u00e9\"",       // beyond the ASCII the writers escape
      "\"a\x01" "b\"",      // raw control character
      "\"tab\there\"",      // raw tab
      "1.2.3",
      "[1.2.3]",
      "01",
      "+1",
      "1.",
      ".5",
      "-",
      "1e",
      "1e+",
      "-x",
      "1e999",
  };
  for (const std::string& text : bad) {
    obs::JsonValue value;
    std::string error;
    EXPECT_FALSE(obs::parse_json(text, value, error)) << text;
    EXPECT_NE(error.find("at offset"), std::string::npos) << text << ": "
                                                          << error;
  }
  obs::JsonValue value;
  std::string error;
  ASSERT_TRUE(obs::parse_json("[-0.5e+3, 0, 10, 2E-2, \"\\u0041\\/\"]",
                              value, error))
      << error;
  ASSERT_EQ(value.items.size(), 5u);
  EXPECT_DOUBLE_EQ(value.items[0].number, -500.0);
  EXPECT_DOUBLE_EQ(value.items[3].number, 0.02);
  EXPECT_EQ(value.items[4].text, "A/");
}

TEST(Json, EscapeThenParseRoundTripsEveryAsciiByte) {
  std::string all;
  for (int byte = 0x01; byte <= 0x7f; ++byte) {
    const std::string one(1, static_cast<char>(byte));
    all += one;
    obs::JsonValue value;
    std::string error;
    ASSERT_TRUE(obs::parse_json("\"" + obs::json_escape(one) + "\"", value,
                                error))
        << byte << ": " << error;
    EXPECT_EQ(value.text, one) << byte;
  }
  obs::JsonValue value;
  std::string error;
  ASSERT_TRUE(obs::parse_json("{\"k\":\"" + obs::json_escape(all) + "\"}",
                              value, error))
      << error;
  EXPECT_EQ(obs::json_string(value.field("k")), all);
}

}  // namespace
