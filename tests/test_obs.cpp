// Tests for the observability layer: the trace recorder's output
// survives the strict validator (and tampered documents do not), ring
// overflow is counted rather than silently truncated, the profiler keeps
// sub-microsecond durations, and attaching tracing never perturbs
// simulated outcomes.
#include <gtest/gtest.h>

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
};

/// Render every job's full-precision lifecycle: byte-identical across
/// runs iff the simulated outcomes are.
std::string outcome_digest(const drv::WorkloadDriver& driver) {
  std::ostringstream out;
  out.precision(17);
  const fed::Federation& federation = driver.federation();
  for (int c = 0; c < federation.cluster_count(); ++c) {
    for (const rms::Job* job : federation.manager(c).jobs()) {
      out << job->id << ':' << job->submit_time << ':' << job->start_time
          << ':' << job->end_time << '\n';
    }
  }
  return out.str();
}

/// A small FS workload (Feitelson sizes/arrivals, 5 reconfiguring
/// points) on a 16-node cluster, with `hooks` threaded through the
/// driver.  `configure` tweaks the driver before the run.
RunOutcome run_fs(std::uint64_t seed, const obs::Hooks& hooks,
                  int jobs = 20) {
  wl::FeitelsonParams params;
  params.jobs = jobs;
  params.max_size = 16;
  params.mean_interarrival = 15.0;
  params.max_runtime = 60.0 * 5;
  params.seed = seed;
  const auto workload = wl::generate_feitelson(params);

  sim::Engine engine;
  drv::DriverConfig config;
  config.rms.nodes = 16;
  config.hooks = hooks;
  drv::WorkloadDriver driver(engine, config);
  for (const auto& job : workload) {
    drv::JobPlan plan;
    plan.arrival = job.arrival;
    plan.model = apps::fs_model(5, job.size, job.runtime / 5, 16,
                                std::size_t(1) << 20);
    plan.submit_nodes = job.size;
    plan.flexible = true;
    driver.add(std::move(plan));
  }
  RunOutcome outcome;
  outcome.metrics = driver.run();
  outcome.digest = outcome_digest(driver);
  return outcome;
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
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 2017ULL}) {
    const RunOutcome detached = run_fs(seed, {});
    const RunOutcome repeat = run_fs(seed, {});
    obs::TraceRecorder trace;
    obs::Profiler profiler;
    const RunOutcome attached =
        run_fs(seed, {.trace = &trace, .profiler = &profiler});
    ASSERT_FALSE(detached.digest.empty());
    EXPECT_EQ(detached.digest, repeat.digest) << "seed " << seed;
    EXPECT_EQ(detached.digest, attached.digest) << "seed " << seed;
    EXPECT_GT(profiler.events(), 0u);
  }
}

// --- profiler ---------------------------------------------------------------

TEST(Profiler, ReportFoldsAccumulatorsAndRss) {
  obs::Profiler profiler;
  profiler.add_events(1000);
  profiler.add_events(1);
  profiler.add_schedule(0.25);
  profiler.add_schedule(0.25);
  profiler.add_placement(0.1);
  const obs::ProfileReport report = profiler.report(2.0, 10);
  EXPECT_EQ(report.events, 1001u);
  EXPECT_DOUBLE_EQ(report.events_per_second, 1001.0 / 2.0);
  EXPECT_DOUBLE_EQ(report.jobs_per_second, 5.0);
  EXPECT_EQ(report.schedule_passes, 2);
  EXPECT_NEAR(report.schedule_seconds, 0.5, 1e-6);
  EXPECT_NEAR(report.seconds_per_pass, 0.25, 1e-6);
  EXPECT_EQ(report.placements, 1);
  EXPECT_NEAR(report.engine_seconds, 2.0 - 0.5 - 0.1, 1e-6);
  EXPECT_GT(report.peak_rss_kb, 0) << "VmHWM should parse on Linux";
  const std::string row = report.json_fields();
  EXPECT_NE(row.find("\"events_per_second\":"), std::string::npos);
  EXPECT_NE(row.find("\"peak_rss_kb\":"), std::string::npos);
}

TEST(Profiler, KeepsSubMicrosecondPasses) {
  // A replay's passes average ~125 ns: whole-microsecond accumulation
  // reported them as zero.
  obs::Profiler profiler;
  for (int i = 0; i < 1000; ++i) profiler.add_schedule(1.25e-7);
  const obs::ProfileReport report = profiler.report(1.0, 1);
  EXPECT_NEAR(report.schedule_seconds, 1.25e-4, 1e-9);
  EXPECT_NEAR(report.seconds_per_pass, 1.25e-7, 1e-12);
  // The row prints enough digits to show them.
  EXPECT_NE(report.json_fields().find("\"seconds_per_pass\":0.000000125"),
            std::string::npos)
      << report.json_fields();
}

TEST(Profiler, TimesPassesAndPlacementsFromTheEventStream) {
  obs::Profiler profiler;
  const RunOutcome outcome = run_fs(7, {.profiler = &profiler});
  const obs::ProfileReport report = profiler.report(1.0, outcome.metrics.jobs);
  // One timed sample per schedule call that ran passes.
  EXPECT_GT(report.schedule_passes, 0);
  EXPECT_LE(report.schedule_passes, outcome.metrics.schedule_passes);
  EXPECT_LE(report.schedule_passes, outcome.metrics.schedule_requests);
  // A profiler observes placements, so every submission is routed
  // through the placement policy and timed.
  EXPECT_EQ(report.placements, outcome.metrics.jobs);
  EXPECT_GT(report.schedule_seconds, 0.0);
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
  EXPECT_NE(service.sample_lines().back().find("\"rejected_full_total\":"),
            std::string::npos);
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

}  // namespace
