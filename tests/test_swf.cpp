// SWF trace-ingestion tests: golden-file decoding of the bundled
// fixture, parser tolerance and diagnostics, shaper filtering/rescaling
// semantics, the Feitelson -> SWF -> parse -> shape round-trip property
// (generator and ingester share one job model), and driver parity
// (replaying through a single-member federation == feeding the same
// JobPlans directly).
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "dmr/simulation.hpp"

namespace {

using namespace dmr;
using namespace dmr::wl;

std::string fixture_path() {
  return std::string(DMR_TEST_DATA_DIR) + "/mini.swf";
}

SwfTrace fixture() { return parse_swf_file(fixture_path()); }

// ---------------------------------------------------------------------------
// Golden-file parsing
// ---------------------------------------------------------------------------

TEST(SwfGolden, HeaderDirectives) {
  const SwfTrace trace = fixture();
  EXPECT_EQ(trace.header.max_nodes, 20);
  EXPECT_EQ(trace.header.max_procs, 40);
  EXPECT_EQ(trace.header.unix_start_time, 838012800);
  EXPECT_EQ(trace.header.procs_per_node(), 2);
  EXPECT_EQ(trace.header.machine_nodes(), 20);
  ASSERT_TRUE(trace.header.directives.count("Version"));
  EXPECT_EQ(trace.header.directives.at("Version"), "2.2");
  EXPECT_EQ(trace.header.directives.at("Computer"), "Imaginary SP2");
  EXPECT_EQ(trace.header.directives.at("TimeZoneString"), "Europe/Madrid");
  // Uninterpreted directives are still retained verbatim.
  EXPECT_EQ(trace.header.directives.at("MaxJobs"), "24");
}

TEST(SwfGolden, FirstRecordFieldByField) {
  const SwfTrace trace = fixture();
  ASSERT_EQ(trace.jobs.size(), 24u);
  const TraceJob& job = trace.jobs.front();
  EXPECT_EQ(job.job_number, 1);
  EXPECT_DOUBLE_EQ(job.submit, 0.0);
  EXPECT_DOUBLE_EQ(job.wait, 12.0);
  EXPECT_DOUBLE_EQ(job.run_time, 120.0);
  EXPECT_EQ(job.used_procs, 8);
  EXPECT_DOUBLE_EQ(job.avg_cpu_seconds, 110.5);
  EXPECT_DOUBLE_EQ(job.used_memory_kb, 2048.0);
  EXPECT_EQ(job.requested_procs, 8);
  EXPECT_DOUBLE_EQ(job.requested_time, 300.0);
  EXPECT_DOUBLE_EQ(job.requested_memory_kb, 4096.0);
  EXPECT_EQ(job.status, kSwfStatusCompleted);
  EXPECT_EQ(job.user_id, 101);
  EXPECT_EQ(job.group_id, 5);
  EXPECT_EQ(job.executable, 3);
  EXPECT_EQ(job.queue, 1);
  EXPECT_EQ(job.partition, 1);
  EXPECT_EQ(job.preceding_job, -1);
  EXPECT_DOUBLE_EQ(job.think_time, 0.0);
  EXPECT_EQ(job.line, 14);  // after the 12-line header and a blank line
}

TEST(SwfGolden, RecordOrderAndSpecialRows) {
  const SwfTrace trace = fixture();
  ASSERT_EQ(trace.jobs.size(), 24u);
  for (std::size_t i = 0; i < trace.jobs.size(); ++i) {
    EXPECT_EQ(trace.jobs[i].job_number, static_cast<long long>(i + 1));
  }
  // The parser preserves file order, including the out-of-order submit
  // (job 13 at t=580 appears after job 12 at t=600).
  EXPECT_DOUBLE_EQ(trace.jobs[11].submit, 600.0);
  EXPECT_DOUBLE_EQ(trace.jobs[12].submit, 580.0);
  EXPECT_EQ(trace.jobs[2].status, kSwfStatusFailed);
  EXPECT_EQ(trace.jobs[6].status, kSwfStatusCancelled);
  EXPECT_DOUBLE_EQ(trace.jobs[3].run_time, 0.0);
  EXPECT_EQ(trace.jobs[5].requested_procs, -1);  // falls back to used_procs
}

TEST(SwfGolden, CommentAndBlankLineTolerance) {
  const SwfTrace trace = fixture();
  // 12 header lines + 2 mid-file commentary lines.
  EXPECT_EQ(trace.header.comment_lines, 14);
}

// ---------------------------------------------------------------------------
// Parser tolerance and diagnostics
// ---------------------------------------------------------------------------

TEST(SwfParse, TooFewFieldsReportsLineNumber) {
  const std::string text =
      "; MaxNodes: 4\n"
      "1 0 0 10 2 -1 -1 2 60 -1 1 1 1 1 1 1 -1 0\n"
      "2 5 0 10\n";
  try {
    parse_swf_text(text);
    FAIL() << "expected SwfParseError";
  } catch (const SwfParseError& error) {
    EXPECT_EQ(error.line(), 3);
    EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("18 fields"), std::string::npos);
  }
}

TEST(SwfParse, NonNumericFieldReportsLineAndField) {
  const std::string text =
      "\n"
      "; a comment\n"
      "1 0 0 10 2 -1 -1 two 60 -1 1 1 1 1 1 1 -1 0\n";
  try {
    parse_swf_text(text);
    FAIL() << "expected SwfParseError";
  } catch (const SwfParseError& error) {
    EXPECT_EQ(error.line(), 3);
    EXPECT_NE(std::string(error.what()).find("requested_procs"),
              std::string::npos);
  }
}

// strtod accepts "inf" and "nan"; the parser must not, or a non-finite
// submit time reaches the engine (which used to hang on +inf).
TEST(SwfParse, NonFiniteFieldReportsLineAndField) {
  const std::string good = "1 0 0 10 2 -1 -1 2 60 -1 1 1 1 1 1 1 -1 0\n";
  const struct {
    const char* record;
    const char* field;
  } cases[] = {
      {"2 inf 0 10 2 -1 -1 2 60 -1 1 1 1 1 1 1 -1 0\n", "submit"},
      {"2 5 0 nan 2 -1 -1 2 60 -1 1 1 1 1 1 1 -1 0\n", "run_time"},
      {"2 5 0 10 2 -1 -1 2 -INF -1 1 1 1 1 1 1 -1 0\n", "requested_time"},
      {"2 5 0 10 2 -1 -1 2 60 -1 1 1 1 1 1 1 -1 1e999\n", "think_time"},
  };
  for (const auto& c : cases) {
    try {
      parse_swf_text(good + c.record);
      ADD_FAILURE() << "expected SwfParseError for " << c.record;
    } catch (const SwfParseError& error) {
      EXPECT_EQ(error.line(), 2) << c.record;
      EXPECT_NE(std::string(error.what()).find(c.field), std::string::npos)
          << error.what();
      EXPECT_NE(std::string(error.what()).find("not finite"),
                std::string::npos)
          << error.what();
    }
  }
}

// Integers outside their field's type used to wrap (4294967304 procs
// became 8) or go through llround's unspecified result (1e300 became 0
// and the record was dropped as sizeless); header directives went
// through atoi.  Each is now an error naming the line and field.
TEST(SwfParse, RejectsOutOfRangeIntegers) {
  const std::string good = "1 0 0 10 2 -1 -1 2 60 -1 1 1 1 1 1 1 -1 0\n";
  const struct {
    const char* text;
    int line;
    const char* name;
    const char* problem;
  } cases[] = {
      {"2 5 0 10 4294967304 -1 -1 4294967304 60 -1 1 1 1 1 1 1 -1 0\n", 2,
       "used_procs", "out of range"},
      {"2 5 0 10 2 -1 -1 1e300 60 -1 1 1 1 1 1 1 -1 0\n", 2, "requested_procs",
       "out of range"},
      {"2 5 0 10 2 -1 -1 2 60 -1 -2147483649 1 1 1 1 1 -1 0\n", 2, "status",
       "out of range"},
      {"2 5 0 10 2 -1 -1 2 60 -1 1 2147483647.5 1 1 1 1 -1 0\n", 2, "user_id",
       "out of range"},
      {"9223372036854775808 5 0 10 2 -1 -1 2 60 -1 1 1 1 1 1 1 -1 0\n", 2,
       "job_number", "out of range"},
      {"2 5 0 10 2 -1 -1 2 60 -1 1 1 1 1 1 1 -9.3e18 0\n", 2, "preceding_job",
       "out of range"},
      // Underflow is out of range, not "not finite".
      {"2 5 1e-999 10 2 -1 -1 2 60 -1 1 1 1 1 1 1 -1 0\n", 2, "wait",
       "out of range"},
      {"2 5 0 10 2 -1 -1 1e-999 60 -1 1 1 1 1 1 1 -1 0\n", 2, "requested_procs",
       "out of range"},
      {"; MaxNodes: 4294967296\n", 1, "MaxNodes", "out of range"},
      {"; MaxProcs: -2147483649 procs\n", 1, "MaxProcs", "out of range"},
      {"; UnixStartTime: 99999999999999999999\n", 1, "UnixStartTime",
       "out of range"},
  };
  for (const auto& c : cases) {
    const std::string text =
        c.line == 1 ? std::string(c.text) + good : good + c.text;
    try {
      parse_swf_text(text);
      ADD_FAILURE() << "expected SwfParseError for " << c.text;
    } catch (const SwfParseError& error) {
      const std::string what = error.what();
      EXPECT_EQ(error.line(), c.line) << what;
      EXPECT_NE(what.find(c.name), std::string::npos) << what;
      EXPECT_NE(what.find(c.problem), std::string::npos) << what;
    }
  }
  // The edges of each type, decimal integers and trailing directive
  // prose are still read.
  const SwfTrace trace = parse_swf_text(
      "; MaxNodes: 2147483647 nodes\n"
      "; UnixStartTime: -9223372036854775808\n"
      "9223372036854775807 0 0 10 2.0 -1 -1 2 60 -1 1 -2147483648 1 1 1 1 "
      "-1 0\n");
  EXPECT_EQ(trace.header.max_nodes, 2147483647);
  EXPECT_EQ(trace.header.unix_start_time,
            std::numeric_limits<long long>::min());
  ASSERT_EQ(trace.jobs.size(), 1u);
  EXPECT_EQ(trace.jobs[0].job_number, std::numeric_limits<long long>::max());
  EXPECT_EQ(trace.jobs[0].used_procs, 2);
  EXPECT_EQ(trace.jobs[0].user_id, std::numeric_limits<int>::min());
}

TEST(SwfParse, ExtraTrailingFieldsTolerated) {
  const SwfTrace trace = parse_swf_text(
      "1 0 0 10 2 -1 -1 2 60 -1 1 1 1 1 1 1 -1 0 99 98\n");
  ASSERT_EQ(trace.jobs.size(), 1u);
  EXPECT_EQ(trace.jobs[0].used_procs, 2);
}

TEST(SwfParse, MissingFileThrows) {
  EXPECT_THROW(parse_swf_file("/nonexistent/trace.swf"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Shaping
// ---------------------------------------------------------------------------

TEST(SwfShape, FiltersAndCountsEveryRecord) {
  TraceShaper shaper;
  shaper.target_nodes = 20;
  ShapeReport report;
  const Workload workload = shaper.shape(fixture(), &report);
  EXPECT_EQ(report.parsed, 24);
  EXPECT_EQ(report.kept, 21);
  EXPECT_EQ(report.dropped_status, 2);        // failed + cancelled
  EXPECT_EQ(report.dropped_zero_runtime, 1);  // job 4
  EXPECT_EQ(report.dropped_no_size, 0);
  EXPECT_EQ(report.clamped_oversize, 1);      // job 5: 22 nodes -> 20
  EXPECT_EQ(report.kept + report.dropped(), report.parsed);
  EXPECT_EQ(workload.jobs.size(), 21u);
  EXPECT_EQ(workload.target_nodes, 20);
  const std::string summary = report.describe();
  EXPECT_NE(summary.find("kept 21"), std::string::npos);
  EXPECT_NE(summary.find("clamped 1"), std::string::npos);
}

TEST(SwfShape, SortsBySubmitAndNormalizesArrivals) {
  TraceShaper shaper;
  shaper.target_nodes = 20;
  const Workload workload = shaper.shape(fixture());
  ASSERT_FALSE(workload.jobs.empty());
  EXPECT_DOUBLE_EQ(workload.jobs.front().arrival, 0.0);
  double previous = 0.0;
  int seen_13 = -1;
  int seen_12 = -1;
  for (const WorkloadJob& job : workload.jobs) {
    EXPECT_GE(job.arrival, previous);
    previous = job.arrival;
    if (job.source_id == 13) seen_13 = job.index;
    if (job.source_id == 12) seen_12 = job.index;
  }
  // The out-of-order pair was sorted: job 13 (t=580) before 12 (t=600).
  ASSERT_GE(seen_13, 0);
  ASSERT_GE(seen_12, 0);
  EXPECT_LT(seen_13, seen_12);
}

TEST(SwfShape, RescalesProcsToNodes) {
  TraceShaper shaper;
  shaper.target_nodes = 20;  // same size as the source machine
  const Workload same = shaper.shape(fixture());
  EXPECT_EQ(same.jobs.front().nodes, 4);  // 8 procs / 2 per node
  // Fall-back sizing from used_procs: job 6 ran on 6 procs -> 3 nodes.
  for (const WorkloadJob& job : same.jobs) {
    if (job.source_id == 6) {
      EXPECT_EQ(job.nodes, 3);
    }
  }

  shaper.target_nodes = 10;  // half the machine: widths halve too
  ShapeReport report;
  const Workload half = shaper.shape(fixture(), &report);
  EXPECT_EQ(half.jobs.front().nodes, 2);
  // Job 5 (22 source nodes) lands at 11 and is clamped to the ceiling.
  EXPECT_EQ(report.clamped_oversize, 1);
  for (const WorkloadJob& job : half.jobs) {
    EXPECT_GE(job.nodes, 1);
    EXPECT_LE(job.nodes, 10);
  }
}

TEST(SwfShape, JobCapIsCountedNotSilent) {
  TraceShaper shaper;
  shaper.target_nodes = 20;
  shaper.max_jobs = 5;
  ShapeReport report;
  const Workload capped = shaper.shape(fixture(), &report);
  EXPECT_EQ(capped.jobs.size(), 5u);
  EXPECT_EQ(report.dropped_cap, 16);
  EXPECT_EQ(report.kept + report.dropped(), report.parsed);
}

// ---------------------------------------------------------------------------
// Malleability annotation
// ---------------------------------------------------------------------------

TEST(Malleability, MinNodesPolicies) {
  MalleabilityConfig config;
  config.policy = Malleability::Rigid;
  EXPECT_EQ(min_nodes_for(12, config), 12);
  config.policy = Malleability::Pow2Halving;
  static_assert(kPow2Halvings == 2);
  EXPECT_EQ(min_nodes_for(20, config), 5);
  EXPECT_EQ(min_nodes_for(8, config), 2);
  EXPECT_EQ(min_nodes_for(3, config), 1);
  EXPECT_EQ(min_nodes_for(1, config), 1);
  config.policy = Malleability::FractionOfRequest;
  config.min_fraction = 0.3;
  EXPECT_EQ(min_nodes_for(8, config), 3);  // ceil(2.4)
  config.min_fraction = 0.0;
  EXPECT_EQ(min_nodes_for(8, config), 1);
  EXPECT_THROW(min_nodes_for(0, config), std::invalid_argument);
}

TEST(Malleability, ShaperAnnotatesBounds) {
  TraceShaper shaper;
  shaper.target_nodes = 20;

  shaper.malleability.policy = Malleability::Rigid;
  for (const WorkloadJob& job : shaper.shape(fixture()).jobs) {
    EXPECT_EQ(job.min_nodes, job.nodes);
    EXPECT_EQ(job.max_nodes, job.nodes);
  }

  shaper.malleability.policy = Malleability::Pow2Halving;
  for (const WorkloadJob& job : shaper.shape(fixture()).jobs) {
    EXPECT_EQ(job.min_nodes, std::max(1, job.nodes >> kPow2Halvings));
    EXPECT_EQ(job.max_nodes, job.nodes);  // no expand_limit: no growth
  }

  shaper.malleability.policy = Malleability::FractionOfRequest;
  shaper.malleability.min_fraction = 0.5;
  shaper.malleability.expand_limit = 20;
  for (const WorkloadJob& job : shaper.shape(fixture()).jobs) {
    EXPECT_GE(job.min_nodes, 1);
    EXPECT_LE(job.min_nodes, job.nodes);
    EXPECT_EQ(job.max_nodes, 20);  // every job may grow to the ceiling
  }
}

// ---------------------------------------------------------------------------
// Round trip: the generator and the ingester share one job model
// ---------------------------------------------------------------------------

TEST(SwfRoundTrip, FeitelsonSerializeParseShapeIsIdentity) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 5ull, 8ull, 13ull}) {
    FeitelsonParams params;
    params.jobs = 250;
    params.max_size = 20;
    params.max_runtime = 1500.0;
    params.seed = seed;
    const auto jobs = generate_feitelson(params);

    // Two bound policies: shrink-only pow2 halvings, and
    // fraction-of-request with room to expand to the machine size.
    MalleabilityConfig pow2;
    pow2.policy = Malleability::Pow2Halving;
    MalleabilityConfig fraction;
    fraction.policy = Malleability::FractionOfRequest;
    fraction.min_fraction = 0.5;
    fraction.expand_limit = params.max_size;
    for (const MalleabilityConfig& bounds : {pow2, fraction}) {
      const Workload direct = from_feitelson(jobs, params.max_size, bounds);

      // machine_nodes = max_size so expand bounds survive the trip even
      // when no generated job happens to reach the maximum.
      const SwfTrace serialized = trace_from_feitelson(jobs, params.max_size);
      const SwfTrace reparsed = parse_swf_text(to_swf_text(serialized));
      TraceShaper shaper;
      shaper.malleability = bounds;
      ShapeReport report;
      const Workload ingested = shaper.shape(reparsed, &report);

      EXPECT_EQ(report.parsed, static_cast<int>(jobs.size()));
      EXPECT_EQ(report.dropped(), 0) << "seed " << seed;
      ASSERT_EQ(ingested.jobs.size(), direct.jobs.size()) << "seed " << seed;
      // The shaper starts arrivals at the first job; the generator's
      // clock starts one interarrival earlier.
      const double first = direct.jobs.front().arrival;
      for (std::size_t i = 0; i < direct.jobs.size(); ++i) {
        EXPECT_NEAR(ingested.jobs[i].arrival, direct.jobs[i].arrival - first,
                    1e-9);
        EXPECT_EQ(ingested.jobs[i].nodes, direct.jobs[i].nodes);
        EXPECT_NEAR(ingested.jobs[i].runtime, direct.jobs[i].runtime, 1e-9);
        EXPECT_EQ(ingested.jobs[i].min_nodes, direct.jobs[i].min_nodes);
        EXPECT_EQ(ingested.jobs[i].max_nodes, direct.jobs[i].max_nodes);
        EXPECT_EQ(ingested.jobs[i].source_id, direct.jobs[i].source_id);
      }
    }
  }
}

TEST(SwfRoundTrip, SerializedHeaderSurvives) {
  FeitelsonParams params;
  params.jobs = 40;
  params.seed = 7;
  const SwfTrace trace = trace_from_feitelson(generate_feitelson(params));
  const std::string text = to_swf_text(trace);
  EXPECT_NE(text.find("; MaxNodes: "), std::string::npos);
  EXPECT_NE(text.find("; MaxProcs: "), std::string::npos);
  const SwfTrace reparsed = parse_swf_text(text);
  EXPECT_EQ(reparsed.header.max_nodes, trace.header.max_nodes);
  EXPECT_EQ(reparsed.header.max_procs, trace.header.max_procs);
  EXPECT_EQ(reparsed.jobs.size(), trace.jobs.size());
}

// ---------------------------------------------------------------------------
// JobPlan conversion and driver parity
// ---------------------------------------------------------------------------

TEST(Plans, BoundsOverrideModelRequestAndRigidJobsRunFixed) {
  Workload workload;
  workload.target_nodes = 16;
  WorkloadJob malleable;
  malleable.nodes = 8;
  malleable.runtime = 100.0;
  malleable.min_nodes = 2;
  malleable.max_nodes = 12;
  WorkloadJob rigid;
  rigid.index = 1;
  rigid.nodes = 4;
  rigid.runtime = 50.0;
  rigid.min_nodes = 4;
  rigid.max_nodes = 4;
  workload.jobs = {malleable, rigid};

  drv::PlanShape shape;
  shape.steps = 10;
  shape.flexible = true;
  const auto plans = drv::plans_from_workload(workload, shape);
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_EQ(plans[0].model.request.min_procs, 2);
  EXPECT_EQ(plans[0].model.request.max_procs, 12);
  EXPECT_TRUE(plans[0].flexible);
  EXPECT_EQ(plans[0].submit_nodes, 8);
  // 10 steps of runtime/steps at the submit size.
  EXPECT_NEAR(plans[0].model.step_seconds(8), 10.0, 1e-9);
  EXPECT_FALSE(plans[1].flexible);  // no room to reconfigure

  drv::PlanShape bad;
  bad.steps = 0;
  EXPECT_THROW(drv::plans_from_workload(workload, bad), std::invalid_argument);
}

drv::WorkloadMetrics run_plans(const std::vector<drv::JobPlan>& plans,
                               drv::DriverConfig config) {
  sim::Engine engine;
  drv::WorkloadDriver driver(engine, std::move(config));
  for (const drv::JobPlan& plan : plans) driver.add(plan);
  return driver.run();
}

TEST(DriverParity, SwfReplayThroughSingleMemberFederationIsIdentical) {
  TraceShaper shaper;
  shaper.target_nodes = 20;
  shaper.malleability.policy = Malleability::Pow2Halving;
  const Workload workload = shaper.shape(fixture());
  drv::PlanShape shape;
  shape.steps = 10;
  const auto plans = drv::plans_from_workload(workload, shape);

  drv::DriverConfig direct;
  direct.rms.nodes = 20;
  const auto direct_metrics = run_plans(plans, direct);

  drv::DriverConfig federated;
  fed::ClusterSpec member;
  member.name = "solo";
  member.rms.nodes = 20;
  federated.federation.clusters = {member};
  const auto fed_metrics = run_plans(plans, federated);

  EXPECT_EQ(fed_metrics.jobs, direct_metrics.jobs);
  EXPECT_EQ(fed_metrics.makespan, direct_metrics.makespan);
  EXPECT_EQ(fed_metrics.utilization, direct_metrics.utilization);
  EXPECT_EQ(fed_metrics.wait.mean, direct_metrics.wait.mean);
  EXPECT_EQ(fed_metrics.wait.p95, direct_metrics.wait.p95);
  EXPECT_EQ(fed_metrics.wait.max, direct_metrics.wait.max);
  EXPECT_EQ(fed_metrics.execution.mean, direct_metrics.execution.mean);
  EXPECT_EQ(fed_metrics.completion.mean, direct_metrics.completion.mean);
  EXPECT_EQ(fed_metrics.expands, direct_metrics.expands);
  EXPECT_EQ(fed_metrics.shrinks, direct_metrics.shrinks);
  EXPECT_EQ(fed_metrics.checks, direct_metrics.checks);
  EXPECT_EQ(fed_metrics.aborted_expands, direct_metrics.aborted_expands);
  EXPECT_EQ(fed_metrics.bytes_redistributed,
            direct_metrics.bytes_redistributed);
  EXPECT_EQ(fed_metrics.redistribution_seconds,
            direct_metrics.redistribution_seconds);
  EXPECT_EQ(fed_metrics.schedule_requests, direct_metrics.schedule_requests);
  EXPECT_EQ(fed_metrics.schedule_passes, direct_metrics.schedule_passes);
  // The replay must actually exercise the DMR machinery to be a
  // meaningful lock on its semantics.
  EXPECT_GT(direct_metrics.jobs, 0);
  EXPECT_GT(direct_metrics.checks, 0);
  EXPECT_GT(direct_metrics.shrinks + direct_metrics.expands, 0);
}

}  // namespace
