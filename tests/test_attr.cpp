// Tests for the wait-attribution layer: the conservation contract (a
// started job's cause slices tile [submit, start] exactly), outcome
// digests byte-identical with the attributor attached vs detached, the
// sidecar JSON round trip and its reader's rejections, the dmr_explain
// analytics (top waits, critical path, regression compare) the CLI
// fronts, and the kept per-cause sums matching a walk over every job
// bit for bit.  The attributor's one way in is the event stream, so
// every test feeds it obs::Events the way the layers emit them.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "dmr/federation.hpp"
#include "dmr/observe.hpp"
#include "dmr/service.hpp"
#include "dmr/simulation.hpp"
#include "dmr/util.hpp"

namespace {

using namespace dmr;

// --- workload helpers -------------------------------------------------------

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

/// A contended FS workload: more submitted nodes than the cluster has,
/// so jobs genuinely queue and every BlockReason path can fire.
std::vector<drv::JobPlan> fs_plans(std::uint64_t seed, int jobs,
                                   int max_size,
                                   double mean_interarrival = 8.0) {
  wl::FeitelsonParams params;
  params.jobs = jobs;
  params.max_size = max_size;
  params.mean_interarrival = mean_interarrival;
  params.max_runtime = 60.0 * 5;
  params.seed = seed;
  std::vector<drv::JobPlan> plans;
  for (const auto& job : wl::generate_feitelson(params)) {
    drv::JobPlan plan;
    plan.arrival = job.arrival;
    plan.model = apps::fs_model(5, job.size, job.runtime / 5, max_size,
                                std::size_t(1) << 20);
    plan.submit_nodes = job.size;
    plan.flexible = true;
    plans.push_back(std::move(plan));
  }
  return plans;
}

struct RunOutcome {
  std::string digest;
  drv::WorkloadMetrics metrics;
};

RunOutcome run_single(std::uint64_t seed, const obs::Hooks& hooks,
                      int jobs = 24) {
  sim::Engine engine;
  drv::DriverConfig config;
  config.rms.nodes = 16;
  config.hooks = hooks;
  drv::WorkloadDriver driver(engine, config);
  for (auto& plan : fs_plans(seed, jobs, 16)) driver.submit_at(std::move(plan));
  RunOutcome outcome;
  outcome.metrics = driver.run();
  outcome.digest = outcome_digest(driver);
  return outcome;
}

RunOutcome run_federated(std::uint64_t seed, const obs::Hooks& hooks,
                         int jobs = 36) {
  sim::Engine engine;
  drv::DriverConfig config;
  for (const char* name : {"a", "b", "c"}) {
    fed::ClusterSpec member;
    member.name = name;
    member.rms.nodes = 6;
    config.federation.clusters.push_back(member);
  }
  config.federation.placement = fed::Placement::LeastLoaded;
  config.hooks = hooks;
  drv::WorkloadDriver driver(engine, config);
  // Denser arrivals than the single-cluster run: three members absorb
  // bursts, so it takes more pressure before jobs genuinely queue.
  for (auto& plan : fs_plans(seed, jobs, 6, 3.0)) {
    driver.submit_at(std::move(plan));
  }
  RunOutcome outcome;
  outcome.metrics = driver.run();
  outcome.digest = outcome_digest(driver);
  return outcome;
}

/// Conservation: every started job's slices sum *exactly* to its wait,
/// nothing remains unattributed, and the aggregate per-cause seconds sum
/// to the total wait.
void expect_conservation(const obs::WaitAttributor& attr) {
  double total_wait = 0.0;
  int waited = 0;
  for (const obs::JobAttribution& job : attr.profile().jobs) {
    const JobId id = job.id;
    ASSERT_GE(job.start, 0.0) << "job " << id << " never started";
    // Exact, not approximate: the final slice absorbs the rounding.
    EXPECT_DOUBLE_EQ(job.attributed_seconds(), job.wait_seconds())
        << "job " << id;
    total_wait += job.wait_seconds();
    if (job.wait_seconds() > 0.0) {
      ++waited;
      ASSERT_FALSE(job.slices.empty()) << "job " << id;
      for (const auto& slice : job.slices) {
        EXPECT_NE(slice.cause, obs::BlockReason::kUnattributed)
            << "job " << id << " kept an undiagnosed slice";
      }
    }
  }
  ASSERT_GT(waited, 0) << "workload was uncontended; test proves nothing";
  const std::vector<double> totals = attr.cause_totals();
  double attributed = 0.0;
  for (const double seconds : totals) attributed += seconds;
  EXPECT_NEAR(attributed, total_wait, 1.0e-6);
  EXPECT_NEAR(totals[static_cast<std::size_t>(
                  obs::BlockReason::kUnattributed)],
              0.0, 1.0e-9);
}

// --- conservation, seed-swept ------------------------------------------------

TEST(WaitConservation, SingleClusterSlicesTileTheWaitExactly) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 2017ULL}) {
    obs::WaitAttributor attr;
    const RunOutcome outcome = run_single(seed, {.attr = &attr});
    ASSERT_GT(outcome.metrics.jobs, 0);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_conservation(attr);
  }
}

TEST(WaitConservation, FederatedSlicesTileTheWaitExactly) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 2017ULL}) {
    obs::WaitAttributor attr;
    const RunOutcome outcome = run_federated(seed, {.attr = &attr});
    ASSERT_GT(outcome.metrics.jobs, 0);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_conservation(attr);
    // Federated runs also carry placement provenance on every job.
    for (const obs::JobAttribution& job : attr.profile().jobs) {
      EXPECT_GE(job.member, 0) << "job " << job.id;
      EXPECT_NE(job.placement.find("policy="), std::string::npos)
          << "job " << job.id;
    }
  }
}

TEST(WaitConservation, MetricsCarryTheDecomposition) {
  obs::WaitAttributor attr;
  const RunOutcome outcome = run_single(2017, {.attr = &attr});
  ASSERT_EQ(outcome.metrics.wait_causes.size(),
            static_cast<std::size_t>(obs::kBlockReasonCount));
  const std::vector<double> totals = attr.cause_totals();
  for (int r = 0; r < obs::kBlockReasonCount; ++r) {
    const auto& cause = outcome.metrics.wait_causes[std::size_t(r)];
    EXPECT_EQ(cause.key,
              obs::block_reason_key(static_cast<obs::BlockReason>(r)));
    EXPECT_DOUBLE_EQ(cause.seconds, totals[std::size_t(r)]);
  }
}

// --- determinism: attribution attached vs detached ---------------------------

TEST(WaitAttribution, AttachedAttributorNeverPerturbsOutcomes) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 2017ULL}) {
    const RunOutcome detached = run_single(seed, {});
    obs::WaitAttributor attr;
    const RunOutcome attached = run_single(seed, {.attr = &attr});
    ASSERT_FALSE(detached.digest.empty());
    EXPECT_EQ(detached.digest, attached.digest) << "seed " << seed;

    const RunOutcome fed_detached = run_federated(seed, {});
    obs::WaitAttributor fed_attr;
    const RunOutcome fed_attached = run_federated(seed, {.attr = &fed_attr});
    EXPECT_EQ(fed_detached.digest, fed_attached.digest) << "seed " << seed;
  }
}

// --- the accumulator state machine -------------------------------------------

/// Two 8-node members whose managers issue the ids the direct-feed tests
/// report on: member c's from c * rms::kClusterIdStride + 1.  Each call
/// feeds the attributor one obs::Event the way the layers emit it,
/// naming the member's manager (the attributor reads a submitted job's
/// name and resizer flag from it).
class Feed {
 public:
  explicit Feed(obs::WaitAttributor& attr) : attr_(attr) {}

  /// Submit a one-node job named `name` to `member` and report it.
  JobId submit(const std::string& name, double now, int member = 0) {
    rms::Manager& manager = federation_.manager(member);
    JobSpec spec;
    spec.name = name;
    const JobId id = manager.submit(spec, now);
    emit({.kind = obs::EventKind::kSubmitted, .job = id, .now = now});
    return id;
  }
  void blocked(JobId id, double now, obs::BlockReason cause, JobId blocker) {
    emit({.kind = obs::EventKind::kBlocked,
          .job = id,
          .now = now,
          .cause = cause,
          .blocker = blocker});
  }
  void started(JobId id, double now) {
    emit({.kind = obs::EventKind::kStarted, .job = id, .now = now});
  }
  void finished(JobId id, double now) {
    emit({.kind = obs::EventKind::kFinished, .job = id, .now = now});
  }

 private:
  static fed::FederationConfig two_members() {
    fed::FederationConfig config;
    for (const char* name : {"a", "b"}) {
      fed::ClusterSpec member;
      member.name = name;
      member.rms.nodes = 8;
      config.clusters.push_back(member);
    }
    return config;
  }
  void emit(obs::Event event) {
    event.member = federation_.cluster_of(event.job);
    event.manager = &federation_.manager(event.member);
    attr_.on_event(event);
  }

  obs::WaitAttributor& attr_;
  fed::Federation federation_{two_members()};
};

/// The attribution of job `id` (a copy: the profile is a snapshot).
obs::JobAttribution attribution_of(const obs::WaitAttributor& attr,
                                   JobId id) {
  const obs::AttributionProfile profile = attr.profile();
  const obs::JobAttribution* job = profile.find(id);
  EXPECT_NE(job, nullptr) << "job " << id;
  return job != nullptr ? *job : obs::JobAttribution{};
}

TEST(WaitAttributor, BackDatesFirstDiagnosisAndClosesOnChange) {
  obs::WaitAttributor attr;
  Feed feed(attr);
  const JobId id = feed.submit("a", 0.0);
  // First diagnosis back-dates to the submit: the cause held all along.
  feed.blocked(id, 5.0, obs::BlockReason::kInsufficientIdle, 2);
  // Re-diagnosis with the same cause and blocker is a no-op.
  feed.blocked(id, 6.0, obs::BlockReason::kInsufficientIdle, 2);
  // A different cause closes the segment and opens the next.
  feed.blocked(id, 8.0, obs::BlockReason::kEasyReservation, 3);
  feed.started(id, 10.0);

  const obs::JobAttribution job = attribution_of(attr, id);
  ASSERT_EQ(job.slices.size(), 2u);
  EXPECT_EQ(job.slices[0].cause, obs::BlockReason::kInsufficientIdle);
  EXPECT_EQ(job.slices[0].blocker, 2);
  EXPECT_DOUBLE_EQ(job.slices[0].seconds, 8.0);
  EXPECT_EQ(job.slices[1].cause, obs::BlockReason::kEasyReservation);
  EXPECT_EQ(job.slices[1].blocker, 3);
  EXPECT_DOUBLE_EQ(job.slices[1].seconds, 2.0);
  EXPECT_DOUBLE_EQ(job.attributed_seconds(), job.wait_seconds());

  // Post-start reports are ignored (the wait is over).
  feed.blocked(id, 12.0, obs::BlockReason::kShrinkPending, 9);
  EXPECT_EQ(attribution_of(attr, id).slices.size(), 2u);
}

TEST(WaitAttributor, RankedCausesAggregateAcrossSlices) {
  obs::WaitAttributor attr;
  Feed feed(attr);
  const JobId id = feed.submit("a", 0.0);
  feed.blocked(id, 1.0, obs::BlockReason::kInsufficientIdle, 2);
  feed.blocked(id, 3.0, obs::BlockReason::kEasyReservation, 3);
  feed.blocked(id, 4.0, obs::BlockReason::kInsufficientIdle, 2);
  feed.started(id, 10.0);
  const auto ranked = obs::ranked_causes(attribution_of(attr, id));
  ASSERT_EQ(ranked.size(), 2u);
  // insufficient-idle accumulated [0,3) + [4,10) = 9 s, easy 1 s.
  EXPECT_EQ(ranked[0].cause, obs::BlockReason::kInsufficientIdle);
  EXPECT_DOUBLE_EQ(ranked[0].seconds, 9.0);
  EXPECT_EQ(ranked[1].cause, obs::BlockReason::kEasyReservation);
  EXPECT_DOUBLE_EQ(ranked[1].seconds, 1.0);
}

TEST(WaitAttributor, CancelledPendingJobClosesAtCancellation) {
  obs::WaitAttributor attr;
  Feed feed(attr);
  const JobId id = feed.submit("a", 0.0);
  feed.blocked(id, 2.0, obs::BlockReason::kPartitionPinned, 0);
  feed.finished(id, 7.0);  // cancelled while pending
  const obs::JobAttribution job = attribution_of(attr, id);
  EXPECT_LT(job.start, 0.0);
  ASSERT_EQ(job.slices.size(), 1u);
  EXPECT_DOUBLE_EQ(job.slices[0].seconds, 7.0);
  EXPECT_DOUBLE_EQ(job.end, 7.0);
}

TEST(WaitAttributor, LiveCauseTotalsCountOpenSegments) {
  obs::WaitAttributor attr;
  Feed feed(attr);
  const JobId id = feed.submit("a", 0.0);
  feed.blocked(id, 1.0, obs::BlockReason::kDrainingWait, 5);
  const auto live = attr.cause_totals(6.0);
  EXPECT_DOUBLE_EQ(
      live[static_cast<std::size_t>(obs::BlockReason::kDrainingWait)], 6.0);
  // Closed-only view sees nothing until the job starts.
  const auto closed = attr.cause_totals();
  EXPECT_DOUBLE_EQ(
      closed[static_cast<std::size_t>(obs::BlockReason::kDrainingWait)], 0.0);
}

/// Doubles as bit patterns: equal only when every bit is.
std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (const double value : values) {
    out.push_back(std::bit_cast<std::uint64_t>(value));
  }
  return out;
}

/// One cause's seconds from cause_totals(now).
double total_of(const obs::WaitAttributor& attr, obs::BlockReason cause,
                double now = -1.0) {
  return attr.cause_totals(now)[static_cast<std::size_t>(cause)];
}

/// Closed-slice totals as a walk over every job in id order.
std::vector<double> walk_every_job(const obs::WaitAttributor& attr) {
  std::vector<double> totals(static_cast<std::size_t>(obs::kBlockReasonCount),
                             0.0);
  for (const obs::JobAttribution& job : attr.profile().jobs) {
    for (const auto& slice : job.slices) {
      totals[static_cast<std::size_t>(slice.cause)] += slice.seconds;
    }
  }
  return totals;
}

TEST(WaitAttributor, SubmissionBelowTheSettledPrefixDropsItsSums) {
  obs::WaitAttributor attr;
  Feed feed(attr);
  const JobId late = feed.submit("e", 0.0, /*member=*/1);
  feed.blocked(late, 0.0, obs::BlockReason::kInsufficientIdle, 0);
  feed.started(late, 4.0);
  // Nothing is pending, so this call settles member 1's job.
  EXPECT_EQ(bits(attr.cause_totals()), bits(walk_every_job(attr)));

  // Member 0's ids sort before member 1's: this job lands inside the
  // settled prefix.
  const JobId early = feed.submit("c", 10.0, /*member=*/0);
  ASSERT_LT(early, late);
  feed.blocked(early, 10.0, obs::BlockReason::kShrinkPending, late);
  feed.started(early, 13.0);
  EXPECT_EQ(bits(attr.cause_totals()), bits(walk_every_job(attr)));
  EXPECT_DOUBLE_EQ(total_of(attr, obs::BlockReason::kShrinkPending), 3.0);

  // A job cancelled while pending settles like a started one.
  const JobId cancelled = feed.submit("g", 30.0, /*member=*/1);
  feed.blocked(cancelled, 30.0, obs::BlockReason::kPartitionPinned, 0);
  feed.finished(cancelled, 36.0);
  feed.submit("h", 40.0, /*member=*/1);
  EXPECT_EQ(bits(attr.cause_totals()), bits(walk_every_job(attr)));
  EXPECT_DOUBLE_EQ(total_of(attr, obs::BlockReason::kUnattributed, 50.0), 10.0);
}

// --- sidecar round trip ------------------------------------------------------

TEST(AttributionSidecar, JsonRoundTripsBitExactly) {
  obs::WaitAttributor attr;
  const RunOutcome outcome = run_federated(42, {.attr = &attr});
  ASSERT_GT(outcome.metrics.jobs, 0);

  std::string error;
  const obs::AttributionProfile parsed =
      obs::parse_attribution(attr.to_json(), error);
  ASSERT_TRUE(error.empty()) << error;
  const obs::AttributionProfile direct = attr.profile();

  ASSERT_EQ(parsed.jobs.size(), direct.jobs.size());
  EXPECT_DOUBLE_EQ(parsed.makespan, direct.makespan);
  for (std::size_t j = 0; j < parsed.jobs.size(); ++j) {
    const obs::JobAttribution& a = parsed.jobs[j];
    const obs::JobAttribution& b = direct.jobs[j];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.member, b.member);
    EXPECT_EQ(a.placement, b.placement);
    // %.17g emission: doubles survive the round trip bit-exactly.
    EXPECT_EQ(a.submit, b.submit);
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.end, b.end);
    ASSERT_EQ(a.slices.size(), b.slices.size());
    for (std::size_t s = 0; s < a.slices.size(); ++s) {
      EXPECT_EQ(a.slices[s].cause, b.slices[s].cause);
      EXPECT_EQ(a.slices[s].blocker, b.slices[s].blocker);
      EXPECT_EQ(a.slices[s].seconds, b.slices[s].seconds);
    }
  }
  for (int r = 0; r < obs::kBlockReasonCount; ++r) {
    EXPECT_NEAR(parsed.cause_totals[std::size_t(r)],
                direct.cause_totals[std::size_t(r)], 1.0e-9);
  }
}

TEST(AttributionSidecar, EmissionIsDeterministicAndSortedKey) {
  obs::WaitAttributor attr;
  run_single(7, {.attr = &attr});
  const std::string once = attr.to_json();
  EXPECT_EQ(once, attr.to_json());
  // Top-level keys appear in sorted order.
  const std::size_t causes = once.find("\"causes\"");
  const std::size_t flag = once.find("\"dmr_attr\"");
  const std::size_t jobs = once.find("\"jobs\"");
  const std::size_t makespan = once.find("\"makespan\"");
  ASSERT_NE(causes, std::string::npos);
  EXPECT_LT(causes, flag);
  EXPECT_LT(flag, jobs);
  EXPECT_LT(jobs, makespan);
}

TEST(AttributionSidecar, RejectsForeignDocuments) {
  std::string error;
  obs::parse_attribution("{\"traceEvents\":[]}", error);
  EXPECT_NE(error.find("dmr_attr"), std::string::npos);
  obs::parse_attribution("not json", error);
  EXPECT_NE(error.find("parse error"), std::string::npos);
  obs::load_attribution_file("/nonexistent/attr.json", error);
  EXPECT_NE(error.find("cannot read"), std::string::npos);
}

TEST(AttributionSidecar, RejectsNumbersNoFieldCanHold) {
  // The writer's layout with job 1's fields spliced in: each integer is
  // checked before it is converted, and a cause must be a known name.
  const auto sidecar = [](const std::string& job) {
    return R"({"causes":{},"dmr_attr":1,"jobs":[)"
           R"({"end":9,"id":1,"member":0,"name":"a","placement":"",)"
           R"("slices":[],"start":0,"submit":0},)"
           R"({"end":9,)" + job + R"(,"name":"b","placement":"",)"
           R"("start":4,"submit":0}],"makespan":9})";
  };
  const auto job = [](const std::string& id, const std::string& member,
                      const std::string& blocker, const std::string& cause) {
    return R"("id":)" + id + R"(,"member":)" + member +
           R"(,"slices":[{"blocker":)" + blocker + R"(,"cause":")" + cause +
           R"(","seconds":4}])";
  };
  const std::string known = "shrink-pending";
  std::string error;
  const obs::AttributionProfile good =
      obs::parse_attribution(sidecar(job("2", "0", "1", known)), error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(good.jobs.size(), 2u);
  EXPECT_EQ(good.jobs[1].id, 2);
  EXPECT_EQ(good.jobs[1].slices.at(0).blocker, 1);

  const struct {
    std::string job;
    std::string error;
  } cases[] = {
      {job("1e30", "0", "1", known), "malformed id (job 1)"},
      {job("-3", "0", "1", known), "malformed id (job 1)"},
      {job("2.7", "0", "1", known), "malformed id (job 1)"},
      {job("\"2\"", "0", "1", known), "malformed id (job 1)"},
      {job("2", "1e12", "1", known), "malformed member (job 1)"},
      {job("2", "-2", "1", known), "malformed member (job 1)"},
      {job("2", "0", "-1", known), "malformed blocker (job 1, slice 0)"},
      {job("2", "0", "1e300", known), "malformed blocker (job 1, slice 0)"},
      {job("2", "0", "1", "bogus"), "unknown cause 'bogus' (job 1, slice 0)"},
      {R"("member":0,"slices":[])", "missing or malformed id (job 1)"},
  };
  for (const auto& bad : cases) {
    const obs::AttributionProfile profile =
        obs::parse_attribution(sidecar(bad.job), error);
    EXPECT_NE(error.find(bad.error), std::string::npos)
        << bad.job << " read as: " << (error.empty() ? "valid" : error);
  }
  // The version flag is read the same way.
  obs::parse_attribution(R"({"dmr_attr":1e30,"jobs":[]})", error);
  EXPECT_NE(error.find("dmr_attr"), std::string::npos) << error;
}

// --- analytics ---------------------------------------------------------------

TEST(AttributionAnalytics, TopWaitsRanksLongestFirst) {
  obs::WaitAttributor attr;
  run_single(2017, {.attr = &attr});
  const obs::AttributionProfile profile = attr.profile();
  const auto top = obs::top_waits(profile, 5);
  ASSERT_FALSE(top.empty());
  EXPECT_LE(top.size(), 5u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1]->wait_seconds(), top[i]->wait_seconds());
  }
  // The front really is the maximum over all jobs.
  for (const obs::JobAttribution& job : profile.jobs) {
    EXPECT_LE(job.wait_seconds(), top.front()->wait_seconds());
  }
}

TEST(AttributionAnalytics, CriticalPathEndsAtTheMakespanJob) {
  obs::WaitAttributor attr;
  run_single(2017, {.attr = &attr});
  const obs::AttributionProfile profile = attr.profile();
  const obs::CriticalPath path = obs::critical_path(profile);
  ASSERT_FALSE(path.chain.empty());
  EXPECT_EQ(path.edges.size(), path.chain.size() - 1);
  // The chain's tail is the job whose end time *is* the makespan.
  const obs::JobAttribution* tail = profile.find(path.chain.back());
  ASSERT_NE(tail, nullptr);
  EXPECT_DOUBLE_EQ(tail->end, profile.makespan);
  EXPECT_DOUBLE_EQ(path.makespan, profile.makespan);
  // Edges link consecutive chain entries with real waits.
  for (std::size_t e = 0; e < path.edges.size(); ++e) {
    EXPECT_EQ(path.edges[e].blocker, path.chain[e]);
    EXPECT_EQ(path.edges[e].job, path.chain[e + 1]);
    EXPECT_GT(path.edges[e].wait_seconds, 0.0);
    EXPECT_NE(path.edges[e].cause, obs::BlockReason::kUnattributed);
  }
  // The root waited on nothing the walk could chase further.
  const obs::JobAttribution* root = profile.find(path.chain.front());
  ASSERT_NE(root, nullptr);
  EXPECT_DOUBLE_EQ(path.root_submit, root->submit);
}

TEST(AttributionAnalytics, CompareFindsTheRegression) {
  // The identical workload on half the nodes: queueing can only get
  // worse, so B must regress against A.
  obs::WaitAttributor attr_a;
  obs::WaitAttributor attr_b;
  {
    sim::Engine engine;
    drv::DriverConfig config;
    config.rms.nodes = 16;
    config.hooks.attr = &attr_a;
    drv::WorkloadDriver driver(engine, config);
    for (auto& plan : fs_plans(2017, 24, 8)) driver.submit_at(std::move(plan));
    driver.run();
  }
  {
    sim::Engine engine;
    drv::DriverConfig config;
    config.rms.nodes = 8;
    config.hooks.attr = &attr_b;
    drv::WorkloadDriver driver(engine, config);
    for (auto& plan : fs_plans(2017, 24, 8)) driver.submit_at(std::move(plan));
    driver.run();
  }
  const obs::AttributionDelta delta =
      obs::compare_profiles(attr_a.profile(), attr_b.profile());
  EXPECT_EQ(delta.jobs_a, 24);
  EXPECT_EQ(delta.jobs_b, 24);
  EXPECT_GT(delta.total_wait_b, delta.total_wait_a);
  ASSERT_FALSE(delta.moved_jobs.empty());
  // Worst regression first.
  for (std::size_t i = 1; i < delta.moved_jobs.size(); ++i) {
    const auto& prev = delta.moved_jobs[i - 1];
    const auto& cur = delta.moved_jobs[i];
    EXPECT_GE(prev.wait_b - prev.wait_a, cur.wait_b - cur.wait_a);
  }
}

// --- naming ------------------------------------------------------------------

TEST(BlockReason, NamesRoundTripAndKeysAreColumnSafe) {
  for (int r = 0; r < obs::kBlockReasonCount; ++r) {
    const auto reason = static_cast<obs::BlockReason>(r);
    EXPECT_EQ(obs::block_reason_from(obs::to_string(reason)), reason);
    const std::string key = obs::block_reason_key(reason);
    EXPECT_EQ(key.find('-'), std::string::npos) << key;
  }
  EXPECT_FALSE(obs::block_reason_from("no-such-cause").has_value());
}

// --- service samples ---------------------------------------------------------

TEST(ServiceAttribution, SamplesCarryWaitCauseColumns) {
  svc::ServiceConfig config;
  config.driver.rms.nodes = 4;
  config.sample_period = 30.0;
  config.window = 300.0;
  svc::Service service(config);
  ASSERT_NE(service.attribution(), nullptr);
  for (int i = 0; i < 8; ++i) {
    svc::JobRequest request;
    request.tag = i;
    request.arrival = 5.0 * i;
    request.nodes = 2;
    request.min_nodes = 1;
    request.max_nodes = 4;
    request.runtime = 240.0;
    request.steps = 5;
    request.flexible = true;
    ASSERT_TRUE(service.submit(request));
  }
  ASSERT_TRUE(service.drain(1.0e6));
  ASSERT_FALSE(service.sample_records().empty());
  const svc::MetricsSample& last = service.sample_records().back();
  ASSERT_EQ(last.cause_seconds.size(),
            static_cast<std::size_t>(obs::kBlockReasonCount));
  // One column per cause, keyed by block_reason_key, in enum order, and
  // no other.
  const std::string line = last.to_json();
  std::size_t at = 0;
  for (int r = 0; r < obs::kBlockReasonCount; ++r) {
    const std::string column =
        std::string(",\"wait_cause_") +
        obs::block_reason_key(static_cast<obs::BlockReason>(r)) + "\":";
    const std::size_t found = line.find(column, at);
    ASSERT_NE(found, std::string::npos)
        << column << " after " << at << " in " << line;
    at = found + column.size();
  }
  EXPECT_EQ(line.find("wait_cause_", at), std::string::npos) << line;
  // The run was contended (8x2 nodes demanded of 4): some cause accrued.
  double total = 0.0;
  for (const double seconds : last.cause_seconds) total += seconds;
  EXPECT_GT(total, 0.0);
  // Detached service reports no columns.
  svc::ServiceConfig off = config;
  off.attribute_waits = false;
  svc::Service plain(off);
  EXPECT_EQ(plain.attribution(), nullptr);
}

/// At every sample, feeds the events recorded so far to a fresh
/// attributor, whose one cause_totals call walks every job from the
/// first, and expects the sample's cause columns to match it bit for bit.
/// It records user jobs' events only: the replay resolves each job after
/// the fact, a resizer's id resolves only inside its expand protocol, and
/// the attributor keeps no row for a resizer.
class ColdReplayCheck final : public obs::Sink {
 public:
  obs::Interest interest() const override {
    return obs::kinds(obs::EventKind::kSubmitted, obs::EventKind::kBlocked,
                      obs::EventKind::kStarted, obs::EventKind::kFinished,
                      obs::EventKind::kSample);
  }

  void on_event(const obs::Event& event) override {
    if (event.kind != obs::EventKind::kSample) {
      if (!event.manager->job(event.job).resizer) feed_.push_back(event);
      return;
    }
    obs::WaitAttributor cold;
    for (const obs::Event& fed : feed_) cold.on_event(fed);
    const std::vector<double> expected = cold.cause_totals(event.now);
    EXPECT_EQ(bits(event.sample->cause_seconds), bits(expected))
        << "sample at t=" << event.now;
    ++samples;
    if (event.sample->queue_depth > 0) ++backlogged_samples;
  }

  int samples = 0;
  /// Samples taken with jobs pending: the sums had a tail to walk.
  int backlogged_samples = 0;

 private:
  std::vector<obs::Event> feed_;
};

TEST(ServiceAttribution, CachedTotalsMatchColdReplay) {
  for (const std::uint64_t seed : {1, 7, 42, 2017}) {
    for (const int members : {1, 3}) {
      svc::ServiceConfig config;
      if (members == 1) {
        config.driver.rms.nodes = 24;
      } else {
        const fed::MemberMix mix =
            fed::parse_member_mix(fed::kDefaultMemberMix);
        for (int c = 0; c < members; ++c) {
          config.driver.federation.clusters.push_back(fed::member_spec(mix, c));
        }
        config.driver.federation.placement = fed::Placement::LeastLoaded;
      }
      config.sample_period = 40.0 + double(seed % 3) * 10.0;
      config.window = 4 * config.sample_period;
      svc::Service service(config);
      ColdReplayCheck check;
      service.driver_mutable().attach(check);

      util::Rng rng(seed);
      double arrival = 0.0;
      for (long long tag = 0; tag < 80; ++tag) {
        svc::JobRequest request;
        request.tag = tag;
        request.arrival = arrival;
        request.nodes = static_cast<int>(rng.uniform_int(2, 8));
        request.min_nodes = std::max(1, request.nodes / 4);
        request.max_nodes = request.nodes * 2;
        request.runtime = rng.uniform(100.0, 400.0);
        request.steps = 5;
        request.flexible = rng.bernoulli(0.7);
        ASSERT_TRUE(service.submit(request));
        arrival += rng.exponential_mean(15.0);
      }
      ASSERT_TRUE(service.drain(1.0e7));
      const std::string label = "seed " + std::to_string(seed) + ", " +
                                std::to_string(members) + " member(s)";
      EXPECT_EQ(check.samples,
                static_cast<int>(service.sample_records().size()))
          << label;
      // The stream queues: most samples find jobs pending behind
      // started ones, so both the kept sums and the walk are exercised.
      EXPECT_GT(check.backlogged_samples, check.samples / 2) << label;
    }
  }
}

}  // namespace
