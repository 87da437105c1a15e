// Tests for the chk:: correctness-analysis layer: the lifecycle DFA,
// every invariant's failure path (seeded through chk::TestBackdoor
// corruptions the production code is designed never to produce), the
// structured report and its violation cap, and — the property the whole
// layer exists to protect — byte-identical simulated outcomes with the
// auditor attached vs detached.  The auditor's one way in is the event
// stream, so every test feeds it obs::Events the way the layers emit
// them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chk/backdoor.hpp"
#include "dmr/check.hpp"
#include "dmr/observe.hpp"
#include "dmr/simulation.hpp"
#include "util/rng.hpp"

namespace {

using namespace dmr;
using K = obs::EventKind;

/// The single violation in `report`, with the suite failing loudly when
/// the count is not exactly one.
chk::Violation only_violation(const chk::Report& report) {
  EXPECT_EQ(report.violations.size(), 1u) << report.describe();
  return report.violations.empty() ? chk::Violation{}
                                   : report.violations.front();
}

rms::RmsConfig eight_nodes() {
  rms::RmsConfig config;
  config.nodes = 8;
  return config;
}

/// The manager a job event names when only the lifecycle matters: no
/// jobs, so the conservation sweep a resize step triggers is clean.
const rms::Manager& idle_manager() {
  static const rms::Manager manager(eight_nodes());
  return manager;
}

/// A job event, as rms::Manager emits it.
void job_event(chk::Auditor& auditor, obs::EventKind kind, JobId id,
               double now) {
  auditor.on_event(
      {.kind = kind, .job = id, .now = now, .manager = &idle_manager()});
}

/// An engine dispatch, as sim::Engine reports it.
void dispatch(chk::Auditor& auditor, double time, int lane, std::uint64_t seq,
              double clock, std::uint64_t watermark) {
  auditor.on_event({.kind = K::kDispatch,
                    .now = time,
                    .dispatch = {.lane = lane,
                                 .seq = seq,
                                 .clock = clock,
                                 .watermark = watermark}});
}

/// The end of a schedule call, which sweeps the member's nodes.
void pass(chk::Auditor& auditor, const rms::Manager& manager, double now) {
  auditor.on_event({.kind = K::kPass, .now = now, .manager = &manager});
}

/// A modeled redistribution of a job with `bytes` of declared state.
void redistributed(chk::Auditor& auditor, const redist::Report& report,
                   std::size_t bytes, double now) {
  auditor.on_event({.kind = K::kRedistributed,
                    .now = now,
                    .bytes = bytes,
                    .report = &report});
}

// --- lifecycle DFA -----------------------------------------------------------

TEST(Lifecycle, LegalCycleIsClean) {
  chk::Auditor auditor;
  job_event(auditor, K::kSubmitted, 7, 0.0);
  job_event(auditor, K::kStarted, 7, 1.0);
  job_event(auditor, K::kExpanded, 7, 2.0);
  job_event(auditor, K::kShrinkBegun, 7, 3.0);
  job_event(auditor, K::kShrinkEnded, 7, 4.0);
  job_event(auditor, K::kShrinkBegun, 7, 5.0);
  job_event(auditor, K::kShrinkEnded, 7, 6.0);
  job_event(auditor, K::kFinished, 7, 7.0);
  const chk::Report report = auditor.report();
  EXPECT_TRUE(report.ok()) << report.describe();
  EXPECT_EQ(report.lifecycle_edges, 8);
}

TEST(Lifecycle, StartWithoutSubmitCarriesJobIdAndTime) {
  chk::Auditor auditor;
  job_event(auditor, K::kStarted, 42, 12.5);
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "job-lifecycle");
  EXPECT_EQ(violation.job, 42);
  EXPECT_DOUBLE_EQ(violation.sim_time, 12.5);
  EXPECT_NE(violation.message.find("never submitted"), std::string::npos);
}

TEST(Lifecycle, ResubmitWhileQueuedIsIllegal) {
  chk::Auditor auditor;
  job_event(auditor, K::kSubmitted, 3, 0.0);
  job_event(auditor, K::kSubmitted, 3, 1.0);
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "job-lifecycle");
  EXPECT_EQ(violation.job, 3);
  EXPECT_NE(violation.message.find("resubmitted while queued"),
            std::string::npos);
}

TEST(Lifecycle, ShrinkFromQueuedNamesBothPhases) {
  chk::Auditor auditor;
  job_event(auditor, K::kSubmitted, 9, 0.0);
  job_event(auditor, K::kShrinkBegun, 9, 2.0);
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "job-lifecycle");
  EXPECT_EQ(violation.job, 9);
  EXPECT_NE(violation.message.find("queued -> reconfiguring"),
            std::string::npos);
}

TEST(Lifecycle, DoubleFinishIsIllegal) {
  chk::Auditor auditor;
  job_event(auditor, K::kSubmitted, 5, 0.0);
  job_event(auditor, K::kStarted, 5, 1.0);
  job_event(auditor, K::kFinished, 5, 2.0);
  job_event(auditor, K::kFinished, 5, 3.0);
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "job-lifecycle");
  EXPECT_EQ(violation.job, 5);
  EXPECT_DOUBLE_EQ(violation.sim_time, 3.0);
  EXPECT_NE(violation.message.find("finished twice"), std::string::npos);
}

TEST(Lifecycle, OneBadEdgeAdoptsAndDoesNotCascade) {
  chk::Auditor auditor;
  job_event(auditor, K::kStarted, 11, 1.0);   // never submitted: one
  job_event(auditor, K::kExpanded, 11, 2.0);  // now legally running
  job_event(auditor, K::kFinished, 11, 3.0);  // and legally finished
  EXPECT_EQ(auditor.report().violations.size(), 1u);
}

// --- event ordering ----------------------------------------------------------

TEST(EventOrder, BehindTheClockIsAViolation) {
  chk::Auditor auditor;
  dispatch(auditor, 10.0, 0, 1, 0.0, 2);
  dispatch(auditor, 5.0, 0, 2, 10.0, 3);
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "event-order");
  EXPECT_DOUBLE_EQ(violation.sim_time, 10.0);
  EXPECT_NE(violation.message.find("behind the clock"), std::string::npos);
}

TEST(EventOrder, CoexistingEventsMustDispatchInOrder) {
  chk::Auditor auditor;
  // Both events queued (seqs 1 and 2, watermark 3) but the later tuple
  // pops first: a heap-ordering bug the auditor must catch.
  dispatch(auditor, 5.0, 1, 2, 0.0, 3);
  dispatch(auditor, 5.0, 0, 1, 5.0, 3);
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "event-order");
  EXPECT_NE(violation.message.find("should have preceded"),
            std::string::npos);
}

TEST(EventOrder, EventScheduledDuringCallbackMayLandAtSameInstant) {
  chk::Auditor auditor;
  // seq 5 >= watermark 4: the second event did not coexist with the
  // first (a mid-callback arrival), so a lower lane at the same time is
  // legal.
  dispatch(auditor, 5.0, 1, 2, 0.0, 4);
  dispatch(auditor, 5.0, 0, 5, 5.0, 6);
  EXPECT_TRUE(auditor.report().ok()) << auditor.report().describe();
}

TEST(EventOrder, BackdoorTimeTravelThroughTheRealEngine) {
  chk::Auditor auditor;
  sim::Engine engine;
  engine.attach(auditor);
  int fired = 0;
  engine.schedule_at(10.0, [&] { ++fired; });
  engine.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(auditor.report().ok());
  // Bypass schedule_at's monotonicity guard: an event behind the clock.
  chk::TestBackdoor::push_raw_event(engine, 5.0, sim::Lane::Normal, 99);
  engine.run();
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "event-order");
  EXPECT_DOUBLE_EQ(violation.sim_time, 10.0);
}

// --- node conservation -------------------------------------------------------

/// An 8-node manager with two running 3-node jobs (ids returned).
struct ManagerFixture {
  rms::Manager manager;
  JobId first = kInvalidJob;
  JobId second = kInvalidJob;

  ManagerFixture() : manager(eight_nodes()) {
    rms::JobSpec spec;
    spec.requested_nodes = 3;
    spec.min_nodes = 1;
    spec.time_limit = 1000.0;
    spec.name = "a";
    first = manager.submit(spec, 0.0);
    spec.name = "b";
    second = manager.submit(spec, 0.0);
    manager.schedule(0.0);
  }
};

TEST(NodeConservation, CleanManagerPasses) {
  ManagerFixture fixture;
  chk::Auditor auditor;
  pass(auditor, fixture.manager, 1.0);
  const chk::Report report = auditor.report();
  EXPECT_TRUE(report.ok()) << report.describe();
  EXPECT_EQ(report.conservation_audits, 1);
}

TEST(NodeConservation, SkewedIdleCounterIsCaught) {
  ManagerFixture fixture;
  chk::TestBackdoor::skew_idle_counter(fixture.manager, +1);
  chk::Auditor auditor;
  pass(auditor, fixture.manager, 33.0);
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "node-conservation");
  EXPECT_DOUBLE_EQ(violation.sim_time, 33.0);
  EXPECT_NE(violation.message.find("idle counter"), std::string::npos);
  chk::TestBackdoor::skew_idle_counter(fixture.manager, -1);  // restore
}

TEST(NodeConservation, ForeignOwnerInTheTableIsCaught) {
  ManagerFixture fixture;
  // Hand an idle node to a job id the manager has never heard of.  The
  // idle recount diverges from the cached counter too, so assert on the
  // unknown-owner violation specifically.
  chk::TestBackdoor::set_node_owner(fixture.manager, 7, 424242);
  chk::Auditor auditor;
  pass(auditor, fixture.manager, 2.0);
  const chk::Report report = auditor.report();
  ASSERT_FALSE(report.ok());
  bool unknown_owner = false;
  for (const chk::Violation& violation : report.violations) {
    if (violation.job == 424242) {
      unknown_owner = true;
      EXPECT_EQ(violation.invariant, "node-conservation");
      EXPECT_NE(violation.message.find("does not know"), std::string::npos);
    }
  }
  EXPECT_TRUE(unknown_owner) << report.describe();
}

TEST(NodeConservation, JobListOwnerTableMismatchIsCaught) {
  ManagerFixture fixture;
  // The job claims a node the owner table says is idle.
  chk::TestBackdoor::claim_node(fixture.manager, fixture.first, 7);
  chk::Auditor auditor;
  pass(auditor, fixture.manager, 4.0);
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "node-conservation");
  EXPECT_EQ(violation.job, fixture.first);
  EXPECT_NE(violation.message.find("node list"), std::string::npos);
}

TEST(NodeConservation, IdleDrainingNodeIsCaught) {
  ManagerFixture fixture;
  chk::TestBackdoor::set_node_draining(fixture.manager, 6, true);
  chk::Auditor auditor;
  pass(auditor, fixture.manager, 5.0);
  const chk::Report report = auditor.report();
  ASSERT_FALSE(report.ok());
  // Two symptoms of the same corruption: the idle node marked draining,
  // and the draining recount diverging from the cached counter.
  bool idle_draining = false;
  for (const chk::Violation& violation : report.violations) {
    EXPECT_EQ(violation.invariant, "node-conservation");
    if (violation.message.find("marked draining") != std::string::npos) {
      idle_draining = true;
    }
  }
  EXPECT_TRUE(idle_draining) << report.describe();
}

// --- node conservation: the two walks against the map-based reference --------

/// The map-based sweep the two walks replaced, kept as their reference:
/// recount the node table into a map of each owner's nodes, then compare
/// every owner's list with its job's sorted node list.  Only the
/// (invariant, job) pairs are compared, so its messages are shortened.
std::vector<chk::Violation> reference_audit(const rms::Manager& manager,
                                            double now) {
  std::vector<chk::Violation> out;
  const auto violate = [&](JobId job, const std::string& message) {
    out.push_back({"node-conservation", message, job, now});
  };
  const rms::Cluster& cluster = manager.cluster();
  std::vector<int> idle_per(static_cast<std::size_t>(cluster.partition_count()),
                            0);
  std::map<JobId, std::vector<int>> owned;
  int idle = 0;
  int draining = 0;
  for (int id = 0; id < cluster.size(); ++id) {
    const rms::Node& node = cluster.node(id);
    if (cluster.draining(id)) ++draining;
    if (node.owner == kInvalidJob) {
      ++idle;
      ++idle_per[static_cast<std::size_t>(
          cluster.node_partitions()[static_cast<std::size_t>(id)])];
      if (cluster.draining(id)) {
        violate(kInvalidJob, "idle node " + node.name + " is marked draining");
      }
    } else {
      owned[node.owner].push_back(id);
    }
  }
  if (idle != cluster.idle()) violate(kInvalidJob, "idle counter");
  if (draining != cluster.draining_count()) {
    violate(kInvalidJob, "draining counter");
  }
  for (int p = 0; p < cluster.partition_count(); ++p) {
    const int idle_p = idle_per[static_cast<std::size_t>(p)];
    if (idle_p != cluster.idle_in(p) ||
        idle_p + cluster.allocated_in(p) != cluster.partition(p).nodes) {
      violate(kInvalidJob, "partition " + cluster.partition(p).name);
    }
  }
  for (const auto& [id, nodes] : owned) {
    try {
      const rms::Job& job = manager.job(id);
      if (!job.running()) {
        violate(id, job.pending() ? "owns nodes while pending"
                                  : "owns nodes while finished");
      }
      std::vector<int> declared = job.nodes;
      std::sort(declared.begin(), declared.end());
      if (declared != nodes) violate(id, "node list != owner table");
    } catch (const std::exception&) {
      violate(id, "owner table names a job the manager does not know");
    }
  }
  return out;
}

using Blame = std::set<std::pair<std::string, JobId>>;

Blame blamed(const std::vector<chk::Violation>& violations) {
  Blame out;
  for (const chk::Violation& v : violations) out.insert({v.invariant, v.job});
  return out;
}

/// A live manager state: `ops` seeded operations of ManagerFuzz's mix
/// (submit + schedule, finish, cancel, dmr_check, complete_shrink) on a
/// cluster of two 8-node partitions, some jobs pinned to one of them.
/// Shrinks left uncompleted keep nodes draining.
struct LiveState {
  rms::Manager manager;
  double now = 0.0;

  static rms::RmsConfig two_partitions() {
    rms::RmsConfig config;
    config.partitions = {{.name = "fast", .nodes = 8, .speed = 1.0},
                         {.name = "slow", .nodes = 8, .speed = 0.5}};
    return config;
  }

  LiveState(std::uint64_t seed, int ops) : manager(two_partitions()) {
    util::Rng rng(seed);
    std::vector<JobId> live;
    std::set<JobId> draining;
    for (int op = 0; op < ops; ++op) {
      now += rng.exponential_mean(5.0);
      if (rng.uniform() < 0.35 || live.empty()) {
        rms::JobSpec spec;
        spec.name = "j" + std::to_string(op);
        spec.requested_nodes = static_cast<int>(rng.uniform_int(1, 8));
        spec.min_nodes = 1;
        spec.flexible = rng.bernoulli(0.7);
        spec.time_limit = rng.uniform(10.0, 500.0);
        const double pin = rng.uniform();
        spec.partition = pin < 0.3 ? "fast" : pin < 0.6 ? "slow" : "";
        live.push_back(manager.submit(spec, now));
        manager.schedule(now);
        continue;
      }
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const JobId id = live[pick];
      const rms::Job& job = manager.job(id);
      if (job.finished()) {
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else if (draining.erase(id) != 0) {
        manager.complete_shrink(id, now);
      } else if (job.pending()) {
        if (rng.bernoulli(0.3)) manager.cancel(id, now);
      } else if (rng.bernoulli(0.4)) {
        manager.job_finished(id, now);
      } else {
        Request request;
        request.min_procs = 1;
        request.max_procs = 8;
        request.preferred =
            rng.bernoulli(0.5) ? static_cast<int>(rng.uniform_int(1, 8)) : 0;
        if (manager.dmr_check(id, request, now).action == Action::Shrink) {
          draining.insert(id);
        }
      }
    }
  }
};

/// The corruptions the property applies, one per state.
enum class Corruption {
  kHandToRunning,   // a running job's node to another running job
  kHandToPending,   // ... to a pending job
  kHandToFinished,  // ... to a finished job
  kHandToUnknown,   // ... to an id the manager never issued
  kHandToNobody,    // ... to nobody (idle)
  kClaimIdle,       // a running job lists an idle node
  kClaimOthers,     // ... another running job's node
  kClaimOwn,        // ... a node it already lists
  kClaimPastEnd,    // ... an id past the cluster
  kDrainIdle,       // an idle node marked draining
  kSkewIdle,        // the cached idle counter off by a few
};
constexpr int kCorruptions = 11;

const char* corruption_name(Corruption corruption) {
  constexpr const char* kNames[] = {
      "hand-to-running", "hand-to-pending", "hand-to-finished",
      "hand-to-unknown", "hand-to-nobody",  "claim-idle",
      "claim-others",    "claim-own",       "claim-past-end",
      "drain-idle",      "skew-idle"};
  return kNames[static_cast<int>(corruption)];
}

/// Applies `corruption` to `manager` with targets drawn from `rng`;
/// false when the state has no target for it (no idle node, say).
bool corrupt(rms::Manager& manager, Corruption corruption, util::Rng& rng) {
  const auto draw = [&rng](const auto& from) {
    return from[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
  };
  std::vector<const rms::Job*> running;
  for (const rms::Job* job : manager.running_list()) running.push_back(job);
  std::vector<JobId> pending;
  std::vector<JobId> finished;
  for (const rms::Job* job : manager.jobs()) {
    if (job->pending()) pending.push_back(job->id);
    if (job->finished()) finished.push_back(job->id);
  }
  std::vector<int> idle;
  const rms::Cluster& cluster = manager.cluster();
  for (int id = 0; id < cluster.size(); ++id) {
    if (cluster.node(id).owner == kInvalidJob) idle.push_back(id);
  }
  if (running.empty() && corruption != Corruption::kDrainIdle &&
      corruption != Corruption::kSkewIdle) {
    return false;
  }
  // A running job other than `id` (callers check that there are two).
  const auto other_than = [&](JobId id) {
    const rms::Job* job = nullptr;
    do {
      job = draw(running);
    } while (job->id == id);
    return job;
  };
  using C = Corruption;
  switch (corruption) {
    case C::kHandToRunning:
    case C::kHandToPending:
    case C::kHandToFinished:
    case C::kHandToUnknown:
    case C::kHandToNobody: {
      const rms::Job* donor = draw(running);
      JobId to = kInvalidJob;
      if (corruption == C::kHandToRunning) {
        if (running.size() < 2) return false;
        to = other_than(donor->id)->id;
      } else if (corruption == C::kHandToPending) {
        if (pending.empty()) return false;
        to = draw(pending);
      } else if (corruption == C::kHandToFinished) {
        if (finished.empty()) return false;
        to = draw(finished);
      } else if (corruption == C::kHandToUnknown) {
        to = 999999;
      }
      chk::TestBackdoor::set_node_owner(manager, draw(donor->nodes), to);
      return true;
    }
    case C::kClaimIdle:
      if (idle.empty()) return false;
      chk::TestBackdoor::claim_node(manager, draw(running)->id, draw(idle));
      return true;
    case C::kClaimOthers: {
      if (running.size() < 2) return false;
      const JobId claimant = draw(running)->id;
      chk::TestBackdoor::claim_node(manager, claimant,
                                    draw(other_than(claimant)->nodes));
      return true;
    }
    case C::kClaimOwn: {
      const rms::Job* job = draw(running);
      chk::TestBackdoor::claim_node(manager, job->id, draw(job->nodes));
      return true;
    }
    case C::kClaimPastEnd:
      chk::TestBackdoor::claim_node(
          manager, draw(running)->id,
          cluster.size() + static_cast<int>(rng.uniform_int(0, 3)));
      return true;
    case C::kDrainIdle:
      if (idle.empty()) return false;
      chk::TestBackdoor::set_node_draining(manager, draw(idle), true);
      return true;
    case C::kSkewIdle: {
      const int by = static_cast<int>(rng.uniform_int(1, 3));
      chk::TestBackdoor::skew_idle_counter(manager,
                                           rng.bernoulli(0.5) ? by : -by);
      return true;
    }
  }
  return false;
}

TEST(NodeConservation, TwoWalksBlameWhatTheMapBasedSweepBlames) {
  int applied[kCorruptions] = {};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const int ops : {30, 90, 240}) {
      for (int c = 0; c < kCorruptions; ++c) {
        const auto corruption = static_cast<Corruption>(c);
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " ops " << ops << " corruption "
                     << corruption_name(corruption));
        LiveState state(seed, ops);
        if (c == 0) {
          chk::Auditor clean;
          pass(clean, state.manager, state.now);
          EXPECT_TRUE(clean.report().ok()) << clean.report().describe();
          EXPECT_TRUE(reference_audit(state.manager, state.now).empty());
        }
        util::Rng rng(seed * 1000 + static_cast<std::uint64_t>(ops * 16 + c));
        if (!corrupt(state.manager, corruption, rng)) continue;
        ++applied[c];
        Blame expected = blamed(reference_audit(state.manager, state.now));
        // The reference starts from the owner table, so a running job the
        // table gives no node at all (its only node handed away) escapes
        // it; the list walk blames that job too.
        const rms::Cluster& cluster = state.manager.cluster();
        for (const rms::Job* job : state.manager.running_list()) {
          bool owns_one = false;
          for (int id = 0; id < cluster.size(); ++id) {
            owns_one = owns_one || cluster.node(id).owner == job->id;
          }
          if (!owns_one && !job->nodes.empty()) {
            expected.insert({"node-conservation", job->id});
          }
        }
        chk::Auditor auditor;
        pass(auditor, state.manager, state.now);
        const chk::Report report = auditor.report();
        ASSERT_EQ(report.dropped_violations, 0);
        EXPECT_FALSE(report.ok());
        EXPECT_EQ(blamed(report.violations), expected) << report.describe();
      }
    }
  }
  // Every corruption met enough states to mean something.
  for (int c = 0; c < kCorruptions; ++c) {
    EXPECT_GE(applied[c], 12) << corruption_name(static_cast<Corruption>(c));
  }
}

// --- federation identity -----------------------------------------------------

fed::FederationConfig two_members() {
  fed::ClusterSpec a;
  a.name = "a";
  a.rms.nodes = 4;
  fed::ClusterSpec b;
  b.name = "b";
  b.rms.nodes = 4;
  fed::FederationConfig config;
  config.clusters = {a, b};
  config.placement = fed::Placement::RoundRobin;
  return config;
}

rms::JobSpec small_job(const std::string& name) {
  rms::JobSpec spec;
  spec.name = name;
  spec.requested_nodes = 2;
  spec.min_nodes = 1;
  spec.time_limit = 1000.0;
  return spec;
}

/// A service sample of `federation`, which sweeps every member.
void sample(chk::Auditor& auditor, const fed::Federation& federation,
            double now) {
  auditor.on_event({.kind = K::kSample, .now = now, .federation = &federation});
}

TEST(FederationIdentity, PlacementInsideTheRangeIsClean) {
  fed::Federation federation(two_members());
  chk::Auditor auditor;
  federation.attach(auditor);
  federation.submit(small_job("a"), 0.0);
  federation.submit(small_job("b"), 0.0);
  sample(auditor, federation, 1.0);
  const chk::Report report = auditor.report();
  EXPECT_TRUE(report.ok()) << report.describe();
  EXPECT_EQ(report.placement_checks, 2);
  EXPECT_EQ(report.federation_audits, 1);
}

TEST(FederationIdentity, RekeyedJobLeavesItsMembersRange) {
  fed::Federation federation(two_members());
  const JobId id = federation.submit(small_job("a"), 0.0);
  const int member = federation.cluster_of(id);
  // Push the job's id into the *other* member's stride range: the owner
  // still holds it, but routing now points elsewhere.
  const JobId foreign = id + rms::kClusterIdStride;
  chk::TestBackdoor::rekey_job(federation.manager(member), id, foreign);
  chk::Auditor auditor;
  sample(auditor, federation, 9.0);
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "fed-id-range");
  EXPECT_EQ(violation.job, foreign);
  EXPECT_DOUBLE_EQ(violation.sim_time, 9.0);
  EXPECT_NE(violation.message.find("outside its range"), std::string::npos);
}

TEST(FederationIdentity, OutOfRangePlacementIsCaught) {
  chk::Auditor auditor;
  auditor.on_event({.kind = K::kPlaced, .job = 5, .member = 1, .now = 2.0});
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "fed-id-range");
  EXPECT_EQ(violation.job, 5);
}

// --- redistribution byte conservation ---------------------------------------

redist::Report clean_report() {
  redist::Report report;
  report.bytes_moved = 1024;
  report.bytes_total = 1024;
  report.transfers = 4;
  report.seconds = 0.5;
  report.lanes = 2;
  return report;
}

TEST(ByteConservation, CleanReportPasses) {
  chk::Auditor auditor;
  redistributed(auditor, clean_report(), 1024, 1.0);
  EXPECT_TRUE(auditor.report().ok()) << auditor.report().describe();
}

TEST(ByteConservation, CheckpointMayMoveEveryByteTwice) {
  redist::Report report = clean_report();
  report.via_checkpoint = true;
  report.bytes_moved = 2048;  // write + read-back
  chk::Auditor auditor;
  redistributed(auditor, report, 1024, 1.0);
  EXPECT_TRUE(auditor.report().ok()) << auditor.report().describe();
}

TEST(ByteConservation, UnaccountedBytesAreCaught) {
  chk::Auditor auditor;
  redistributed(auditor, clean_report(), 4096, 6.0);
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "byte-conservation");
  EXPECT_DOUBLE_EQ(violation.sim_time, 6.0);
  EXPECT_NE(violation.message.find("registered"), std::string::npos);
}

TEST(ByteConservation, MovingMoreThanTheTotalIsCaught) {
  redist::Report report = clean_report();
  report.bytes_moved = 2048;  // 2x without the checkpoint excuse
  chk::Auditor auditor;
  redistributed(auditor, report, 1024, 1.0);
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "byte-conservation");
  EXPECT_NE(violation.message.find("moved"), std::string::npos);
}

TEST(ByteConservation, MovedBytesWithoutTransfersAreCaught) {
  redist::Report report = clean_report();
  report.transfers = 0;
  chk::Auditor auditor;
  redistributed(auditor, report, 1024, 1.0);
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "byte-conservation");
  EXPECT_NE(violation.message.find("transfers"), std::string::npos);
}

TEST(ByteConservation, NanDurationAndZeroLanesAreCaught) {
  redist::Report report = clean_report();
  report.lanes = 0;
  report.seconds = std::numeric_limits<double>::quiet_NaN();
  chk::Auditor auditor;
  redistributed(auditor, report, 1024, 1.0);
  const chk::Report result = auditor.report();
  EXPECT_EQ(result.violations.size(), 2u) << result.describe();
}

// --- report ------------------------------------------------------------------

TEST(Report, JsonCarriesChecksViolationsAndProvenance) {
  chk::Auditor auditor;
  job_event(auditor, K::kSubmitted, 1, 0.0);
  job_event(auditor, K::kStarted, 2, 3.5);  // never submitted
  const std::string json = auditor.report().json();
  EXPECT_NE(json.find("\"report\":\"chk\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lifecycle_edges\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"invariant\":\"job-lifecycle\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"job\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"git_sha\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"timestamp\""), std::string::npos) << json;
}

TEST(Report, DescribeListsEachViolation) {
  chk::Auditor auditor;
  job_event(auditor, K::kStarted, 2, 3.5);
  const std::string text = auditor.report().describe();
  EXPECT_NE(text.find("1 violation(s)"), std::string::npos) << text;
  EXPECT_NE(text.find("job-lifecycle"), std::string::npos) << text;
  EXPECT_NE(text.find("[job 2]"), std::string::npos) << text;
}

TEST(Report, ViolationCapCountsInsteadOfDropping) {
  chk::Auditor auditor;
  constexpr auto kJobs =
      static_cast<JobId>(chk::Auditor::kMaxStoredViolations) + 3;
  for (JobId id = 1; id <= kJobs; ++id) {
    job_event(auditor, K::kStarted, id, 0.0);
  }
  const chk::Report report = auditor.report();
  EXPECT_EQ(report.violations.size(), chk::Auditor::kMaxStoredViolations);
  EXPECT_EQ(report.dropped_violations, 3);
  EXPECT_EQ(report.violation_count(), 67);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.describe().find("3 more (cap reached)"),
            std::string::npos);
  EXPECT_NE(report.json().find("\"violation_count\":67"), std::string::npos);
}

// --- the headline property: attached == detached -----------------------------

/// The same FS workload test_obs.cpp uses for its digest-safety
/// properties: 20 flexible jobs on a 16-node cluster, 5 reconfiguring
/// points each.
std::string run_fs_digest(std::uint64_t seed, const obs::Hooks& hooks,
                          chk::Report* audit_report = nullptr) {
  wl::FeitelsonParams params;
  params.jobs = 20;
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
    driver.submit_at(std::move(plan));
  }
  driver.run();

  std::ostringstream out;
  out.precision(17);
  const fed::Federation& federation = driver.federation();
  for (int c = 0; c < federation.cluster_count(); ++c) {
    for (const rms::Job* job : federation.manager(c).jobs()) {
      out << job->id << ':' << job->submit_time << ':' << job->start_time
          << ':' << job->end_time << '\n';
    }
  }
  if (audit_report != nullptr && hooks.auditor != nullptr) {
    *audit_report = hooks.auditor->report();
  }
  return out.str();
}

TEST(AuditorAttached, OutcomeDigestsMatchDetachedAcrossSeeds) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 2017ull}) {
    const std::string detached = run_fs_digest(seed, {});
    chk::Auditor auditor;
    chk::Report report;
    const std::string attached =
        run_fs_digest(seed, {.auditor = &auditor}, &report);
    EXPECT_EQ(attached, detached) << "seed " << seed;
    EXPECT_TRUE(report.ok()) << "seed " << seed << "\n" << report.describe();
    // The audit did real work on every axis the driver exercises.
    EXPECT_GT(report.lifecycle_edges, 0) << "seed " << seed;
    EXPECT_GT(report.event_dispatches, 0) << "seed " << seed;
    EXPECT_GT(report.conservation_audits, 0) << "seed " << seed;
  }
}

}  // namespace
