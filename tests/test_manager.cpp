// Integration tests of the Manager: job lifecycle, the Slurm resize
// protocol (resizer job -> harvest), two-phase shrink, and the
// synchronous/asynchronous DMR flows.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fed/federation.hpp"
#include "rms/manager.hpp"

namespace {

using namespace dmr::rms;
namespace fed = dmr::fed;
namespace obs = dmr::obs;

JobSpec spec(const std::string& name, int nodes, int min = 1,
             bool flexible = true) {
  JobSpec s;
  s.name = name;
  s.requested_nodes = nodes;
  s.min_nodes = min;
  s.flexible = flexible;
  s.time_limit = 1000.0;
  return s;
}

Request request(int min, int max, int preferred = 0) {
  Request r;
  r.min_procs = min;
  r.max_procs = max;
  r.preferred = preferred;
  return r;
}

RmsConfig config(int nodes) {
  RmsConfig c;
  c.nodes = nodes;
  return c;
}

TEST(Manager, SubmitScheduleRun) {
  Manager m(config(8));
  const JobId id = m.submit(spec("a", 4), 0.0);
  EXPECT_TRUE(m.job(id).pending());
  m.schedule(0.0);
  ASSERT_EQ(m.running_jobs(), 1);
  EXPECT_TRUE(m.job(id).running());
  EXPECT_EQ(m.job(id).allocated(), 4);
  EXPECT_EQ(m.idle_nodes(), 4);
  m.job_finished(id, 10.0);
  EXPECT_EQ(m.job(id).state, JobState::Completed);
  EXPECT_EQ(m.idle_nodes(), 8);
  EXPECT_DOUBLE_EQ(m.job(id).execution_time(), 10.0);
  EXPECT_TRUE(m.all_done());
}

TEST(Manager, FifoWhenResourcesContended) {
  Manager m(config(8));
  const JobId a = m.submit(spec("a", 8), 0.0);
  const JobId b = m.submit(spec("b", 8), 1.0);
  m.schedule(1.0);
  EXPECT_TRUE(m.job(a).running());
  EXPECT_TRUE(m.job(b).pending());
  m.job_finished(a, 5.0);  // triggers a pass: b starts
  EXPECT_TRUE(m.job(b).running());
  EXPECT_DOUBLE_EQ(m.job(b).wait_time(), 4.0);
}

TEST(Manager, CancelPendingAndRunning) {
  Manager m(config(8));
  const JobId a = m.submit(spec("a", 4), 0.0);
  const JobId b = m.submit(spec("b", 4), 0.0);
  m.schedule(0.0);
  m.cancel(a, 1.0);
  EXPECT_EQ(m.job(a).state, JobState::Cancelled);
  m.cancel(b, 1.0);
  EXPECT_EQ(m.job(b).state, JobState::Cancelled);
  EXPECT_EQ(m.idle_nodes(), 8);
}

/// Watches the resizer job of one expansion from inside the protocol:
/// the manager's state at the resizer's submission, start and harvest.
struct ResizerProbe final : obs::Sink {
  JobId parent = kInvalidJob;
  JobId resizer = kInvalidJob;
  std::vector<int> resizer_nodes;
  /// The resizer as its end left it (its id resolves no more once the
  /// protocol returns).
  bool flagged_resizer = false;
  JobState final_state = JobState::Pending;
  /// Idle nodes at every event from the resizer's start to the parent's
  /// expansion: the hand-off must never pass through idle.
  std::vector<int> idle_after_start;
  /// User-visible job count and queue length while the resizer exists.
  std::vector<std::size_t> jobs_seen;
  std::vector<std::size_t> pending_seen;
  bool harvested_to_parent = false;

  obs::Interest interest() const override { return obs::kAllKinds; }
  void on_event(const obs::Event& event) override {
    const Manager& m = *event.manager;
    if (event.kind == obs::EventKind::kSubmitted && event.job != parent) {
      resizer = event.job;
    }
    if (resizer == kInvalidJob) return;
    jobs_seen.push_back(m.jobs().size());
    std::size_t pending = 0;
    for (const Job* job : m.pending_queue()) pending += job->resizer ? 0 : 1;
    pending_seen.push_back(pending);
    if (event.kind == obs::EventKind::kStarted && event.job == resizer) {
      resizer_nodes = m.job(resizer).nodes;
    }
    if (!resizer_nodes.empty()) idle_after_start.push_back(m.idle_nodes());
    if (event.kind == obs::EventKind::kFinished && event.job == resizer) {
      flagged_resizer = m.job(resizer).resizer;
      final_state = m.job(resizer).state;
      // Harvested: the nodes already belong to the parent.
      harvested_to_parent = true;
      for (int node : resizer_nodes) {
        harvested_to_parent &= m.cluster().node(node).owner == parent;
      }
    }
  }
};

TEST(ResizeProtocol, SubmitHarvestGrow) {
  // The four Slurm steps of Section III, observed through dmr_check:
  // resizer submitted -> started on the idle nodes -> zero-size update
  // hands its nodes to the parent -> resizer cancelled.
  Manager m(config(8));
  const JobId a = m.submit(spec("a", 4), 0.0);
  m.schedule(0.0);
  ResizerProbe probe;
  probe.parent = a;
  m.attach(probe);
  const Outcome outcome = m.dmr_check(a, request(1, 8), 1.0);
  ASSERT_EQ(outcome.action, Action::Expand);
  ASSERT_NE(probe.resizer, kInvalidJob);
  EXPECT_TRUE(probe.flagged_resizer);
  EXPECT_FALSE(m.job(a).resizer);
  EXPECT_EQ(probe.final_state, JobState::Cancelled);
  // The resizer's id resolved only inside the protocol.
  EXPECT_THROW(m.job(probe.resizer), std::out_of_range);
  EXPECT_EQ(probe.resizer_nodes.size(), 4u);
  EXPECT_EQ(outcome.old_size, 4);
  // The harvested nodes are appended to the parent's allocation.
  EXPECT_EQ(std::vector<int>(m.job(a).nodes.begin() + outcome.old_size,
                             m.job(a).nodes.end()),
            probe.resizer_nodes);
  EXPECT_TRUE(probe.harvested_to_parent);
  // The resizer took the four idle nodes and none was ever released.
  ASSERT_FALSE(probe.idle_after_start.empty());
  for (int idle : probe.idle_after_start) EXPECT_EQ(idle, 0);
  EXPECT_EQ(m.job(a).allocated(), 8);
  EXPECT_EQ(m.job(a).requested_nodes, 8);
  EXPECT_EQ(m.idle_nodes(), 0);
}

TEST(ResizeProtocol, ResizerInvisibleToMetrics) {
  Manager m(config(8));
  const JobId a = m.submit(spec("a", 4), 0.0);
  m.schedule(0.0);
  ResizerProbe probe;
  probe.parent = a;
  m.attach(probe);
  ASSERT_EQ(m.dmr_check(a, request(1, 8), 1.0).action, Action::Expand);
  ASSERT_NE(probe.resizer, kInvalidJob);
  // Neither the job list nor the queue ever showed the resizer.
  ASSERT_FALSE(probe.jobs_seen.empty());
  for (std::size_t count : probe.jobs_seen) EXPECT_EQ(count, 1u);
  for (std::size_t count : probe.pending_seen) EXPECT_EQ(count, 0u);
  EXPECT_EQ(m.jobs().size(), 1u);
  EXPECT_EQ(m.running_jobs(), 1);
}

/// Every resizer announced by a kSubmitted event, with its member.
struct ResizerIds final : obs::Sink {
  std::vector<std::pair<int, JobId>> seen;

  obs::Interest interest() const override {
    return obs::kinds(obs::EventKind::kSubmitted);
  }
  void on_event(const obs::Event& event) override {
    if (event.manager->job(event.job).resizer) {
      seen.emplace_back(event.member, event.job);
    }
  }
};

/// On a 16-node manager: four submissions, one granted expansion and one
/// aborted (the hand-made decision asks for nodes another job holds).
void grant_and_abort(Manager& m) {
  const JobId a = m.submit(spec("a", 4), 0.0);
  const JobId b = m.submit(spec("b", 4), 0.0);
  m.schedule(0.0);
  ASSERT_EQ(m.dmr_check(a, request(1, 8), 1.0).action, Action::Expand);
  EXPECT_EQ(m.job(a).allocated(), 8);
  m.submit(spec("c", 4, 4, false), 2.0);
  m.schedule(2.0);
  ASSERT_EQ(m.idle_nodes(), 0);
  Decision grow;
  grow.action = Action::Expand;
  grow.new_size = 8;
  EXPECT_TRUE(m.dmr_apply(b, grow, 3.0).aborted);
  m.submit(spec("d", 1), 4.0);
  EXPECT_EQ(m.counters().expands, 1);
  EXPECT_EQ(m.counters().aborted_expands, 1);
}

/// The job table holds the submissions only, at id first_job_id + index;
/// every resizer `ids` saw has an id above them all that no longer
/// resolves.
void expect_dense_ids(const Manager& m, JobId first_job_id,
                      const ResizerIds& ids, int member) {
  ASSERT_EQ(m.jobs().size(), 4u);
  for (std::size_t i = 0; i < m.jobs().size(); ++i) {
    EXPECT_EQ(m.jobs()[i]->id, first_job_id + static_cast<JobId>(i));
    EXPECT_EQ(&m.job(m.jobs()[i]->id), m.jobs()[i]);
  }
  const JobId last_user_id = m.jobs()[m.jobs().size() - 1]->id;
  int resizers = 0;
  for (const auto& [seen_member, id] : ids.seen) {
    if (seen_member != member) continue;
    ++resizers;
    EXPECT_GT(id, last_user_id);
    EXPECT_LT(id, first_job_id + kClusterIdStride);
    EXPECT_THROW(m.job(id), std::out_of_range);
  }
  EXPECT_EQ(resizers, 2);
}

TEST(ResizeProtocol, UserIdsRunWithoutGaps) {
  Manager m(config(16));
  ResizerIds ids;
  m.attach(ids);
  grant_and_abort(m);
  expect_dense_ids(m, 1, ids, 0);
  ASSERT_EQ(ids.seen.size(), 2u);
  EXPECT_NE(ids.seen[0].second, ids.seen[1].second);
}

TEST(ResizeProtocol, UserIdsRunWithoutGapsOnEachFederationMember) {
  fed::FederationConfig members;
  for (const char* name : {"a", "b", "c"}) {
    members.clusters.push_back(fed::ClusterSpec{name, config(16)});
  }
  fed::Federation federation(std::move(members));
  ResizerIds ids;
  federation.attach(ids);
  for (int c = 0; c < federation.cluster_count(); ++c) {
    grant_and_abort(federation.manager(c));
  }
  ASSERT_EQ(ids.seen.size(), 6u);
  for (int c = 0; c < federation.cluster_count(); ++c) {
    expect_dense_ids(federation.manager(c), c * kClusterIdStride + 1, ids, c);
  }
  // Each resizer's id routes home.
  for (const auto& [member, id] : ids.seen) {
    EXPECT_EQ(federation.cluster_of(id), member) << "resizer " << id;
  }
}

TEST(DmrCheck, ExpandWholeFlow) {
  Manager m(config(16));
  const JobId a = m.submit(spec("a", 4), 0.0);
  m.schedule(0.0);
  const Outcome outcome = m.dmr_check(a, request(1, 16), 1.0);
  EXPECT_EQ(outcome.action, Action::Expand);
  EXPECT_EQ(outcome.old_size, 4);
  EXPECT_EQ(outcome.new_size, 16);
  EXPECT_EQ(m.job(a).allocated(), 16);
  EXPECT_EQ(m.counters().expands, 1);
  EXPECT_EQ(m.job(a).expansions, 1);
}

TEST(DmrCheck, ShrinkTwoPhase) {
  Manager m(config(16));
  const JobId a = m.submit(spec("a", 16), 0.0);
  m.schedule(0.0);
  const JobId b = m.submit(spec("b", 8, 8, false), 1.0);
  m.schedule(1.0);
  EXPECT_TRUE(m.job(b).pending());

  const Outcome outcome = m.dmr_check(a, request(1, 16, 4), 2.0);
  EXPECT_EQ(outcome.action, Action::Shrink);
  EXPECT_EQ(outcome.old_size, 16);
  EXPECT_EQ(outcome.new_size, 4);
  EXPECT_EQ(m.cluster().draining_count(), 12);
  // Nodes still attached until the drain ACKs arrive.
  EXPECT_EQ(m.job(a).allocated(), 16);
  EXPECT_TRUE(m.job(b).pending());

  m.complete_shrink(a, 3.0);
  EXPECT_EQ(m.job(a).allocated(), 4);
  // The release triggers a pass: the queued job starts.
  EXPECT_TRUE(m.job(b).running());
  EXPECT_EQ(m.counters().shrinks, 1);
}

TEST(DmrCheck, ShrinkBoostsTriggeringJob) {
  Manager m(config(16));
  const JobId a = m.submit(spec("a", 16), 0.0);
  m.schedule(0.0);
  const JobId b = m.submit(spec("b", 12, 12, false), 1.0);
  m.schedule(1.0);
  const Outcome outcome = m.dmr_check(a, request(1, 16), 2.0);
  EXPECT_EQ(outcome.action, Action::Shrink);
  EXPECT_TRUE(m.job(b).priority_boost);
}

TEST(DmrCheck, NoActionWhenSaturated) {
  Manager m(config(8));
  const JobId a = m.submit(spec("a", 8), 0.0);
  m.schedule(0.0);
  const Outcome outcome = m.dmr_check(a, request(1, 8, 8), 1.0);
  EXPECT_EQ(outcome.action, Action::None);
  EXPECT_FALSE(outcome.aborted);
  EXPECT_EQ(outcome.old_size, 8);
  EXPECT_EQ(m.counters().checks, 1);
  EXPECT_EQ(m.counters().expands + m.counters().shrinks, 0);
}

TEST(DmrAsync, DeferredDecisionAppliesAgainstNewState) {
  // The Fig. 6 pathology: decide expand-to-8 when 4 nodes are idle, but
  // by apply time 12 more became idle — the job still only gets 8.
  Manager m(config(16));
  const JobId a = m.submit(spec("a", 4), 0.0);
  const JobId hog = m.submit(spec("hog", 12, 12, false), 0.0);
  m.schedule(0.0);
  EXPECT_EQ(m.idle_nodes(), 0);
  m.job_finished(hog, 5.0);
  EXPECT_EQ(m.idle_nodes(), 12);

  const Decision decision = m.dmr_decide(a, request(1, 16), 6.0);
  ASSERT_EQ(decision.action, Action::Expand);
  EXPECT_EQ(decision.new_size, 16);

  // Meanwhile another job grabs 8 of the idle nodes.
  const JobId c = m.submit(spec("c", 8, 8, false), 7.0);
  m.schedule(7.0);
  EXPECT_TRUE(m.job(c).running());

  // Applying the outdated decision must fail (not enough nodes for +12).
  const Outcome outcome = m.dmr_apply(a, decision, 8.0);
  EXPECT_EQ(outcome.action, Action::None);
  EXPECT_TRUE(outcome.aborted);
  EXPECT_EQ(outcome.old_size, 4);
  EXPECT_EQ(m.counters().aborted_expands, 1);
  EXPECT_EQ(m.job(a).allocated(), 4);
}

TEST(DmrAsync, StaleShrinkOvertakenIsAborted) {
  Manager m(config(16));
  const JobId a = m.submit(spec("a", 8), 0.0);
  m.schedule(0.0);
  Decision stale;
  stale.action = Action::Shrink;
  stale.new_size = 8;  // equal to current: nothing to release
  const Outcome outcome = m.dmr_apply(a, stale, 1.0);
  EXPECT_EQ(outcome.action, Action::None);
  EXPECT_TRUE(outcome.aborted);
  EXPECT_EQ(outcome.old_size, 8);
}

TEST(Manager, ExpandAbortWhenResizerLosesRace) {
  // A boosted pending user job outranks the resizer: the expansion must
  // abort cleanly (the Section V-B1 timeout path).
  Manager m(config(16));
  const JobId a = m.submit(spec("a", 4), 0.0);
  m.schedule(0.0);
  // 12 idle; competitor wants 12 and is boosted above the resizer.
  const JobId rival = m.submit(spec("rival", 12, 12, false), 1.0);
  // Force rival ahead of the resizer by boosting it first.
  Decision decision;
  decision.action = Action::Expand;
  decision.new_size = 16;
  // Boost rival via a shrink decision boost path is indirect; instead
  // exercise dmr_apply after rival became running.
  m.schedule(1.0);
  EXPECT_TRUE(m.job(rival).running());
  const Outcome outcome = m.dmr_apply(a, decision, 2.0);
  EXPECT_TRUE(outcome.aborted);
  EXPECT_EQ(m.job(a).allocated(), 4);
  // No resizer leftovers.
  EXPECT_EQ(m.idle_nodes(), 0);
  EXPECT_TRUE(m.pending_queue().empty());
}

/// Counts starts and ends and keeps the last reported allocation.
struct LifecycleCounter final : obs::Sink {
  int starts = 0;
  int ends = 0;
  int last_alloc = -1;

  obs::Interest interest() const override {
    return obs::kinds(obs::EventKind::kStarted, obs::EventKind::kFinished,
                      obs::EventKind::kAllocChanged);
  }
  void on_event(const obs::Event& event) override {
    if (event.kind == obs::EventKind::kStarted) ++starts;
    if (event.kind == obs::EventKind::kFinished) ++ends;
    if (event.kind == obs::EventKind::kAllocChanged) {
      last_alloc = event.manager->allocated_nodes();
    }
  }
};

TEST(Manager, SinkSeesLifecycleEvents) {
  Manager m(config(8));
  LifecycleCounter counter;
  m.attach(counter);
  const JobId a = m.submit(spec("a", 4), 0.0);
  m.schedule(0.0);
  EXPECT_EQ(counter.starts, 1);
  EXPECT_EQ(counter.last_alloc, 4);
  m.job_finished(a, 1.0);
  EXPECT_EQ(counter.ends, 1);
  EXPECT_EQ(counter.last_alloc, 0);
}

TEST(Manager, RejectsBadSubmissions) {
  Manager m(config(8));
  EXPECT_THROW(m.submit(spec("zero", 0), 0.0), std::invalid_argument);
  EXPECT_THROW(m.submit(spec("huge", 9), 0.0), std::invalid_argument);
  EXPECT_THROW(m.submit(spec("no-minimum", 4, 0), 0.0),
               std::invalid_argument);
  EXPECT_TRUE(m.jobs().empty());
}

TEST(Manager, GuardsStateTransitions) {
  Manager m(config(8));
  const JobId a = m.submit(spec("a", 4), 0.0);
  EXPECT_THROW(m.job_finished(a, 1.0), std::logic_error);  // not running
  EXPECT_THROW(m.dmr_check(a, request(1, 8), 1.0), std::logic_error);
  EXPECT_THROW(m.job(999), std::out_of_range);
}

TEST(Manager, ScheduleIsIncremental) {
  Manager m(config(8));
  const JobId a = m.submit(spec("a", 4), 0.0);
  m.schedule(0.0);
  EXPECT_TRUE(m.job(a).running());
  const auto passes = m.counters().schedule_passes;
  // No placement-relevant event since the last pass: the request is
  // short-circuited, so it starts nothing.
  m.schedule(1.0);
  m.schedule(2.0);
  EXPECT_EQ(m.counters().schedule_passes, passes);
  EXPECT_GE(m.counters().schedule_passes_saved, 2);
  EXPECT_EQ(m.counters().schedule_requests, passes + 2);
  // A submission re-arms the pass.
  const JobId b = m.submit(spec("b", 4), 3.0);
  m.schedule(3.0);
  EXPECT_TRUE(m.job(b).running());
  EXPECT_GT(m.counters().schedule_passes, passes);
}

// The job table grows in blocks of 256 jobs; these cross three block
// boundaries.
TEST(Manager, JobAddressesSurviveTableGrowth) {
  Manager m(config(4));
  std::vector<JobId> ids;
  std::vector<const Job*> early;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(m.submit(spec("early", 1), i));
    early.push_back(&m.job(ids.back()));
  }
  m.schedule(10.0);
  const std::vector<const Job*> listed(m.jobs().begin(), m.jobs().end());
  for (int i = 0; i < 3 * 256; ++i) {
    ids.push_back(m.submit(spec("late", 1), 10.0 + i));
  }
  m.schedule(800.0);
  for (std::size_t i = 0; i < early.size(); ++i) {
    EXPECT_EQ(early[i]->id, ids[i]);
    EXPECT_EQ(&m.job(ids[i]), early[i]);
  }
  ASSERT_EQ(m.jobs().size(), ids.size());
  EXPECT_TRUE(std::equal(listed.begin(), listed.end(), m.jobs().begin()));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(m.jobs()[i]->id, ids[i]);
    EXPECT_EQ(&m.job(ids[i]), m.jobs()[i]);
  }
}

// A table whose last block is partly filled destroys each job it built
// (their names and node lists are heap-allocated: a skipped destructor
// leaks under the asan preset) and frees every block.
TEST(Manager, PartlyFilledJobTableDestroysCleanly) {
  for (const int jobs : {1, 255, 256, 257, 2 * 256 + 17}) {
    Manager m(config(64));
    for (int i = 0; i < jobs; ++i) {
      m.submit(spec("a job name past the short-string buffer", 1 + i % 3), i);
    }
    m.schedule(static_cast<double>(jobs));
    EXPECT_GT(m.running_jobs(), 0);
    EXPECT_EQ(m.jobs().size(), static_cast<std::size_t>(jobs));
  }
}

TEST(Manager, SnapshotsAreCachedAndInvalidate) {
  Manager m(config(8));
  const JobId a = m.submit(spec("a", 8), 0.0);
  const JobId b = m.submit(spec("b", 4), 1.0);
  m.schedule(1.0);
  EXPECT_TRUE(m.job(a).running());
  const auto pending = m.pending_queue();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0]->id, b);
  // Same state: the same list, element storage included.
  const Job* const* storage = pending.data();
  EXPECT_EQ(m.pending_queue().data(), storage);
  m.job_finished(a, 3.0);
  EXPECT_TRUE(m.job(b).running());
  EXPECT_TRUE(m.pending_queue().empty());
}

RmsConfig heterogeneous_config() {
  RmsConfig c;
  c.partitions = {Partition{"fast", 4, 1.0}, Partition{"slow", 4, 0.5}};
  return c;
}

TEST(Manager, PartitionConstrainedSubmission) {
  Manager m(heterogeneous_config());
  EXPECT_EQ(m.cluster().size(), 8);
  JobSpec pinned = spec("pinned", 3);
  pinned.partition = "slow";
  const JobId id = m.submit(pinned, 0.0);
  m.schedule(0.0);
  ASSERT_TRUE(m.job(id).running());
  for (int node : m.job(id).nodes) {
    EXPECT_EQ(m.cluster().node_partitions()[static_cast<std::size_t>(node)], 1);
  }
  // Unknown partitions and over-partition requests are rejected.
  JobSpec unknown = spec("x", 2);
  unknown.partition = "gpu";
  EXPECT_THROW(m.submit(unknown, 1.0), std::invalid_argument);
  JobSpec oversize = spec("y", 5);
  oversize.partition = "slow";
  EXPECT_THROW(m.submit(oversize, 1.0), std::invalid_argument);
}

TEST(Manager, MoldableHeadMoldsInSamePassAsBackfill) {
  // A pass that starts a rigid backfill job must still give a moldable
  // head its molding round before settling (regression: the incremental
  // fixpoint once broke out early and left the head pending).
  Manager m(config(10));
  m.submit(spec("hog", 4, 4, false), 0.0);
  m.schedule(0.0);
  JobSpec moldable = spec("mold", 10, 2);
  moldable.moldable = true;
  const JobId b = m.submit(moldable, 1.0);
  JobSpec short_rigid = spec("short", 4, 4, false);
  short_rigid.time_limit = 50.0;
  const JobId c = m.submit(short_rigid, 2.0);
  m.schedule(2.0);
  EXPECT_TRUE(m.job(c).running());  // backfilled around the blocked head
  ASSERT_TRUE(m.job(b).running());  // molded onto the remaining nodes
  EXPECT_EQ(m.job(b).allocated(), 2);
}

TEST(Manager, PinnedExpandCappedByPartitionIdle) {
  // Regression: the policy once saw cluster-wide idle (6 nodes) and
  // granted an expansion the 4-node partition could not hold, making
  // submit_resizer throw out of dmr_check.
  Manager m(heterogeneous_config());
  JobSpec pinned = spec("pinned", 2);
  pinned.partition = "fast";
  const JobId id = m.submit(pinned, 0.0);
  m.schedule(0.0);
  const Outcome outcome = m.dmr_check(id, request(1, 32), 1.0);
  EXPECT_EQ(outcome.action, Action::Expand);
  EXPECT_EQ(m.job(id).allocated(), 4);  // the whole partition, no more
}

TEST(Manager, PinnedJobIgnoresForeignPartitionQueue) {
  // A job queued for the *other* partition cannot be served by this
  // job's nodes, so it must not trigger a futile shrink.
  Manager m(heterogeneous_config());
  JobSpec hog = spec("hog", 4, 4, false);
  hog.partition = "slow";
  m.submit(hog, 0.0);
  JobSpec pinned = spec("a", 4);
  pinned.partition = "fast";
  const JobId a = m.submit(pinned, 0.0);
  m.schedule(0.0);
  JobSpec waiting = spec("b", 4, 4, false);
  waiting.partition = "slow";
  const JobId b = m.submit(waiting, 1.0);
  m.schedule(1.0);
  EXPECT_TRUE(m.job(b).pending());
  const Outcome outcome = m.dmr_check(a, request(1, 4), 2.0);
  EXPECT_EQ(outcome.action, Action::None);
  EXPECT_EQ(m.job(a).allocated(), 4);
}

TEST(Manager, ExpandInheritsPartitionConstraint) {
  Manager m(heterogeneous_config());
  JobSpec pinned = spec("pinned", 2);
  pinned.partition = "slow";
  const JobId id = m.submit(pinned, 0.0);
  m.schedule(0.0);
  const Outcome outcome = m.dmr_check(id, request(1, 4), 1.0);
  EXPECT_EQ(outcome.action, Action::Expand);
  EXPECT_EQ(m.job(id).allocated(), 4);
  for (int node : m.job(id).nodes) {
    EXPECT_EQ(m.cluster().node_partitions()[static_cast<std::size_t>(node)], 1);
  }
}

TEST(ResizeProtocol, OversizedExpandThrowsAndQueuesNothing) {
  // A hand-made decision may ask for more nodes than the parent's pool
  // holds: the whole cluster for a spanning job, the partition for a
  // pinned one.
  Manager m(heterogeneous_config());
  const JobId spanning = m.submit(spec("spanning", 2), 0.0);
  JobSpec pinned = spec("pinned", 2);
  pinned.partition = "slow";
  const JobId slow = m.submit(pinned, 0.0);
  m.schedule(0.0);
  ASSERT_EQ(m.idle_nodes(), 4);
  Decision grow;
  grow.action = Action::Expand;
  grow.new_size = 2 + 9;  // the cluster holds 8
  EXPECT_THROW(m.dmr_apply(spanning, grow, 1.0), std::invalid_argument);
  grow.new_size = 2 + 5;  // "slow" holds 4
  EXPECT_THROW(m.dmr_apply(slow, grow, 1.0), std::invalid_argument);
  EXPECT_TRUE(m.pending_queue().empty());
  EXPECT_EQ(m.jobs().size(), 2u);
  EXPECT_EQ(m.idle_nodes(), 4);
  EXPECT_EQ(m.job(spanning).allocated(), 2);
  EXPECT_EQ(m.job(slow).allocated(), 2);
  EXPECT_EQ(m.counters().expands + m.counters().aborted_expands, 0);
  // The manager still expands as before.
  grow.new_size = 4;
  EXPECT_EQ(m.dmr_apply(slow, grow, 2.0).action, Action::Expand);
  EXPECT_EQ(m.job(slow).allocated(), 4);
}

TEST(Manager, WaitExecCompletionArithmetic) {
  Manager m(config(4));
  const JobId a = m.submit(spec("a", 4), 10.0);
  m.schedule(12.0);
  m.job_finished(a, 30.0);
  const Job& job = m.job(a);
  EXPECT_DOUBLE_EQ(job.wait_time(), 2.0);
  EXPECT_DOUBLE_EQ(job.execution_time(), 18.0);
  EXPECT_DOUBLE_EQ(job.completion_time(), 20.0);
}

}  // namespace
