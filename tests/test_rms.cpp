// Tests for the resource-manager building blocks: cluster allocation,
// malleable size arithmetic, the queue order (SubmitOrder) and the EASY
// backfill scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "rms/cluster.hpp"
#include "rms/job.hpp"
#include "rms/scheduler.hpp"

namespace {

using namespace dmr::rms;

TEST(Cluster, AllocateReleaseAccounting) {
  Cluster cluster(8);
  EXPECT_EQ(cluster.idle(), 8);
  const auto nodes = cluster.allocate(1, 3);
  EXPECT_EQ(nodes.size(), 3u);
  EXPECT_EQ(cluster.idle(), 5);
  EXPECT_EQ(cluster.allocated(), 3);
  cluster.release(1, nodes);
  EXPECT_EQ(cluster.idle(), 8);
}

TEST(Cluster, AllocationIsDeterministicLowestIdFirst) {
  Cluster cluster(4);
  const auto first = cluster.allocate(1, 2);
  EXPECT_EQ(first, (std::vector<int>{0, 1}));
  cluster.release(1, {0});
  const auto second = cluster.allocate(2, 2);
  EXPECT_EQ(second, (std::vector<int>{0, 2}));
}

TEST(Cluster, OverAllocationThrows) {
  Cluster cluster(2);
  cluster.allocate(1, 2);
  EXPECT_THROW(cluster.allocate(2, 1), std::runtime_error);
}

TEST(Cluster, ReleaseForeignNodeThrows) {
  Cluster cluster(2);
  cluster.allocate(1, 1);
  EXPECT_THROW(cluster.release(2, {0}), std::runtime_error);
}

TEST(Cluster, TransferMovesOwnershipWithoutIdleChange) {
  Cluster cluster(4);
  const auto nodes = cluster.allocate(1, 2);
  cluster.transfer(1, 2, nodes);
  EXPECT_EQ(cluster.idle(), 2);
  for (int node : nodes) EXPECT_EQ(cluster.node(node).owner, 2);
}

TEST(Cluster, DrainingFlag) {
  Cluster cluster(2);
  const auto nodes = cluster.allocate(1, 2);
  cluster.set_draining({nodes[1]}, true);
  EXPECT_FALSE(cluster.draining(nodes[0]));
  EXPECT_TRUE(cluster.draining(nodes[1]));
}

TEST(JobSizes, ExpandCandidatesFactor2) {
  EXPECT_EQ(expand_candidates(4, 2, 20), (std::vector<int>{8, 16}));
  EXPECT_EQ(expand_candidates(3, 2, 20), (std::vector<int>{6, 12}));
  EXPECT_TRUE(expand_candidates(16, 2, 20).empty());
}

TEST(JobSizes, ShrinkCandidatesExactDivisorsOnly) {
  EXPECT_EQ(shrink_candidates(8, 2, 1), (std::vector<int>{4, 2, 1}));
  EXPECT_EQ(shrink_candidates(8, 2, 2), (std::vector<int>{4, 2}));
  EXPECT_EQ(shrink_candidates(6, 2, 1), (std::vector<int>{3}));
  EXPECT_TRUE(shrink_candidates(5, 2, 1).empty());
}

TEST(JobSizes, FactorReachable) {
  EXPECT_TRUE(factor_reachable(4, 16, 2));
  EXPECT_TRUE(factor_reachable(16, 4, 2));
  EXPECT_TRUE(factor_reachable(8, 8, 2));
  EXPECT_FALSE(factor_reachable(4, 12, 2));
  EXPECT_FALSE(factor_reachable(6, 4, 2));
  EXPECT_TRUE(factor_reachable(3, 27, 3));
}

TEST(JobSizes, RejectBadArguments) {
  EXPECT_THROW(expand_candidates(0, 2, 8), std::invalid_argument);
  EXPECT_THROW(shrink_candidates(4, 1, 1), std::invalid_argument);
}

Job make_job(JobId id, int nodes, double submit) {
  Job job;
  job.id = id;
  job.spec.name = "j" + std::to_string(id);
  job.spec.requested_nodes = nodes;
  job.spec.min_nodes = 1;
  job.spec.time_limit = 100.0;
  job.requested_nodes = nodes;
  job.submit_time = submit;
  return job;
}

TEST(Priority, BoostSortsFirst) {
  Job a = make_job(1, 2, 0.0);
  Job b = make_job(2, 2, 900.0);
  b.priority_boost = true;
  const SubmitOrder order{};
  EXPECT_TRUE(order(&b, &a));
  EXPECT_FALSE(order(&a, &b));
}

TEST(Priority, FifoTieBreak) {
  const Job a = make_job(1, 2, 10.0);
  const Job b = make_job(2, 2, 20.0);
  const Job c = make_job(3, 2, 20.0);
  const SubmitOrder order{};
  EXPECT_TRUE(order(&a, &b));
  // Equal submit times fall to the id.
  EXPECT_TRUE(order(&b, &c));
  EXPECT_FALSE(order(&c, &b));
}

/// One pass's starts (the pass fills a list its caller keeps).
std::vector<const Job*> pass(const ScheduleView& view,
                             const SchedulerConfig& config) {
  std::vector<const Job*> started;
  schedule_pass(view, config, started);
  return started;
}

TEST(Scheduler, StartsJobsThatFit) {
  Job a = make_job(1, 3, 0.0);
  Job b = make_job(2, 4, 1.0);
  ScheduleView view;
  view.now = 10.0;
  view.idle_nodes = 8;
  const Job* const queue[] = {&a, &b};
  view.pending = queue;
  const auto started = pass(view, SchedulerConfig{});
  EXPECT_EQ(started.size(), 2u);
}

TEST(Scheduler, NeverOverAllocates) {
  Job a = make_job(1, 3, 0.0);
  Job b = make_job(2, 4, 1.0);
  Job c = make_job(3, 2, 2.0);
  ScheduleView view;
  view.now = 10.0;
  view.idle_nodes = 5;
  const Job* const queue[] = {&a, &b, &c};
  view.pending = queue;
  const auto started = pass(view, SchedulerConfig{});
  int total = 0;
  for (const Job* job : started) total += job->requested_nodes;
  EXPECT_LE(total, 5);
}

TEST(Scheduler, BackfillFillsAroundBlockedHead) {
  // Head needs 8 (blocked); small short job fits idle 4 and finishes
  // before the shadow time -> backfilled.
  Job running = make_job(10, 4, 0.0);
  running.state = JobState::Running;
  running.start_time = 0.0;
  running.spec.time_limit = 100.0;
  running.nodes = {0, 1, 2, 3};

  Job head = make_job(1, 8, 1.0);
  Job small = make_job(2, 4, 2.0);
  small.spec.time_limit = 50.0;  // ends before shadow (t=100)

  ScheduleView view;
  view.now = 10.0;
  view.idle_nodes = 4;
  const Job* const queue[] = {&head, &small};
  view.pending = queue;
  const Job* const running_jobs[] = {&running};
  view.running = running_jobs;
  const auto started = pass(view, SchedulerConfig{});
  ASSERT_EQ(started.size(), 1u);
  EXPECT_EQ(started[0]->id, 2);
}

TEST(Scheduler, BackfillNeverDelaysHead) {
  // A long small job that would still be running at the shadow time and
  // would steal reserved nodes must NOT be backfilled.
  Job running = make_job(10, 4, 0.0);
  running.state = JobState::Running;
  running.start_time = 0.0;
  running.spec.time_limit = 100.0;
  running.nodes = {0, 1, 2, 3};

  Job head = make_job(1, 8, 1.0);
  Job greedy = make_job(2, 4, 2.0);
  greedy.spec.time_limit = 1000.0;  // overlaps the reservation

  ScheduleView view;
  view.now = 10.0;
  view.idle_nodes = 4;
  const Job* const queue[] = {&head, &greedy};
  view.pending = queue;
  const Job* const running_jobs[] = {&running};
  view.running = running_jobs;
  const auto started = pass(view, SchedulerConfig{});
  EXPECT_TRUE(started.empty());
}

TEST(Scheduler, BackfillUsesWindowBeyondHeadNeed) {
  // 12 idle + 4 released at t=100; head needs 14 -> shadow t=100 with
  // extra = 2.  A long 2-node job fits the window and may backfill.
  Job running = make_job(10, 4, 0.0);
  running.state = JobState::Running;
  running.start_time = 0.0;
  running.spec.time_limit = 100.0;
  running.nodes = {0, 1, 2, 3};

  Job head = make_job(1, 14, 1.0);
  Job windowed = make_job(2, 2, 2.0);
  windowed.spec.time_limit = 10000.0;

  ScheduleView view;
  view.now = 10.0;
  view.idle_nodes = 12;
  const Job* const queue[] = {&head, &windowed};
  view.pending = queue;
  const Job* const running_jobs[] = {&running};
  view.running = running_jobs;
  const auto started = pass(view, SchedulerConfig{});
  ASSERT_EQ(started.size(), 1u);
  EXPECT_EQ(started[0]->id, 2);
}

TEST(Scheduler, NoBackfillWhenDisabled) {
  Job running = make_job(10, 4, 0.0);
  running.state = JobState::Running;
  running.start_time = 0.0;
  running.nodes = {0, 1, 2, 3};
  Job head = make_job(1, 8, 1.0);
  Job small = make_job(2, 2, 2.0);
  small.spec.time_limit = 1.0;

  ScheduleView view;
  view.now = 10.0;
  view.idle_nodes = 4;
  const Job* const queue[] = {&head, &small};
  view.pending = queue;
  const Job* const running_jobs[] = {&running};
  view.running = running_jobs;
  SchedulerConfig config;
  config.backfill = false;
  EXPECT_TRUE(pass(view, config).empty());
}

TEST(Scheduler, PriorityOrderRespected) {
  Job low = make_job(1, 4, 0.0);
  Job boosted = make_job(2, 4, 100.0);
  boosted.priority_boost = true;
  ScheduleView view;
  view.now = 200.0;
  view.idle_nodes = 4;
  std::vector<const Job*> queue = {&low, &boosted};
  // The pass reads the queue as given: order it first, as the manager
  // does.
  std::sort(queue.begin(), queue.end(), SubmitOrder{});
  view.pending = queue;
  const SchedulerConfig config;
  const auto started = pass(view, config);
  ASSERT_EQ(started.size(), 1u);
  EXPECT_EQ(started[0]->id, 2);
}

TEST(Scheduler, PassWithZeroIdleNodesStartsNothing) {
  Job running = make_job(10, 8, 0.0);
  running.state = JobState::Running;
  running.start_time = 0.0;
  running.nodes = {0, 1, 2, 3, 4, 5, 6, 7};
  Job a = make_job(1, 4, 1.0);
  Job b = make_job(2, 1, 2.0);
  ScheduleView view;
  view.now = 10.0;
  view.idle_nodes = 0;
  const Job* const queue[] = {&a, &b};
  view.pending = queue;
  const Job* const running_jobs[] = {&running};
  view.running = running_jobs;
  EXPECT_TRUE(pass(view, SchedulerConfig{}).empty());
}

TEST(Scheduler, BackfillNeverDelaysBoostedHead) {
  // A shrink boosted the late 4-node job to the queue head; a greedy
  // long job that would squat on the head's reservation must not start.
  Job running = make_job(10, 4, 0.0);
  running.state = JobState::Running;
  running.start_time = 0.0;
  running.spec.time_limit = 100.0;
  running.nodes = {0, 1, 2, 3};

  Job boosted = make_job(1, 8, 50.0);
  boosted.priority_boost = true;
  Job greedy = make_job(2, 4, 2.0);
  greedy.spec.time_limit = 1000.0;
  Job small = make_job(3, 4, 3.0);
  small.spec.time_limit = 30.0;  // ends before the shadow at t=100

  ScheduleView view;
  view.now = 60.0;
  view.idle_nodes = 4;
  std::vector<const Job*> queue = {&greedy, &boosted, &small};
  const Job* const running_jobs[] = {&running};
  view.running = running_jobs;
  std::sort(queue.begin(), queue.end(), SubmitOrder{});
  view.pending = queue;
  const SchedulerConfig config;
  const auto started = pass(view, config);
  ASSERT_EQ(started.size(), 1u);
  EXPECT_EQ(started[0]->id, 3);
}

TEST(Scheduler, ShadowListsRunningReleasesBeforeThisPassStarts) {
  // The shadow sorts releases by time alone, so tied releases count in
  // the order they are listed: running jobs first, then the jobs this
  // pass started.  Job 10's four nodes and the started job's two free
  // together at t=100.  In that order the head's 8 nodes are free after
  // job 10's release with none to spare, so the long 2-node job must not
  // backfill; listed the other way round, the window would be 2 nodes.
  Job running = make_job(10, 4, 0.0);
  running.state = JobState::Running;
  running.start_time = 0.0;
  running.spec.time_limit = 100.0;
  running.nodes = {0, 1, 2, 3};
  Job quick = make_job(1, 2, 1.0);
  quick.spec.time_limit = 50.0;  // started at t=50, ends with job 10
  Job head = make_job(2, 8, 2.0);
  Job greedy = make_job(3, 2, 3.0);
  greedy.spec.time_limit = 1000.0;

  ScheduleView view;
  view.now = 50.0;
  view.idle_nodes = 6;
  const Job* const queue[] = {&quick, &head, &greedy};
  view.pending = queue;
  const Job* const running_jobs[] = {&running};
  view.running = running_jobs;
  const auto started = pass(view, SchedulerConfig{});
  ASSERT_EQ(started.size(), 1u);
  EXPECT_EQ(started[0]->id, 1);
}

TEST(Scheduler, ShadowTreatsDrainingNodesAsImminentRelease) {
  // Job 10 is shrinking: nodes 2 and 3 drain as soon as the protocol
  // completes, not at start_time + time_limit.
  Job shrinking = make_job(10, 4, 0.0);
  shrinking.state = JobState::Running;
  shrinking.start_time = 0.0;
  shrinking.spec.time_limit = 1000.0;
  shrinking.nodes = {0, 1, 2, 3};

  ScheduleView view;
  view.now = 10.0;
  view.idle_nodes = 0;
  const Job* const running_jobs[] = {&shrinking};
  view.running = running_jobs;
  const std::uint8_t draining[] = {0, 0, 1, 1};
  view.node_draining = draining;
  int extra = -1;
  EXPECT_DOUBLE_EQ(shadow_time(view, 2, &extra), 10.0);
  EXPECT_EQ(extra, 0);
  // The surviving half still releases at the time limit.
  EXPECT_DOUBLE_EQ(shadow_time(view, 4, &extra), 1000.0);
}

TEST(Scheduler, BackfillDoesNotSquatOnDrainReleasedNodes) {
  // 6 nodes: a hog holds 4 (2 draining, long time limit), 2 idle.  The
  // head needs 4 and will get them as soon as the drain completes; a
  // long 2-node job must not grab the idle nodes and delay it.  Before
  // the drain-aware shadow fix the reservation sat at the hog's time
  // limit and the greedy job backfilled.
  Job hog = make_job(10, 4, 0.0);
  hog.state = JobState::Running;
  hog.start_time = 0.0;
  hog.spec.time_limit = 1000.0;
  hog.nodes = {0, 1, 2, 3};

  Job head = make_job(1, 4, 1.0);
  Job greedy = make_job(2, 2, 2.0);
  greedy.spec.time_limit = 500.0;

  ScheduleView view;
  view.now = 10.0;
  view.idle_nodes = 2;
  const Job* const queue[] = {&head, &greedy};
  view.pending = queue;
  const Job* const running_jobs[] = {&hog};
  view.running = running_jobs;
  const std::uint8_t draining[] = {0, 0, 1, 1, 0, 0};
  view.node_draining = draining;
  EXPECT_TRUE(pass(view, SchedulerConfig{}).empty());
}

TEST(Cluster, HeterogeneousPartitions) {
  Cluster cluster({Partition{"fast", 4, 1.0}, Partition{"slow", 2, 0.5}});
  EXPECT_EQ(cluster.size(), 6);
  EXPECT_EQ(cluster.partition_count(), 2);
  EXPECT_EQ(cluster.partition_index("slow"), 1);
  EXPECT_EQ(cluster.partition_index("nope"), kAnyPartition);
  EXPECT_EQ(cluster.node_name(0), "fast0");
  EXPECT_EQ(cluster.node_name(4), "slow0");
  EXPECT_EQ(cluster.idle_in(0), 4);
  EXPECT_EQ(cluster.idle_in(1), 2);
  EXPECT_DOUBLE_EQ(cluster.min_speed({5}), 0.5);
  EXPECT_DOUBLE_EQ(cluster.min_speed({0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(cluster.min_speed({0, 5}), 0.5);
}

TEST(Cluster, RejectsDuplicatePartitionNames) {
  // Node names are "<partition><index>", so a repeated name would repeat
  // node names and merge two partitions' utilization series.
  EXPECT_THROW(Cluster({Partition{"a", 8, 1.0}, Partition{"a", 8, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(Cluster({Partition{"a", 2, 1.0}, Partition{"b", 2, 1.0},
                        Partition{"a", 2, 0.5}}),
               std::invalid_argument);
}

/// The grant Cluster::allocate should commit, read off the owner table
/// node by node: the lowest idle ids the grant may take, partition by
/// partition in pack_partition_order for a spanning Pack grant.
std::vector<int> owner_table_grant(const Cluster& cluster, int count,
                                   int partition, AllocPolicy policy) {
  const auto partition_of = [&](int id) {
    return cluster.node_partitions()[static_cast<std::size_t>(id)];
  };
  std::vector<int> pools = {partition};
  if (partition == kAnyPartition && policy == AllocPolicy::Pack) {
    std::vector<int> idle(static_cast<std::size_t>(cluster.partition_count()));
    for (int id = 0; id < cluster.size(); ++id) {
      if (cluster.node(id).owner == kInvalidJob) {
        ++idle[static_cast<std::size_t>(partition_of(id))];
      }
    }
    pools = pack_partition_order(idle, count);
  }
  std::vector<int> grant;
  for (int pool : pools) {
    for (int id = 0; id < cluster.size(); ++id) {
      if (static_cast<int>(grant.size()) == count) break;
      if (cluster.node(id).owner == kInvalidJob &&
          (pool == kAnyPartition || partition_of(id) == pool)) {
        grant.push_back(id);
      }
    }
  }
  return grant;
}

TEST(Cluster, AllocateGrantsWhatTheOwnerTableGives) {
  // Seeded allocate/release churn on three uneven partitions (one spans
  // a 64-node bitmap word boundary), both policies, pinned and spanning
  // grants.  grant_order walks the idle bitmap; the reference walks the
  // owner table.
  Cluster cluster({Partition{"a", 5, 1.0}, Partition{"b", 70, 1.0},
                   Partition{"c", 9, 0.5}});
  std::vector<std::pair<JobId, std::vector<int>>> held;
  JobId next_job = 1;
  std::uint64_t state = 12345;
  const auto draw = [&state](int bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int>((state >> 33) % static_cast<std::uint64_t>(bound));
  };
  int grants = 0;
  for (int op = 0; op < 2000; ++op) {
    if (!held.empty() && draw(2) == 0) {
      const auto victim =
          static_cast<std::size_t>(draw(static_cast<int>(held.size())));
      cluster.release(held[victim].first, held[victim].second);
      held[victim] = std::move(held.back());
      held.pop_back();
      continue;
    }
    const int partition = draw(4) - 1;  // kAnyPartition, a, b or c
    const AllocPolicy policy =
        draw(2) == 0 ? AllocPolicy::LowestId : AllocPolicy::Pack;
    const int available = partition == kAnyPartition
                              ? cluster.idle()
                              : cluster.idle_in(partition);
    if (available == 0) continue;
    const int count = 1 + draw(std::min(available, 12));
    const std::vector<int> expected =
        owner_table_grant(cluster, count, partition, policy);
    const JobId job = next_job++;
    held.emplace_back(job, cluster.allocate(job, count, partition, policy));
    EXPECT_EQ(held.back().second, expected) << "op " << op;
    ++grants;
  }
  EXPECT_GT(grants, 500);
}

TEST(Cluster, PartitionConstrainedAllocation) {
  Cluster cluster({Partition{"fast", 4, 1.0}, Partition{"slow", 2, 0.5}});
  const auto slow = cluster.allocate(1, 2, 1);
  EXPECT_EQ(slow, (std::vector<int>{4, 5}));
  EXPECT_EQ(cluster.idle_in(1), 0);
  EXPECT_EQ(cluster.idle(), 4);
  EXPECT_THROW(cluster.allocate(2, 1, 1), std::runtime_error);
  // Unconstrained allocation draws from the remaining partition.
  const auto any = cluster.allocate(2, 3, kAnyPartition);
  EXPECT_EQ(any, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(cluster.idle_in(0), 1);
  cluster.release(1, slow);
  EXPECT_EQ(cluster.idle_in(1), 2);
}

TEST(Cluster, DrainingCountTracksFlags) {
  Cluster cluster(4);
  const auto nodes = cluster.allocate(1, 3);
  EXPECT_EQ(cluster.draining_count(), 0);
  cluster.set_draining({nodes[0], nodes[1]}, true);
  cluster.set_draining({nodes[1]}, true);  // idempotent
  EXPECT_EQ(cluster.draining_count(), 2);
  const auto& flags = cluster.node_draining();
  EXPECT_EQ(flags[0], 1);
  EXPECT_EQ(flags[2], 0);
  cluster.release(1, {nodes[0]});
  EXPECT_EQ(cluster.draining_count(), 1);
  cluster.set_draining({nodes[1]}, false);
  EXPECT_EQ(cluster.draining_count(), 0);
}

/// The tables a heterogeneous view reads: 4 fast nodes (0-3) and 2 slow
/// nodes (4-5), of which `idle` are idle.
struct FastSlowTables {
  static constexpr int kNodePartition[] = {0, 0, 0, 0, 1, 1};
  int idle_nodes = 0;
  int idle_per_partition[2] = {0, 0};
  std::uint64_t idle_bits = 0;

  explicit FastSlowTables(std::initializer_list<int> idle) {
    for (int id : idle) {
      ++idle_nodes;
      ++idle_per_partition[kNodePartition[id]];
      idle_bits |= std::uint64_t(1) << id;
    }
  }

  ScheduleView view(double now) const {
    ScheduleView view;
    view.now = now;
    view.idle_nodes = idle_nodes;
    view.node_partition = kNodePartition;
    view.idle_per_partition = idle_per_partition;
    view.idle_bits = {&idle_bits, 1};
    return view;
  }
};

TEST(Scheduler, PartitionConstrainedJobWaitsForItsPartition) {
  // The slow partition only has 2 nodes: a 3-node job pinned there must
  // not start even though the cluster has 6 idle nodes overall.
  Job pinned = make_job(1, 3, 0.0);
  pinned.partition = 1;
  const FastSlowTables tables({0, 1, 2, 3, 4, 5});
  ScheduleView view = tables.view(10.0);
  const Job* const queue[] = {&pinned};
  view.pending = queue;
  EXPECT_TRUE(pass(view, SchedulerConfig{}).empty());
}

TEST(Scheduler, DisjointPartitionBackfillsPastBlockedHead) {
  // Head pinned to the full fast partition; a job pinned to the slow
  // partition cannot delay it and starts immediately, however long it
  // runs.
  Job hog = make_job(10, 4, 0.0);
  hog.state = JobState::Running;
  hog.start_time = 0.0;
  hog.spec.time_limit = 100.0;
  hog.nodes = {0, 1, 2, 3};
  hog.partition = 0;

  Job head = make_job(1, 4, 1.0);
  head.partition = 0;
  Job other = make_job(2, 2, 2.0);
  other.partition = 1;
  other.spec.time_limit = 100000.0;

  const FastSlowTables tables({4, 5});
  ScheduleView view = tables.view(10.0);
  const Job* const queue[] = {&head, &other};
  view.pending = queue;
  const Job* const running_jobs[] = {&hog};
  view.running = running_jobs;
  const auto started = pass(view, SchedulerConfig{});
  ASSERT_EQ(started.size(), 1u);
  EXPECT_EQ(started[0]->id, 2);
}

TEST(Scheduler, SpanningJobChargedAgainstHeadPoolWindow) {
  // Head pinned to fast (all 4 busy until t=100); an unconstrained long
  // 2-node job would take slow nodes first (lowest ids available are
  // slow here) — it only overlaps the head's pool if it draws fast
  // nodes.  With the fast partition fully busy and idle nodes only in
  // slow, the overlap is zero and the job may start.
  Job hog = make_job(10, 4, 0.0);
  hog.state = JobState::Running;
  hog.start_time = 0.0;
  hog.spec.time_limit = 100.0;
  hog.nodes = {0, 1, 2, 3};
  hog.partition = 0;

  Job head = make_job(1, 2, 1.0);
  head.partition = 0;
  Job spanning = make_job(2, 2, 2.0);
  spanning.spec.time_limit = 100000.0;  // far past the shadow

  const FastSlowTables tables({4, 5});
  ScheduleView view = tables.view(10.0);
  const Job* const queue[] = {&head, &spanning};
  view.pending = queue;
  const Job* const running_jobs[] = {&hog};
  view.running = running_jobs;
  const auto started = pass(view, SchedulerConfig{});
  ASSERT_EQ(started.size(), 1u);
  EXPECT_EQ(started[0]->id, 2);
}

TEST(Scheduler, ShadowTimePerPool) {
  // Fast pool: hog releases 4 at t=100.  Slow pool: free already.
  Job hog = make_job(10, 4, 0.0);
  hog.state = JobState::Running;
  hog.start_time = 0.0;
  hog.spec.time_limit = 100.0;
  hog.nodes = {0, 1, 2, 3};
  hog.partition = 0;

  const FastSlowTables tables({4, 5});
  ScheduleView view = tables.view(10.0);
  const Job* const running_jobs[] = {&hog};
  view.running = running_jobs;
  int extra = -1;
  EXPECT_DOUBLE_EQ(shadow_time(view, 4, &extra, /*pool=*/0), 100.0);
  EXPECT_EQ(extra, 0);
  EXPECT_DOUBLE_EQ(shadow_time(view, 2, &extra, /*pool=*/1), 10.0);
  EXPECT_TRUE(std::isinf(shadow_time(view, 3, &extra, /*pool=*/1)));
}

TEST(Cluster, PackAllocationPicksBestFitPartition) {
  Cluster cluster({Partition{"a", 4, 1.0}, Partition{"b", 2, 1.0},
                   Partition{"c", 8, 1.0}});
  constexpr AllocPolicy kPack = AllocPolicy::Pack;
  // 2 nodes fit whole into the fullest partition that holds them: b.
  EXPECT_EQ(cluster.allocate(1, 2, kAnyPartition, kPack),
            (std::vector<int>{4, 5}));
  // 3 nodes now best-fit a (4 idle beats c's 8).
  EXPECT_EQ(cluster.allocate(2, 3, kAnyPartition, kPack),
            (std::vector<int>{0, 1, 2}));
  // 9 nodes fit nowhere whole: span descending idle — c (8), then a (1).
  EXPECT_EQ(cluster.allocate(3, 9, kAnyPartition, kPack),
            (std::vector<int>{6, 7, 8, 9, 10, 11, 12, 13, 3}));
}

TEST(Cluster, PackKeepsWholePartitionsFreeForPinnedJobs) {
  // LowestId fragments: a 2-node spanning grant takes fast0/fast1, so a
  // later 4-node fast-pinned job cannot start.
  Cluster fragmented({Partition{"fast", 4, 1.0}, Partition{"slow", 2, 0.5}});
  EXPECT_EQ(fragmented.allocate(1, 2), (std::vector<int>{0, 1}));
  EXPECT_THROW(fragmented.allocate(2, 4, 0), std::runtime_error);
  // Pack routes the spanning grant into the slow pair instead.
  Cluster packed({Partition{"fast", 4, 1.0}, Partition{"slow", 2, 0.5}});
  EXPECT_EQ(packed.allocate(1, 2, kAnyPartition, AllocPolicy::Pack),
            (std::vector<int>{4, 5}));
  EXPECT_EQ(packed.allocate(2, 4, 0, AllocPolicy::Pack),
            (std::vector<int>{0, 1, 2, 3}));
}

TEST(Cluster, PackConstrainedGrantsUnchanged) {
  Cluster cluster({Partition{"fast", 4, 1.0}, Partition{"slow", 2, 0.5}});
  EXPECT_EQ(cluster.allocate(1, 2, 0, AllocPolicy::Pack),
            (std::vector<int>{0, 1}));
}

TEST(Scheduler, PackPolicyLetsPinnedJobStartBehindSpanningOne) {
  // fast(4)/slow(2), all idle.  A 2-node spanning job followed by a
  // 4-node fast-pinned job: under LowestId the spanning job fragments
  // the fast partition and blocks the pinned head; under Pack it takes
  // the slow pair (mirroring the cluster's grant) and both start.
  Job spanning = make_job(1, 2, 0.0);
  Job pinned = make_job(2, 4, 1.0);
  pinned.partition = 0;

  const FastSlowTables tables({0, 1, 2, 3, 4, 5});
  const Job* const queue[] = {&spanning, &pinned};
  ScheduleView view = tables.view(10.0);
  view.pending = queue;
  EXPECT_EQ(pass(view, SchedulerConfig{}).size(), 1u);

  SchedulerConfig pack_config;
  pack_config.alloc = AllocPolicy::Pack;
  const auto started = pass(view, pack_config);
  ASSERT_EQ(started.size(), 2u);
  EXPECT_EQ(started[0]->id, 1);
  EXPECT_EQ(started[1]->id, 2);
}

TEST(Scheduler, ShadowTimeComputation) {
  Job r1 = make_job(1, 4, 0.0);
  r1.state = JobState::Running;
  r1.start_time = 0.0;
  r1.spec.time_limit = 50.0;
  r1.nodes = {0, 1, 2, 3};
  Job r2 = make_job(2, 4, 0.0);
  r2.state = JobState::Running;
  r2.start_time = 0.0;
  r2.spec.time_limit = 80.0;
  r2.nodes = {4, 5, 6, 7};

  ScheduleView view;
  view.now = 10.0;
  view.idle_nodes = 2;
  const Job* const running_jobs[] = {&r1, &r2};
  view.running = running_jobs;
  int extra = -1;
  EXPECT_DOUBLE_EQ(shadow_time(view, 6, &extra), 50.0);
  EXPECT_EQ(extra, 0);
  EXPECT_DOUBLE_EQ(shadow_time(view, 8, &extra), 80.0);
  EXPECT_EQ(extra, 2);
  EXPECT_TRUE(std::isinf(shadow_time(view, 100, &extra)));
}

}  // namespace
