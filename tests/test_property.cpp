// Property tests: system invariants under randomized operation sequences
// and parameter sweeps.
//
//  - Manager fuzz: any interleaving of submit / schedule / finish /
//    cancel / dmr_check / complete_shrink preserves cluster accounting
//    (no node owned twice, idle + allocated == total, job states sane),
//    and the pending queue the manager keeps ordered reads exactly as a
//    fresh sort by SubmitOrder would, under several submission mixes.
//  - Pass reference: on 1-, 2- and 3-partition clusters under both
//    allocation policies, the scheduling pass that reads the live tables
//    in place starts, diagnoses and shadows exactly as the copying pass
//    it replaced (kept here verbatim) does on a copy of the same state,
//    at every pass of manager streams and on hand-built views whose
//    releases tie.
//  - Driver seed sweep: for every seed, the flexible run of a workload
//    is deterministic and its makespan never exceeds the fixed run's by
//    more than the reconfiguration overhead bound.
//  - Time scaling: multiplying every arrival and runtime of a rigid
//    workload by a power of two multiplies every time in the job table
//    by exactly that factor and moves no count, on one cluster and on a
//    federation.
//  - smpi fuzz: a random message storm between N ranks delivers every
//    message exactly once with per-pair FIFO order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string>
#include <tuple>

#include "apps/models.hpp"
#include "drv/plan.hpp"
#include "drv/workload_driver.hpp"
#include "fed/member_mix.hpp"
#include "rms/manager.hpp"
#include "smpi/universe.hpp"
#include "util/rng.hpp"
#include "wl/feitelson.hpp"

namespace {

using namespace dmr;
using namespace dmr::rms;

// --- Manager fuzz ------------------------------------------------------------

void check_invariants(const Manager& manager, int cluster_nodes) {
  // Every node is owned by at most one job, and the books balance.
  std::set<int> owned;
  int allocated = 0;
  for (const Job* job : manager.jobs()) {
    if (!job->running()) {
      EXPECT_TRUE(job->nodes.empty())
          << "job " << job->id << " holds nodes while "
          << to_string(job->state);
      continue;
    }
    for (int node : job->nodes) {
      EXPECT_TRUE(owned.insert(node).second)
          << "node " << node << " owned twice";
      EXPECT_EQ(manager.cluster().node(node).owner, job->id);
    }
    allocated += job->allocated();
    EXPECT_GE(job->allocated(), 1);
    EXPECT_LE(job->allocated(), cluster_nodes);
  }
  EXPECT_LE(allocated, cluster_nodes);
  EXPECT_GE(manager.idle_nodes(), 0);
  // Between public calls the expand protocol has resolved every resizer
  // (harvested or cancelled), so none is queued or running.
  for (const Job* job : manager.pending_queue()) {
    EXPECT_FALSE(job->resizer) << "resizer " << job->id << " pending";
  }
  for (const Job* job : manager.running_list()) {
    EXPECT_FALSE(job->resizer) << "resizer " << job->id << " running";
  }
  // Timing sanity for finished jobs.
  for (const Job* job : manager.jobs()) {
    if (job->state == JobState::Completed) {
      EXPECT_GE(job->wait_time(), 0.0);
      EXPECT_GE(job->execution_time(), 0.0);
      EXPECT_DOUBLE_EQ(job->completion_time(),
                       job->wait_time() + job->execution_time());
    }
  }
}

/// Checks, at every point the manager reads its pending queue (a
/// scheduling pass begins, Algorithm 1 negotiates) and whenever the test
/// asks, that the queue it reads equals a fresh sort of the same jobs by
/// SubmitOrder.
struct QueueOrderCheck final : obs::Sink {
  /// Every user job submitted.
  std::vector<JobId> ids;
  /// The resizer from its submission to its end: its id resolves only
  /// inside its expand protocol.
  JobId resizer = kInvalidJob;

  obs::Interest interest() const override {
    return obs::kinds(obs::EventKind::kSubmitted, obs::EventKind::kFinished,
                      obs::EventKind::kPassBegin,
                      obs::EventKind::kNegotiateBegin);
  }
  void on_event(const obs::Event& event) override {
    const bool is_resizer =
        event.job != kInvalidJob && event.manager->job(event.job).resizer;
    if (event.kind == obs::EventKind::kSubmitted) {
      if (is_resizer) {
        resizer = event.job;
      } else {
        ids.push_back(event.job);
      }
      return;
    }
    if (event.kind == obs::EventKind::kFinished) {
      if (is_resizer) resizer = kInvalidJob;
      return;
    }
    check(*event.manager, event.now, event.kind == obs::EventKind::kPassBegin);
  }

  /// A pass may find the resizer queued; Algorithm 1 never does.
  void check(const Manager& manager, double now, bool pass) const {
    std::vector<const Job*> expected;
    for (JobId id : ids) {
      const Job& job = manager.job(id);
      if (job.pending()) expected.push_back(&job);
    }
    if (pass && resizer != kInvalidJob && manager.job(resizer).pending()) {
      expected.push_back(&manager.job(resizer));
    }
    std::sort(expected.begin(), expected.end(), SubmitOrder{});
    const std::span<const Job* const> read = manager.pending_queue();
    EXPECT_EQ(ids_of(read), ids_of(expected))
        << (pass ? "pass" : "policy") << " queue at t=" << now;
    if (!pass) {
      for (const Job* job : read) {
        EXPECT_FALSE(job->resizer) << "policy queue at t=" << now;
      }
    }
  }

  static std::vector<JobId> ids_of(std::span<const Job* const> jobs) {
    std::vector<JobId> out;
    for (const Job* job : jobs) out.push_back(job->id);
    return out;
  }
};

/// One fuzz configuration: how often a submission takes an unusual
/// shape.  Probabilities of 0 draw nothing from the generator, so
/// "default" replays the original fuzz streams.
struct FuzzConfig {
  const char* name;
  /// Submissions stamped up to 50 s in the past.
  double backdated = 0.0;
  double moldable = 0.2;
};

void PrintTo(const FuzzConfig& config, std::ostream* out) {
  *out << config.name;
}

const FuzzConfig kFuzzConfigs[] = {
    {.name = "default"},
    // A back-dated submission lands inside the queue rather than at its
    // end.
    {.name = "backdated", .backdated = 0.2},
    // Molded heads change requested_nodes while other jobs wait.
    {.name = "moldable", .moldable = 0.6},
};

using FuzzCase = std::tuple<FuzzConfig, std::uint64_t>;

class ManagerFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(ManagerFuzz, InvariantsHoldUnderRandomOperations) {
  constexpr int kNodes = 16;
  const auto& [fuzz, seed] = GetParam();
  Manager manager(RmsConfig{.nodes = kNodes, .scheduler = {}});
  QueueOrderCheck order;
  manager.attach(order);
  util::Rng rng(seed);
  double now = 0.0;
  std::vector<JobId> live;
  std::map<JobId, bool> draining;

  for (int op = 0; op < 400; ++op) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " op " << op);
    now += rng.exponential_mean(5.0);
    const double dice = rng.uniform();
    if (dice < 0.35 || live.empty()) {
      JobSpec spec;
      spec.name = "fuzz" + std::to_string(op);
      spec.requested_nodes =
          static_cast<int>(rng.uniform_int(1, kNodes));
      spec.min_nodes = 1;
      spec.flexible = rng.bernoulli(0.7);
      spec.moldable = rng.bernoulli(fuzz.moldable);
      spec.time_limit = rng.uniform(10.0, 500.0);
      double at = now;
      if (fuzz.backdated > 0.0 && rng.bernoulli(fuzz.backdated)) {
        at -= rng.uniform(0.0, 50.0);
      }
      live.push_back(manager.submit(spec, at));
      manager.schedule(now);
    } else {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const JobId id = live[pick];
      const Job& job = manager.job(id);
      if (job.finished()) {
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        draining.erase(id);
      } else if (draining.count(id) != 0) {
        manager.complete_shrink(id, now);
        draining.erase(id);
      } else if (job.pending()) {
        if (rng.bernoulli(0.3)) manager.cancel(id, now);
      } else if (job.running()) {
        const double action = rng.uniform();
        if (action < 0.4) {
          manager.job_finished(id, now);
        } else if (action < 0.5) {
          manager.cancel(id, now);
        } else {
          Request request;
          request.min_procs = 1;
          request.max_procs = kNodes;
          request.preferred =
              rng.bernoulli(0.5)
                  ? static_cast<int>(rng.uniform_int(1, kNodes))
                  : 0;
          const Outcome outcome = manager.dmr_check(id, request, now);
          if (outcome.action == Action::Shrink) draining[id] = true;
        }
      }
    }
    check_invariants(manager, kNodes);
    order.check(manager, now, /*pass=*/true);
    order.check(manager, now, /*pass=*/false);
  }

  // Drain everything; the system must wind down cleanly.
  for (JobId id : live) {
    const Job& job = manager.job(id);
    if (job.finished()) continue;
    if (draining.count(id) != 0) manager.complete_shrink(id, now);
    manager.cancel(id, now);
  }
  check_invariants(manager, kNodes);
  EXPECT_EQ(manager.idle_nodes(), kNodes);
  EXPECT_TRUE(manager.all_done());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ManagerFuzz,
    ::testing::Combine(::testing::ValuesIn(kFuzzConfigs),
                       ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89)),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             std::to_string(std::get<1>(info.param));
    });

// --- Scheduler pass: in place against the copying reference ---------------

/// The pass as it was when it read copies, kept verbatim as the reference
/// the in-place pass must match decision for decision: its view owned a
/// copy of the running list and of the draining, partition and idle
/// tables, its IdlePool predicted grants by a second walk over a sorted
/// idle-id list rebuilt on every start, and it built a post-pass view
/// with a synthetic Job copy per start.
namespace copying {

struct ScheduleView {
  double now = 0.0;
  int idle_nodes = 0;
  std::span<const Job* const> pending;
  std::vector<const Job*> running;
  std::vector<std::uint8_t> node_draining;
  std::vector<int> node_partition;
  std::vector<int> idle_per_partition;
  std::vector<int> idle_node_ids;

  bool heterogeneous() const { return !idle_per_partition.empty(); }
};

/// Synthetic node id used for jobs the pass just decided to start on a
/// homogeneous cluster (their concrete ids are unknown until the cluster
/// grants them).  Freshly granted nodes are never draining and belong to
/// every pool of interest there.
constexpr int kSyntheticNode = -1;

/// Mutable idle bookkeeping shared by the FCFS and backfill phases.  In
/// heterogeneous mode it mirrors the cluster's lowest-id-first grant
/// order so per-partition idle counts stay exact as jobs are picked.
struct IdlePool {
  const ScheduleView* view;
  AllocPolicy policy;
  int idle_total;
  std::vector<int> idle_parts;  // empty = homogeneous
  std::vector<int> idle_ids;    // empty = homogeneous

  IdlePool(const ScheduleView& v, AllocPolicy alloc)
      : view(&v),
        policy(alloc),
        idle_total(v.idle_nodes),
        idle_parts(v.idle_per_partition),
        idle_ids(v.idle_node_ids) {}

  bool heterogeneous() const { return !idle_parts.empty(); }

  bool eligible(int node_id, int partition) const {
    return partition < 0 ||
           view->node_partition[static_cast<std::size_t>(node_id)] ==
               partition;
  }

  int partition_of(int node_id) const {
    return view->node_partition[static_cast<std::size_t>(node_id)];
  }

  int available_for(const Job& job) const {
    if (!heterogeneous() || job.partition < 0) return idle_total;
    return idle_parts[static_cast<std::size_t>(job.partition)];
  }

  bool fits(const Job& job) const {
    return job.requested_nodes > 0 && job.requested_nodes <= available_for(job);
  }

  /// The ids the cluster would grant the job right now, in grant order
  /// (heterogeneous mode only).  Mirrors Cluster::allocate: constrained
  /// and LowestId grants take the first eligible ids; Pack spanning
  /// grants take whole partitions in Cluster::pack_partition_order.
  std::vector<int> plan_take(const Job& job) const {
    std::vector<int> taken;
    taken.reserve(static_cast<std::size_t>(job.requested_nodes));
    int remaining = job.requested_nodes;
    if (policy == AllocPolicy::Pack && job.partition < 0) {
      // The shared rms::pack_partition_order over this pool's decremented
      // idle counts reproduces the cluster's grant exactly.
      for (int pool : pack_partition_order(idle_parts, job.requested_nodes)) {
        for (int id : idle_ids) {
          if (remaining == 0) break;
          if (partition_of(id) != pool) continue;
          taken.push_back(id);
          --remaining;
        }
        if (remaining == 0) break;
      }
      return taken;
    }
    for (int id : idle_ids) {
      if (remaining == 0) break;
      if (!eligible(id, job.partition)) continue;
      taken.push_back(id);
      --remaining;
    }
    return taken;
  }

  /// Nodes the job would take from `partition`, without committing.
  int count_take_in(const Job& job, int partition) const {
    if (!heterogeneous()) return job.requested_nodes;
    int in_partition = 0;
    for (int id : plan_take(job)) {
      if (partition_of(id) == partition) ++in_partition;
    }
    return in_partition;
  }

  /// Commit the grant; returns the taken node ids (empty in homogeneous
  /// mode, where concrete ids are unknown to the pass).
  std::vector<int> take(const Job& job) {
    idle_total -= job.requested_nodes;
    if (!heterogeneous()) return {};
    std::vector<int> taken = plan_take(job);
    for (int id : taken) {
      --idle_parts[static_cast<std::size_t>(partition_of(id))];
    }
    std::vector<int> kept;
    kept.reserve(idle_ids.size());
    for (int id : idle_ids) {
      if (std::find(taken.begin(), taken.end(), id) == taken.end()) {
        kept.push_back(id);
      }
    }
    idle_ids.swap(kept);
    return taken;
  }
};

/// Walk every running job's expected releases of nodes in `pool` (a
/// partition, or -1 for the whole cluster), calling
/// emit(time, job, nodes, draining) for each, and return the nodes
/// already idle there.  A job releases its draining nodes at `now` (the
/// shrink drain completes imminently, well before the time limit) and
/// the rest of its allocation at start_time + time_limit.
template <typename Emit>
int walk_releases(const ScheduleView& view, int pool, Emit&& emit) {
  const bool pooled = pool >= 0 && view.heterogeneous();
  const auto in_pool = [&](int node_id) {
    if (!pooled) return true;
    return node_id >= 0 &&
           view.node_partition[static_cast<std::size_t>(node_id)] == pool;
  };
  const auto is_draining = [&](int node_id) {
    return node_id >= 0 && !view.node_draining.empty() &&
           view.node_draining[static_cast<std::size_t>(node_id)] != 0;
  };
  // Homogeneous cluster with nothing draining: every allocated node is
  // in the pool and none releases early, so the per-node walk (paid per
  // running job per shadow evaluation) collapses to the allocation size.
  const bool count_only = !pooled && view.node_draining.empty();
  for (const Job* job : view.running) {
    int pool_nodes = 0;
    int draining = 0;
    if (count_only) {
      pool_nodes = static_cast<int>(job->nodes.size());
    } else {
      for (int node_id : job->nodes) {
        if (!in_pool(node_id)) continue;
        ++pool_nodes;
        if (is_draining(node_id)) ++draining;
      }
    }
    if (draining > 0) emit(view.now, *job, draining, true);
    if (pool_nodes - draining > 0) {
      emit(std::max(view.now, job->start_time + job->spec.time_limit), *job,
           pool_nodes - draining, false);
    }
  }
  return pooled ? view.idle_per_partition[static_cast<std::size_t>(pool)]
                : view.idle_nodes;
}

/// The running job whose expected release would cross the `needed`
/// threshold (for BlockDiag attribution), found by the same release
/// accumulation shadow_time performs.
struct CriticalRelease {
  const Job* owner = nullptr;
  /// True when the crossing release is a draining-node release (at
  /// `now`), i.e. the blocker is a job shrinking on the waiter's behalf.
  bool draining = false;
};

CriticalRelease blocking_release(const ScheduleView& view, int needed,
                                 int pool) {
  struct Release {
    double time;
    JobId id;
    const Job* owner;
    int nodes;
    bool draining;
  };
  std::vector<Release> releases;
  releases.reserve(view.running.size() * 2);
  int free_nodes = walk_releases(
      view, pool, [&](double time, const Job& job, int nodes, bool draining) {
        releases.push_back(Release{time, job.id, &job, nodes, draining});
      });
  if (free_nodes >= needed) return {};
  // Ties break by job id so the named blocker is deterministic.
  std::sort(releases.begin(), releases.end(),
            [](const Release& a, const Release& b) {
              return a.time != b.time ? a.time < b.time : a.id < b.id;
            });
  for (const Release& release : releases) {
    free_nodes += release.nodes;
    if (free_nodes >= needed) {
      return CriticalRelease{release.owner, release.draining};
    }
  }
  return {};
}

double shadow_time(const ScheduleView& view, int needed, int* extra_nodes,
                   int pool) {
  // Accumulate expected releases in time order until the requirement is
  // met.
  struct Release {
    double time;
    int nodes;
  };
  // Scratch kept across calls — one shadow evaluation per blocked pass,
  // each rebuilding the release schedule from the running set.
  static thread_local std::vector<Release> releases;
  releases.clear();
  releases.reserve(view.running.size() * 2);
  int free_nodes =
      walk_releases(view, pool, [](double time, const Job&, int nodes, bool) {
        releases.push_back(Release{time, nodes});
      });
  if (free_nodes >= needed) {
    if (extra_nodes != nullptr) *extra_nodes = free_nodes - needed;
    return view.now;
  }
  std::sort(releases.begin(), releases.end(),
            [](const Release& a, const Release& b) { return a.time < b.time; });
  for (const Release& release : releases) {
    free_nodes += release.nodes;
    if (free_nodes >= needed) {
      if (extra_nodes != nullptr) *extra_nodes = free_nodes - needed;
      return release.time;
    }
  }
  if (extra_nodes != nullptr) *extra_nodes = 0;
  return std::numeric_limits<double>::infinity();
}

std::vector<const Job*> schedule_pass(const ScheduleView& view,
                                      const SchedulerConfig& config,
                                      std::vector<BlockDiag>* blocked) {
  const std::span<const Job* const> queue = view.pending;  // in SubmitOrder

  std::vector<const Job*> started;
  IdlePool pool(view, config.alloc);
  // Node ids granted to each started job (synthetic on a homogeneous
  // cluster), for the shadow and diagnosis computations below.  This and
  // the post-pass view below are scratch kept across passes: a pass runs
  // after nearly every submission, start and resize.
  static thread_local std::vector<std::vector<int>> granted;
  granted.clear();

  // Start jobs FCFS until the head no longer fits.
  std::size_t head = 0;
  while (head < queue.size() && pool.fits(*queue[head])) {
    granted.push_back(pool.take(*queue[head]));
    started.push_back(queue[head]);
    ++head;
  }
  if (head >= queue.size() || (!config.backfill && blocked == nullptr)) {
    return started;
  }

  // The view after the starts so far: the pool's remaining idle counts,
  // and every job started this pass treated as running from `now` (its
  // end is known only through its limit).  `synthetic` owns the copies
  // the view's running list points into, so each call invalidates the
  // view the previous one returned.
  static thread_local ScheduleView after;
  static thread_local std::vector<Job> synthetic;
  auto post_pass_view = [&]() -> const ScheduleView& {
    after = view;
    after.idle_nodes = pool.idle_total;
    after.idle_per_partition = pool.idle_parts;
    after.idle_node_ids = pool.idle_ids;
    synthetic.resize(started.size());
    for (std::size_t i = 0; i < started.size(); ++i) {
      Job& copy = synthetic[i];
      copy = *started[i];
      copy.start_time = view.now;
      if (granted[i].empty()) {
        copy.nodes.assign(static_cast<std::size_t>(copy.requested_nodes),
                          kSyntheticNode);
      } else {
        copy.nodes = granted[i];
      }
    }
    for (const Job& job : synthetic) after.running.push_back(&job);
    return after;
  };

  const Job* head_job = queue[head];
  if (config.backfill) {
    // EASY reservation for the blocked head job, computed in the head's
    // eligible pool (its partition, or the whole cluster when
    // unconstrained), against the post-start view: jobs we just chose to
    // start have unknown end times only through their limits, so they
    // count as running from `now`.
    const int head_pool = view.heterogeneous() ? head_job->partition : -1;
    const ScheduleView& shadow_view = post_pass_view();
    int extra_at_shadow = 0;
    const double shadow = shadow_time(shadow_view, head_job->requested_nodes,
                                      &extra_at_shadow, head_pool);

    // Backfill: later jobs may start now if they fit and cannot delay the
    // head — they complete before the shadow time, draw from a partition
    // disjoint from the head's pool, or take no more of the head's pool
    // than the backfill window (the nodes beyond the head's need free at
    // the shadow time).
    int backfill_window = extra_at_shadow;
    for (std::size_t i = head + 1; i < queue.size(); ++i) {
      const Job* job = queue[i];
      if (!pool.fits(*job)) continue;
      const bool disjoint = head_pool >= 0 && job->partition >= 0 &&
                            job->partition != head_pool;
      const bool ends_before_shadow =
          view.now + job->spec.time_limit <= shadow;
      if (disjoint || ends_before_shadow) {
        granted.push_back(pool.take(*job));
        started.push_back(job);
        continue;
      }
      // Nodes this job would take from the head's contended pool.
      const int overlap = head_pool >= 0 ? pool.count_take_in(*job, head_pool)
                                         : job->requested_nodes;
      if (overlap > backfill_window) continue;
      granted.push_back(pool.take(*job));
      backfill_window -= overlap;
      started.push_back(job);
    }
  }

  if (blocked != nullptr) {
    // Diagnose every job still pending against the post-pass state (the
    // same convention as the shadow computation).
    const ScheduleView& diag_view = post_pass_view();

    for (std::size_t i = head; i < queue.size(); ++i) {
      const Job* job = queue[i];
      if (std::find(started.begin(), started.end(), job) != started.end()) {
        continue;
      }
      BlockDiag diag;
      diag.job = job;
      if (job != head_job && pool.fits(*job)) {
        // Fits right now but may not start: held by the EASY reservation
        // protecting the queue head (with backfill off, plain FCFS hold
        // behind the head — the degenerate whole-pool reservation).
        diag.cause = obs::BlockReason::kEasyReservation;
        diag.blocker = head_job->id;
      } else {
        const int job_pool = view.heterogeneous() ? job->partition : -1;
        const CriticalRelease crit =
            blocking_release(diag_view, job->requested_nodes, job_pool);
        if (job_pool >= 0 && pool.idle_total >= job->requested_nodes) {
          // The cluster could hold it; the pinned partition cannot.
          diag.cause = obs::BlockReason::kPartitionPinned;
          diag.blocker = crit.owner != nullptr ? crit.owner->id : 0;
        } else if (crit.owner != nullptr && crit.draining) {
          // Unblocked by an in-progress drain: a boosted waiter is the
          // job the shrink was started for (Algorithm 1 line 18).
          diag.cause = job->priority_boost
                           ? obs::BlockReason::kShrinkPending
                           : obs::BlockReason::kDrainingWait;
          diag.blocker = crit.owner->id;
        } else {
          diag.cause = obs::BlockReason::kInsufficientIdle;
          diag.blocker = crit.owner != nullptr ? crit.owner->id : 0;
        }
      }
      blocked->push_back(diag);
    }
  }
  return started;
}

/// The view Manager::schedule built before the pass read the tables in
/// place; idle ids come from the owner table.
ScheduleView copy_view(const Cluster& cluster,
                       std::span<const Job* const> running,
                       std::span<const Job* const> pending, double now) {
  ScheduleView view;
  view.now = now;
  view.idle_nodes = cluster.idle();
  view.pending = pending;
  view.running.assign(running.begin(), running.end());
  if (cluster.draining_count() > 0) {
    for (int id = 0; id < cluster.size(); ++id) {
      view.node_draining.push_back(cluster.draining(id) ? 1 : 0);
    }
  }
  if (cluster.partition_count() > 1) {
    view.node_partition = cluster.node_partitions();
    for (int p = 0; p < cluster.partition_count(); ++p) {
      view.idle_per_partition.push_back(cluster.idle_in(p));
    }
    for (int id = 0; id < cluster.size(); ++id) {
      if (cluster.node(id).owner == kInvalidJob) {
        view.idle_node_ids.push_back(id);
      }
    }
  }
  return view;
}

}  // namespace copying

std::vector<JobId> started_ids(const std::vector<const Job*>& started) {
  std::vector<JobId> ids;
  for (const Job* job : started) ids.push_back(job->id);
  return ids;
}

std::vector<std::tuple<JobId, obs::BlockReason, JobId>> diagnoses(
    const std::vector<BlockDiag>& blocked) {
  std::vector<std::tuple<JobId, obs::BlockReason, JobId>> out;
  for (const BlockDiag& diag : blocked) {
    out.emplace_back(diag.job->id, diag.cause, diag.blocker);
  }
  return out;
}

/// Runs the in-place pass over `view` and the copying one over `copied`,
/// a copy of the same state, for both allocation policies with backfill
/// on and off, and expects the same starts, the same diagnosis of every
/// job left pending, and the same shadow for every pending job's size in
/// its pool.  Returns the passes compared.
int expect_same_decisions(const ScheduleView& view,
                          const copying::ScheduleView& copied) {
  int compared = 0;
  for (const AllocPolicy alloc : {AllocPolicy::LowestId, AllocPolicy::Pack}) {
    for (const bool backfill : {true, false}) {
      SCOPED_TRACE(::testing::Message()
                   << "t=" << view.now << " alloc " << to_string(alloc)
                   << " backfill " << backfill);
      const SchedulerConfig config{.backfill = backfill, .alloc = alloc};
      std::vector<BlockDiag> blocked;
      std::vector<BlockDiag> copied_blocked;
      std::vector<const Job*> started;
      schedule_pass(view, config, started, &blocked);
      EXPECT_EQ(started_ids(started),
                started_ids(copying::schedule_pass(copied, config,
                                                   &copied_blocked)));
      EXPECT_EQ(diagnoses(blocked), diagnoses(copied_blocked));
      // Undiagnosed, into a list holding the last pass's starts.
      std::vector<const Job*> undiagnosed = started;
      schedule_pass(view, config, undiagnosed);
      EXPECT_EQ(started_ids(started), started_ids(undiagnosed));
      ++compared;
    }
  }
  for (const Job* job : view.pending) {
    const int pool = view.heterogeneous() ? job->partition : -1;
    int extra = -1;
    int copied_extra = -1;
    const double shadow =
        shadow_time(view, job->requested_nodes, &extra, pool);
    EXPECT_EQ(shadow, copying::shadow_time(copied, job->requested_nodes,
                                           &copied_extra, pool))
        << "job " << job->id << " at t=" << view.now;
    EXPECT_EQ(extra, copied_extra)
        << "job " << job->id << " at t=" << view.now;
  }
  return compared;
}

/// The same over Manager::schedule_view and a copy of the manager's
/// live state.
int expect_same_decisions(const Manager& manager, double now) {
  return expect_same_decisions(
      manager.schedule_view(now),
      copying::copy_view(manager.cluster(), manager.running_list(),
                         manager.pending_queue(), now));
}

/// Compares the two passes at every scheduling pass the manager begins.
struct PassReferenceCheck final : obs::Sink {
  int compared = 0;

  obs::Interest interest() const override {
    return obs::kinds(obs::EventKind::kPassBegin);
  }
  void on_event(const obs::Event& event) override {
    compared += expect_same_decisions(*event.manager, event.now);
  }
};

struct PassReferenceCase {
  const char* name;
  std::vector<Partition> partitions;
  AllocPolicy alloc;
};

void PrintTo(const PassReferenceCase& param, std::ostream* out) {
  *out << param.name;
}

const PassReferenceCase kPassReferenceCases[] = {
    {.name = "one_partition",
     .partitions = {{.name = "all", .nodes = 16}},
     .alloc = AllocPolicy::LowestId},
    {.name = "fast_slow_lowest_id",
     .partitions = {{.name = "fast", .nodes = 8},
                    {.name = "slow", .nodes = 8, .speed = 0.5}},
     .alloc = AllocPolicy::LowestId},
    {.name = "fast_slow_pack",
     .partitions = {{.name = "fast", .nodes = 8},
                    {.name = "slow", .nodes = 8, .speed = 0.5}},
     .alloc = AllocPolicy::Pack},
    {.name = "three_lowest_id",
     .partitions = {{.name = "a", .nodes = 6},
                    {.name = "b", .nodes = 4, .speed = 0.5},
                    {.name = "c", .nodes = 6, .speed = 2.0}},
     .alloc = AllocPolicy::LowestId},
    {.name = "three_pack",
     .partitions = {{.name = "a", .nodes = 6},
                    {.name = "b", .nodes = 4, .speed = 0.5},
                    {.name = "c", .nodes = 6, .speed = 2.0}},
     .alloc = AllocPolicy::Pack},
};

using PassCase = std::tuple<PassReferenceCase, std::uint64_t>;

class PassReference : public ::testing::TestWithParam<PassCase> {};

TEST_P(PassReference, InPlacePassDecidesWhatTheCopyingPassDecided) {
  constexpr int kNodes = 16;
  const auto& [shape, seed] = GetParam();
  RmsConfig config;
  config.partitions = shape.partitions;
  config.scheduler.alloc = shape.alloc;
  Manager manager(config);
  PassReferenceCheck check;
  manager.attach(check);
  util::Rng rng(seed);
  double now = 0.0;
  std::vector<JobId> live;
  std::set<JobId> draining;

  // Whole-second clocks and limits on a 10 s grid make expected releases
  // tie often; the shadow's unstable sort by time then reads them in the
  // order the walk emitted them.
  for (int op = 0; op < 300; ++op) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " op " << op);
    now += static_cast<double>(rng.uniform_int(1, 10));
    if (rng.uniform() < 0.35 || live.empty()) {
      // Pinned, spanning and moldable submissions; a pinned job asks no
      // more than its partition holds.
      JobSpec spec;
      spec.name = "j" + std::to_string(op);
      const auto part = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(shape.partitions.size())));
      int capacity = kNodes;
      if (part < shape.partitions.size() && rng.bernoulli(0.5)) {
        spec.partition = shape.partitions[part].name;
        capacity = shape.partitions[part].nodes;
      }
      spec.requested_nodes = static_cast<int>(rng.uniform_int(1, capacity));
      spec.min_nodes = 1;
      spec.flexible = rng.bernoulli(0.7);
      spec.moldable = rng.bernoulli(0.3);
      spec.time_limit = 10.0 * static_cast<double>(rng.uniform_int(1, 40));
      live.push_back(manager.submit(spec, now));
      manager.schedule(now);
    } else {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const JobId id = live[pick];
      const Job& job = manager.job(id);
      if (job.finished()) {
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        draining.erase(id);
      } else if (draining.count(id) != 0) {
        // Half the picks leave the shrink incomplete, so nodes stay
        // draining across many passes.
        if (rng.bernoulli(0.5)) {
          manager.complete_shrink(id, now);
          draining.erase(id);
        }
      } else if (job.pending()) {
        if (rng.bernoulli(0.3)) manager.cancel(id, now);
      } else {
        const double action = rng.uniform();
        if (action < 0.3) {
          manager.job_finished(id, now);
        } else {
          Request request;
          request.min_procs = 1;
          request.max_procs = kNodes;
          request.preferred =
              rng.bernoulli(0.5)
                  ? static_cast<int>(rng.uniform_int(1, kNodes))
                  : 0;
          if (manager.dmr_check(id, request, now).action == Action::Shrink) {
            draining.insert(id);
          }
        }
      }
    }
    check.compared += expect_same_decisions(manager, now);
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(check.compared, 1000);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PassReference,
    ::testing::Combine(::testing::ValuesIn(kPassReferenceCases),
                       ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89)),
    [](const ::testing::TestParamInfo<PassCase>& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             std::to_string(std::get<1>(info.param));
    });

TEST(PassReferenceTies, HandBuiltViewsDecideAlike) {
  // Manager streams rarely tie a running job's release with a start of
  // the same pass at the instant the head's need is met.  Here every
  // start time and limit is on a 50 s grid, so releases tie all the
  // time: running jobs granted by a real cluster (some nodes draining),
  // then a queue of pinned and spanning jobs, on 1 to 3 partitions.
  constexpr double kNow = 500.0;
  int compared = 0;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    util::Rng rng(seed);
    const auto grid = [&rng](int from, int to) {
      return 50.0 * static_cast<double>(rng.uniform_int(from, to));
    };
    std::vector<Partition> partitions;
    const auto parts = static_cast<int>(rng.uniform_int(1, 3));
    for (int p = 0; p < parts; ++p) {
      partitions.push_back({.name = std::string(1, static_cast<char>('a' + p)),
                            .nodes = static_cast<int>(rng.uniform_int(4, 12))});
    }
    Cluster cluster(partitions);
    const auto draw_partition = [&] {
      return parts > 1 && rng.bernoulli(0.4)
                 ? static_cast<int>(rng.uniform_int(0, parts - 1))
                 : kAnyPartition;
    };
    std::deque<Job> jobs;  // stable addresses for the views
    std::vector<const Job*> running;
    std::vector<const Job*> pending;
    for (int r = 0; r < 6; ++r) {
      Job& job = jobs.emplace_back();
      job.id = static_cast<JobId>(jobs.size());
      job.state = JobState::Running;
      job.partition = draw_partition();
      job.requested_nodes = static_cast<int>(rng.uniform_int(1, 4));
      job.start_time = grid(0, 10);
      job.spec.time_limit = grid(1, 6);
      const int idle = job.partition == kAnyPartition
                           ? cluster.idle()
                           : cluster.idle_in(job.partition);
      if (job.requested_nodes > idle) {
        jobs.pop_back();
        continue;
      }
      job.nodes = cluster.allocate(
          job.id, job.requested_nodes, job.partition,
          rng.bernoulli(0.5) ? AllocPolicy::Pack : AllocPolicy::LowestId);
      if (rng.bernoulli(0.25)) cluster.set_draining({job.nodes.back()}, true);
      running.push_back(&job);
    }
    // A few small jobs first, which the pass usually starts, so the
    // head behind them is reserved against their releases too.
    const auto small = static_cast<int>(rng.uniform_int(0, 3));
    for (int q = 0; q < 10; ++q) {
      Job& job = jobs.emplace_back();
      job.id = static_cast<JobId>(jobs.size());
      job.partition = draw_partition();
      const int capacity = job.partition == kAnyPartition
                               ? cluster.size()
                               : cluster.partition(job.partition).nodes;
      job.requested_nodes = static_cast<int>(
          rng.uniform_int(1, q < small ? 2 : std::min(capacity, 8)));
      job.spec.time_limit = grid(1, 6);
      job.submit_time = static_cast<double>(q);
      pending.push_back(&job);
    }
    ScheduleView view;
    view.now = kNow;
    view.idle_nodes = cluster.idle();
    view.pending = pending;
    view.running = running;
    if (cluster.draining_count() > 0) {
      view.node_draining = cluster.node_draining();
    }
    if (parts > 1) {
      view.node_partition = cluster.node_partitions();
      view.idle_per_partition = cluster.idle_per_partition();
      view.idle_bits = cluster.idle_bits();
    }
    compared += expect_same_decisions(
        view, copying::copy_view(cluster, running, pending, kNow));
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_EQ(compared, 2000 * 4);
}

// --- Driver seed sweep ---------------------------------------------------------

struct DriverSweepCase {
  std::uint64_t seed;
  int jobs;
};

class DriverSweep : public ::testing::TestWithParam<DriverSweepCase> {};

drv::WorkloadMetrics run_sweep(const DriverSweepCase& param, bool flexible) {
  wl::FeitelsonParams params;
  params.jobs = param.jobs;
  params.max_size = 20;
  params.mean_interarrival = 10.0;
  params.max_runtime = 300.0;
  params.seed = param.seed;
  const auto workload = wl::generate_feitelson(params);

  sim::Engine engine;
  drv::DriverConfig config;
  config.rms.nodes = 20;
  drv::WorkloadDriver driver(engine, config);
  for (const auto& job : workload) {
    drv::JobPlan plan;
    plan.arrival = job.arrival;
    plan.model = apps::fs_model(10, job.size, job.runtime / 10, 20,
                                std::size_t(1) << 24);
    plan.submit_nodes = job.size;
    plan.flexible = flexible;
    driver.submit_at(std::move(plan));
  }
  return driver.run();
}

TEST_P(DriverSweep, FlexibleNeverCatastrophicallyWorse) {
  const auto fixed = run_sweep(GetParam(), false);
  const auto flexible = run_sweep(GetParam(), true);
  EXPECT_EQ(fixed.jobs, GetParam().jobs);
  EXPECT_EQ(flexible.jobs, GetParam().jobs);
  // The malleability contract: flexible completes the workload in at
  // most a small overhead factor of the fixed time, usually less.
  EXPECT_LT(flexible.makespan, fixed.makespan * 1.15)
      << "seed " << GetParam().seed;
  // Utilization within physical bounds and some reconfiguration done.
  EXPECT_GT(flexible.utilization, 0.0);
  EXPECT_LE(flexible.utilization, 1.0);
}

TEST_P(DriverSweep, RunsAreDeterministic) {
  const auto a = run_sweep(GetParam(), true);
  const auto b = run_sweep(GetParam(), true);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.wait.mean, b.wait.mean);
  EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.expands, b.expands);
  EXPECT_EQ(a.shrinks, b.shrinks);
  EXPECT_EQ(a.checks, b.checks);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DriverSweep,
    ::testing::Values(DriverSweepCase{11, 12}, DriverSweepCase{22, 12},
                      DriverSweepCase{33, 20}, DriverSweepCase{44, 20},
                      DriverSweepCase{55, 30}, DriverSweepCase{66, 30}));

// --- Power-of-two time scaling -----------------------------------------------
//
// Scaling by a power of two is exact in binary floating point, and a rigid
// run has no time constant of its own: every time it computes is a sum,
// difference, product or comparison of the workload's times.  So scaling
// the arrivals and runtimes scales the job table exactly and leaves every
// decision, and so every count, where it was.  Flexible runs are left
// out: drv::CostModel's protocol and bandwidth figures (its k* constants)
// are absolute seconds, so a resize costs the same at every scale.  The
// same oracle over Pow2Halving jobs, with the check overhead scaled too,
// was exact in none of 20 runs.

struct TimedJob {
  JobId id;
  double submit;
  double start;
  double end;
};

struct ScaledRun {
  std::vector<TimedJob> jobs;
  long long schedule_passes = 0;
};

ScaledRun run_rigid_scaled(std::uint64_t seed, bool federated, double scale) {
  wl::FeitelsonParams params;
  params.jobs = 400;
  params.seed = seed;
  wl::Workload workload = wl::from_feitelson(
      wl::generate_feitelson(params), params.max_size,
      wl::MalleabilityConfig{.policy = wl::Malleability::Rigid});
  for (wl::WorkloadJob& job : workload.jobs) {
    job.arrival *= scale;
    job.runtime *= scale;
  }
  drv::PlanShape shape;
  shape.steps = 5;
  shape.flexible = false;

  drv::DriverConfig config;
  if (federated) {
    const fed::MemberMix mix = fed::parse_member_mix(fed::kDefaultMemberMix);
    for (int c = 0; c < 3; ++c) {
      config.federation.clusters.push_back(fed::member_spec(mix, c));
    }
    config.federation.placement = fed::Placement::QueueDepth;
  } else {
    config.rms.nodes = 32;
  }
  sim::Engine engine;
  drv::WorkloadDriver driver(engine, config);
  for (drv::JobPlan& plan : drv::plans_from_workload(workload, shape)) {
    driver.submit_at(std::move(plan));
  }
  const drv::WorkloadMetrics metrics = driver.run();
  ScaledRun run;
  run.schedule_passes = metrics.schedule_passes;
  const fed::Federation& federation = driver.federation();
  for (int c = 0; c < federation.cluster_count(); ++c) {
    for (const Job* job : federation.manager(c).jobs()) {
      run.jobs.push_back(
          {job->id, job->submit_time, job->start_time, job->end_time});
    }
  }
  return run;
}

TEST(TimeScaling, RigidJobTimesScaleExactlyByPowersOfTwo) {
  for (const bool federated : {false, true}) {
    for (const std::uint64_t seed : {1, 7, 42, 2017, 5150}) {
      const ScaledRun base = run_rigid_scaled(seed, federated, 1.0);
      ASSERT_EQ(base.jobs.size(), 400u);
      for (const double scale : {0.125, 32.0}) {
        SCOPED_TRACE(::testing::Message()
                     << (federated ? "federation" : "cluster") << " seed "
                     << seed << " scale " << scale);
        const ScaledRun scaled = run_rigid_scaled(seed, federated, scale);
        EXPECT_EQ(scaled.schedule_passes, base.schedule_passes);
        ASSERT_EQ(scaled.jobs.size(), base.jobs.size());
        int inexact = 0;
        for (std::size_t i = 0; i < base.jobs.size(); ++i) {
          const TimedJob& want = base.jobs[i];
          const TimedJob& got = scaled.jobs[i];
          ASSERT_EQ(got.id, want.id);
          if (got.submit != want.submit * scale ||
              got.start != want.start * scale ||
              got.end != want.end * scale) {
            ++inexact;
          }
        }
        EXPECT_EQ(inexact, 0);
      }
    }
  }
}

// --- smpi message storm ----------------------------------------------------------

TEST(SmpiStorm, EveryMessageDeliveredOnceInPairOrder) {
  constexpr int kRanks = 4;
  constexpr int kPerPair = 200;
  smpi::Universe universe;
  universe.launch("storm", kRanks, [&](smpi::Context& ctx) {
    // Each rank sends kPerPair sequenced messages to every other rank,
    // interleaved, then receives and checks sequence order per source.
    util::Rng rng(1000 + static_cast<std::uint64_t>(ctx.rank()));
    std::vector<int> next_seq(kRanks, 0);
    std::vector<int> targets;
    for (int r = 0; r < kRanks; ++r) {
      if (r == ctx.rank()) continue;
      for (int i = 0; i < kPerPair; ++i) targets.push_back(r);
    }
    rng.shuffle(targets);
    std::vector<int> sent(kRanks, 0);
    for (int target : targets) {
      const int payload[2] = {ctx.rank(), sent[static_cast<size_t>(target)]++};
      ctx.world().send(target, 77, std::span<const int>(payload, 2));
    }
    // Receive (kRanks-1) * kPerPair messages from anyone.
    std::vector<int> got(kRanks, 0);
    for (int i = 0; i < (kRanks - 1) * kPerPair; ++i) {
      const auto msg = ctx.world().recv<int>(smpi::kAnySource, 77);
      ASSERT_EQ(msg.size(), 2u);
      const int from = msg[0];
      const int seq = msg[1];
      EXPECT_EQ(seq, got[static_cast<size_t>(from)]++)
          << "out-of-order from " << from;
    }
    for (int r = 0; r < kRanks; ++r) {
      if (r != ctx.rank()) {
        EXPECT_EQ(got[static_cast<size_t>(r)], kPerPair);
      }
    }
  });
  universe.await_all();
  EXPECT_TRUE(universe.failures().empty());
}

// --- Feitelson sweep ---------------------------------------------------------------

class WorkloadSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorkloadSweep, GeneratedWorkloadsAreWellFormed) {
  wl::FeitelsonParams params;
  params.jobs = 150;
  params.max_size = 32;
  params.mean_interarrival = 7.0;
  params.seed = GetParam();
  const auto jobs = wl::generate_feitelson(params);
  ASSERT_EQ(jobs.size(), 150u);
  double prev = 0.0;
  for (const auto& job : jobs) {
    EXPECT_GE(job.size, 1);
    EXPECT_LE(job.size, 32);
    EXPECT_GE(job.runtime, 1.0);
    EXPECT_GE(job.arrival, prev);
    prev = job.arrival;
    if (job.repeat_of >= 0) {
      EXPECT_LT(job.repeat_of, job.index);
      EXPECT_EQ(jobs[static_cast<size_t>(job.repeat_of)].size, job.size);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadSweep,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
