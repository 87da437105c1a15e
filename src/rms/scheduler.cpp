#include "rms/scheduler.hpp"

#include <algorithm>
#include <limits>

#include "obs/attr.hpp"

namespace dmr::rms {

namespace {

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

}  // namespace

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

}  // namespace dmr::rms
