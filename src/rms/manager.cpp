#include "rms/manager.hpp"

#include <algorithm>
#include <stdexcept>

namespace dmr::rms {

namespace {

Cluster make_cluster(const RmsConfig& config) {
  if (!config.partitions.empty()) return Cluster(config.partitions);
  return Cluster(config.nodes);
}

}  // namespace

JobTable::~JobTable() {
  for (std::size_t i = 0; i < size_; ++i) std::destroy_at(&(*this)[i]);
}

Job& JobTable::push_back(Job&& job) {
  if (size_ == blocks_.size() * kBlockJobs) {
    blocks_.emplace_back(std::allocator<Job>().allocate(kBlockJobs));
  }
  Job* const slot = blocks_.back().get() + size_ % kBlockJobs;
  std::construct_at(slot, std::move(job));
  ++size_;
  return *slot;
}

Manager::Manager(RmsConfig config, int member)
    : scheduler_(config.scheduler),
      shrink_priority_boost_(config.shrink_priority_boost),
      first_job_id_(static_cast<JobId>(member) * kClusterIdStride + 1),
      cluster_(make_cluster(config)),
      next_resizer_id_(first_job_id_ + kClusterIdStride - 1),
      member_(member) {}

void Manager::rescale_time_limit(Job& job, double now, double ratio) {
  // Keep the backfill shadow estimates honest across resizes (the real
  // integration would issue an `scontrol update TimeLimit`): the
  // remaining wall time scales with old_size/new_size.
  if (job.start_time < 0.0 || ratio <= 0.0) return;
  const double elapsed = std::max(0.0, now - job.start_time);
  const double remaining = std::max(0.0, job.spec.time_limit - elapsed);
  job.spec.time_limit = elapsed + remaining * ratio;
}

const Job& Manager::job(JobId id) const {
  const std::size_t index = job_index(id);
  if (index != kNoJob) return jobs_[index];
  if (id == resizer_.id && id != kInvalidJob) return resizer_;
  throw std::out_of_range("Manager: unknown job " + std::to_string(id));
}

void Manager::remove_from(std::vector<Job*>& list, const Job* job) {
  const auto it = std::find(list.begin(), list.end(), job);
  if (it != list.end()) {
    *it = list.back();
    list.pop_back();
  }
}

void Manager::enqueue(Job& job) {
  // Submissions usually arrive in time order, so this is an append; but
  // submit() accepts any `now`, so search for the position.
  const auto at = std::upper_bound(pending_jobs_.begin(), pending_jobs_.end(),
                                   &job, SubmitOrder{});
  pending_jobs_.insert(at, &job);
}

void Manager::dequeue(const Job& job) {
  pending_jobs_.erase(
      std::find(pending_jobs_.begin(), pending_jobs_.end(), &job));
}

void Manager::boost(Job& job) {
  if (!job.priority_boost) {
    // Boosted jobs keep SubmitOrder among themselves, ahead of the rest:
    // everything before the job stays sorted, so search it for the new
    // position and rotate the job there.
    const auto at = std::find(pending_jobs_.begin(), pending_jobs_.end(), &job);
    job.priority_boost = true;
    const auto to =
        std::upper_bound(pending_jobs_.begin(), at, &job, SubmitOrder{});
    std::rotate(to, at, at + 1);
  }
  placements_dirty_ = true;
}

int Manager::checked_partition(const JobSpec& spec) const {
  int partition = kAnyPartition;
  int capacity = cluster_.size();
  if (!spec.partition.empty()) {
    partition = cluster_.partition_index(spec.partition);
    if (partition == kAnyPartition) {
      throw std::invalid_argument("Manager: unknown partition '" +
                                  spec.partition + "' for " + spec.name);
    }
    capacity = cluster_.partition(partition).nodes;
  }
  if (spec.requested_nodes <= 0 || spec.requested_nodes > capacity) {
    throw std::invalid_argument("Manager: bad node request for " + spec.name);
  }
  if (spec.min_nodes < 1) {
    throw std::invalid_argument("Manager: bad minimum size for " + spec.name);
  }
  return partition;
}

JobId Manager::submit(JobSpec spec, double now) {
  const int partition = checked_partition(spec);
  // User ids run in sequence, so the next one follows the table.
  const JobId id = first_job_id_ + static_cast<JobId>(jobs_.size());
  Job& job = jobs_.push_back(Job{.id = id, .spec = std::move(spec)});
  ++unfinished_user_jobs_;
  admit(job, partition, now);
  return id;
}

void Manager::admit(Job& job, int partition, double now) {
  job.requested_nodes = job.spec.requested_nodes;
  job.partition = partition;
  job.submit_time = now;
  enqueue(job);
  placements_dirty_ = true;
  emit(obs::EventKind::kSubmitted, job.id, now, 0, job.requested_nodes);
}

void Manager::start_job(Job& job, double now) {
  job.nodes = cluster_.allocate(job.id, job.requested_nodes, job.partition,
                                scheduler_.alloc);
  job.state = JobState::Running;
  job.start_time = now;
  dequeue(job);
  job.priority_boost = false;
  running_jobs_.push_back(&job);
  if (!job.resizer) {
    user_allocated_nodes_ += job.allocated();
    ++user_running_jobs_;
  }
  emit(obs::EventKind::kStarted, job.id, now, 0, job.allocated());
  emit(obs::EventKind::kAllocChanged, kInvalidJob, now);
}

void Manager::add_nodes(int count, double now) {
  cluster_.add_nodes(count);
  placements_dirty_ = true;
  emit(obs::EventKind::kAllocChanged, kInvalidJob, now);
}

void Manager::schedule(double now) {
  ++counters_.schedule_requests;
  if (!placements_dirty_) {
    ++counters_.schedule_passes_saved;
    return;
  }
  emit(obs::EventKind::kPassBegin, kInvalidJob, now);
  placements_dirty_ = false;
  // Iterate only while a start can enable further starts: a molded head
  // leaving idle nodes behind.  The former unconditional loop burned one
  // full confirming pass per call.
  const bool diagnose = sinks_.wants(obs::EventKind::kBlocked);
  // The pass fills the kept start and diagnosis lists, held here while
  // they are walked: a sink re-entering schedule() finds the members
  // empty, not lists being walked.
  std::vector<const Job*> to_start = std::move(started_);
  std::vector<BlockDiag> blocked = std::move(blocked_);
  for (;;) {
    ++counters_.schedule_passes;
    const ScheduleView view = schedule_view(now);
    blocked.clear();  // the pass appends
    schedule_pass(view, scheduler_, to_start, diagnose ? &blocked : nullptr);
    const Job* const head =
        view.pending.empty() ? nullptr : view.pending.front();
    // Report before the starts: a job diagnosed here and started by a
    // later round of this same fixpoint only accrues a zero-length
    // segment at `now`.
    for (const BlockDiag& diag : blocked) {
      report_blocked(*diag.job, now, diag.cause, diag.blocker);
    }
    bool molded = false;
    if (to_start.empty()) {
      // Moldable extension: when nothing rigid fits, the *head* job (and
      // only the head — molding past a blocked head would starve it) may
      // start smaller than requested, down to its minimum.
      if (head != nullptr) {
        const int head_idle = head->partition == kAnyPartition
                                  ? view.idle_nodes
                                  : cluster_.idle_in(head->partition);
        if (head->spec.moldable && head->spec.min_nodes <= head_idle &&
            head_idle > 0) {
          molded = true;
          const int size = std::min(head->requested_nodes, head_idle);
          job_mutable(head->id).requested_nodes = size;
          to_start.push_back(head);
        }
      }
      if (to_start.empty()) break;
    }
    for (const Job* pick : to_start) start_job(job_mutable(pick->id), now);
    // A molded start can leave idle nodes a newly exposed moldable head
    // could still use.
    if (molded) continue;
    // A rigid-only round cannot enable more rigid starts, but a moldable
    // job waiting behind it still can (the pass only molds when nothing
    // rigid starts): give those a molding round before declaring the
    // fixpoint.
    if (cluster_.idle() > 0 &&
        std::any_of(pending_jobs_.begin(), pending_jobs_.end(),
                    [](const Job* job) { return job->spec.moldable; })) {
      continue;
    }
    // The former design re-ran a whole pass here just to confirm the
    // fixpoint.
    ++counters_.schedule_passes_saved;
    break;
  }
  started_ = std::move(to_start);
  blocked_ = std::move(blocked);
  emit(obs::EventKind::kPass, kInvalidJob, now);
}

ScheduleView Manager::schedule_view(double now) const {
  ScheduleView view;
  view.now = now;
  view.idle_nodes = cluster_.idle();
  view.pending = pending_jobs_;
  view.running = running_list();
  if (cluster_.draining_count() > 0) {
    view.node_draining = cluster_.node_draining();
  }
  if (cluster_.partition_count() > 1) {
    view.node_partition = cluster_.node_partitions();
    view.idle_per_partition = cluster_.idle_per_partition();
    view.idle_bits = cluster_.idle_bits();
  }
  return view;
}

void Manager::finish_job(Job& job, double now, JobState final_state) {
  const bool was_pending = job.pending();
  bool released_nodes = false;
  if (job.running()) {
    // job.nodes is exactly the owned set (harvest_resizer detaches its
    // nodes before finishing the resizer), so release it directly
    // instead of re-deriving it from a whole-cluster scan.
    released_nodes = !job.nodes.empty();
    if (released_nodes) cluster_.release(job.id, job.nodes);
    if (!job.resizer) {
      user_allocated_nodes_ -= job.allocated();
      --user_running_jobs_;
    }
    // Free the node list rather than keep its capacity: finished jobs
    // stay in jobs_ for the whole run, and the next start reuses the
    // block instead of growing the heap.
    job.nodes = std::vector<int>();
    remove_from(running_jobs_, &job);
  }
  if (was_pending) dequeue(job);
  job.state = final_state;
  job.end_time = now;
  if (!job.resizer) --unfinished_user_jobs_;
  emit(obs::EventKind::kFinished, job.id, now);
  // Released nodes or a removed queue entry (a new head) can both change
  // the next placement decision; a node-less exit (resizer harvest)
  // cannot.
  if (released_nodes || was_pending) placements_dirty_ = true;
  emit(obs::EventKind::kAllocChanged, kInvalidJob, now);
}

void Manager::cancel(JobId id, double now) {
  Job& job = job_mutable(id);
  if (job.finished()) return;
  finish_job(job, now, JobState::Cancelled);
  schedule(now);
}

void Manager::job_finished(JobId id, double now) {
  Job& job = job_mutable(id);
  if (!job.running()) {
    throw std::logic_error("Manager: job_finished on non-running job");
  }
  finish_job(job, now, JobState::Completed);
  schedule(now);
}

void Manager::submit_resizer(const Job& parent, int extra_nodes, double now) {
  JobSpec spec;
  spec.name = parent.spec.name + ":resizer";
  spec.requested_nodes = extra_nodes;
  spec.min_nodes = extra_nodes;
  spec.flexible = false;
  spec.time_limit = parent.spec.time_limit;
  // The harvested nodes join the parent's allocation, so they must come
  // from the parent's eligible pool.
  spec.partition = parent.spec.partition;
  const int partition = checked_partition(spec);
  resizer_ = Job{.id = next_resizer_id_--, .spec = std::move(spec)};
  resizer_.resizer = true;
  admit(resizer_, partition, now);
  // "RJ is set to the maximum priority, facilitating its execution."
  boost(resizer_);
}

void Manager::harvest_resizer(Job& parent, double now) {
  Job& rj = resizer_;
  if (!rj.running()) {
    throw std::logic_error("Manager: harvesting a non-running resizer");
  }
  // Protocol steps 2-4: zero-size update detaches the nodes, the resizer
  // is cancelled, and the original job absorbs the allocation.
  const std::vector<int> nodes = std::move(rj.nodes);  // leaves rj's empty
  cluster_.transfer(rj.id, parent.id, nodes);
  rj.requested_nodes = 0;
  finish_job(rj, now, JobState::Cancelled);
  parent.nodes.insert(parent.nodes.end(), nodes.begin(), nodes.end());
  parent.requested_nodes = parent.allocated();
  user_allocated_nodes_ += static_cast<int>(nodes.size());
}

Decision Manager::dmr_decide(JobId id, const Request& request,
                             double now) {
  Job& job = job_mutable(id);
  if (!job.running()) {
    throw std::logic_error("Manager: dmr_decide on non-running job");
  }
  ++counters_.checks;
  // Announced before the view is built: a sink's query could otherwise
  // overwrite the kept copies the view reads.
  emit(obs::EventKind::kNegotiateBegin, id, now);
  PolicyView view;
  view.job = &job;
  if (job.partition == kAnyPartition) {
    view.idle_nodes = cluster_.idle();
    view.pending = pending_queue();
  } else {
    // A pinned job can only grow within — and release nodes back into —
    // its own partition, so the policy must see that pool and only the
    // queued jobs its nodes could serve (same partition or unpinned).
    // Cluster-wide idle would let it negotiate expansions its partition
    // cannot grant.
    view.idle_nodes = cluster_.idle_in(job.partition);
    policy_scratch_.clear();
    for (const Job* pending : pending_jobs_) {
      if (pending->partition == kAnyPartition ||
          pending->partition == job.partition) {
        policy_scratch_.push_back(pending);
      }
    }
    view.pending = policy_scratch_;
  }
  const Decision decision = reconfiguration_policy(view, request);
  emit(obs::EventKind::kNegotiated, id, now, job.allocated(),
       decision.new_size, decision.action);
  return decision;
}

Outcome Manager::dmr_check(JobId id, const Request& request, double now) {
  return dmr_apply(id, dmr_decide(id, request, now), now);
}

Outcome Manager::dmr_apply(JobId id, const Decision& decision, double now) {
  emit(obs::EventKind::kApplyBegin, id, now);
  Outcome outcome = dmr_apply_impl(id, decision, now);
  emit(obs::EventKind::kApplied, id, now, 0, outcome.new_size, outcome.action,
       outcome.aborted);
  return outcome;
}

Outcome Manager::dmr_apply_impl(JobId id, const Decision& decision,
                                double now) {
  Job& job = job_mutable(id);
  if (!job.running()) {
    throw std::logic_error("Manager: dmr_apply on non-running job");
  }

  Outcome outcome;
  outcome.action = decision.action;
  outcome.old_size = job.allocated();
  outcome.new_size = decision.new_size;

  switch (decision.action) {
    case Action::None:
      return outcome;

    case Action::Expand: {
      const int extra = decision.new_size - job.allocated();
      if (extra <= 0) {  // stale async decision already overtaken
        outcome.action = Action::None;
        outcome.aborted = true;
        ++counters_.aborted_expands;
        return outcome;
      }
      submit_resizer(job, extra, now);
      schedule(now);
      if (!resizer_.running()) {
        // The scheduler gave the nodes to somebody else (or a race left
        // too few): abort, as the runtime would on its wait timeout.
        cancel(resizer_.id, now);
        resizer_.id = kInvalidJob;  // B's id ends with its protocol
        outcome.action = Action::None;
        outcome.new_size = 0;
        outcome.aborted = true;
        ++counters_.aborted_expands;
        return outcome;
      }
      harvest_resizer(job, now);
      resizer_.id = kInvalidJob;
      ++job.expansions;
      ++counters_.expands;
      rescale_time_limit(job, now,
                         static_cast<double>(decision.new_size - extra) /
                             static_cast<double>(decision.new_size));
      emit(obs::EventKind::kExpanded, id, now, decision.new_size - extra,
           decision.new_size);
      emit(obs::EventKind::kAllocChanged, kInvalidJob, now);
      return outcome;
    }

    case Action::Shrink: {
      const int release_count = job.allocated() - decision.new_size;
      if (release_count <= 0) {  // stale async decision already overtaken
        outcome.action = Action::None;
        outcome.aborted = true;
        return outcome;
      }
      // Drain the tail of the allocation; data is folded onto the head
      // ranks (Listing 3's sender/receiver grouping keeps receivers on
      // the surviving nodes).
      const std::vector<int> draining(job.nodes.end() - release_count,
                                      job.nodes.end());
      cluster_.set_draining(draining, true);
      // The imminent releases widen the EASY backfill window (the
      // drain-aware shadow): the next schedule request must run a pass.
      placements_dirty_ = true;
      rescale_time_limit(job, now,
                         static_cast<double>(job.allocated()) /
                             static_cast<double>(decision.new_size));
      if (decision.boost_target != kInvalidJob &&
          shrink_priority_boost_) {
        Job& target = job_mutable(decision.boost_target);
        if (target.pending()) boost(target);
      }
      ++counters_.shrinks;
      emit(obs::EventKind::kShrinkBegun, id, now, job.allocated(),
           decision.new_size);
      return outcome;
    }
  }
  return outcome;
}

void Manager::complete_shrink(JobId id, double now) {
  Job& job = job_mutable(id);
  std::vector<int> draining;
  for (int node_id : job.nodes) {
    if (cluster_.draining(node_id)) draining.push_back(node_id);
  }
  if (draining.empty()) {
    throw std::logic_error("Manager: complete_shrink with no draining nodes");
  }
  const int old_size = job.allocated();
  cluster_.release(id, draining);
  auto& nodes = job.nodes;
  nodes.erase(std::remove_if(nodes.begin(), nodes.end(),
                             [&](int node_id) {
                               return std::find(draining.begin(),
                                                draining.end(),
                                                node_id) != draining.end();
                             }),
              nodes.end());
  job.requested_nodes = job.allocated();
  user_allocated_nodes_ -= static_cast<int>(draining.size());
  ++job.shrinks;
  placements_dirty_ = true;
  emit(obs::EventKind::kShrinkEnded, id, now, old_size, job.allocated());
  emit(obs::EventKind::kAllocChanged, kInvalidJob, now);
  schedule(now);
}

::dmr::JobView Manager::query(JobId id) const {
  const Job& record = job(id);
  ::dmr::JobView view;
  view.id = record.id;
  view.name = record.spec.name;
  view.state = record.state;
  view.allocated = record.allocated();
  for (int node_id : record.nodes) {
    view.hosts.push_back(cluster_.node_name(node_id));
    if (!cluster_.draining(node_id)) {
      view.surviving_hosts.push_back(cluster_.node_name(node_id));
    }
  }
  view.priority_boost = record.priority_boost;
  view.expansions = record.expansions;
  view.shrinks = record.shrinks;
  view.submit_time = record.submit_time;
  view.start_time = record.start_time;
  view.end_time = record.end_time;
  return view;
}

}  // namespace dmr::rms
