#include "fed/federation.hpp"

#include <algorithm>
#include <stdexcept>

namespace dmr::fed {

Federation::Federation(FederationConfig config) {
  if (config.clusters.empty()) {
    throw std::invalid_argument("Federation: no member clusters");
  }
  if (static_cast<JobId>(config.clusters.size()) >= rms::kClusterIdStride) {
    throw std::invalid_argument("Federation: too many member clusters");
  }
  names_.reserve(config.clusters.size());
  managers_.reserve(config.clusters.size());
  for (std::size_t c = 0; c < config.clusters.size(); ++c) {
    ClusterSpec& spec = config.clusters[c];
    if (spec.name.empty()) {
      throw std::invalid_argument("Federation: member cluster without a name");
    }
    if (std::find(names_.begin(), names_.end(), spec.name) != names_.end()) {
      throw std::invalid_argument("Federation: duplicate member name '" +
                                  spec.name + "'");
    }
    managers_.push_back(std::make_unique<rms::Manager>(std::move(spec.rms),
                                                       static_cast<int>(c)));
    names_.push_back(std::move(spec.name));
  }
  policy_ = config.policy ? std::move(config.policy)
                          : std::shared_ptr<PlacementPolicy>(
                                make_placement(config.placement));
}

int Federation::cluster_of(JobId id) const {
  const JobId cluster = (id - 1) / rms::kClusterIdStride;
  if (id < 1 || cluster >= static_cast<JobId>(managers_.size())) {
    throw std::out_of_range("Federation: job id " + std::to_string(id) +
                            " outside every member's range");
  }
  return static_cast<int>(cluster);
}

std::size_t Federation::index_in_member(JobId id) const {
  const JobId first =
      static_cast<JobId>(cluster_of(id)) * rms::kClusterIdStride + 1;
  return static_cast<std::size_t>(id - first);
}

rms::Manager& Federation::owner(JobId id) {
  return *managers_[static_cast<std::size_t>(cluster_of(id))];
}

const rms::Manager& Federation::owner(JobId id) const {
  return *managers_[static_cast<std::size_t>(cluster_of(id))];
}

const rms::Cluster& Federation::cluster_for(JobId id) const {
  return owner(id).cluster();
}

const rms::Job& Federation::job(JobId id) const { return owner(id).job(id); }

std::vector<ClusterStatus> Federation::statuses(const JobSpec& spec) const {
  std::vector<ClusterStatus> all;
  all.reserve(managers_.size());
  for (int c = 0; c < cluster_count(); ++c) {
    const rms::Cluster& cluster = managers_[static_cast<std::size_t>(c)]
                                      ->cluster();
    ClusterStatus status;
    status.index = c;
    status.name = cluster_name(c);
    status.total_nodes = cluster.size();
    if (spec.partition.empty()) {
      status.capacity = cluster.size();
      status.idle_nodes = cluster.idle();
      status.max_speed = status.min_speed = cluster.partition(0).speed;
      for (int p = 1; p < cluster.partition_count(); ++p) {
        status.max_speed = std::max(status.max_speed, cluster.partition(p).speed);
        status.min_speed = std::min(status.min_speed, cluster.partition(p).speed);
      }
    } else {
      const int pinned = cluster.partition_index(spec.partition);
      if (pinned != rms::kAnyPartition) {
        status.capacity = cluster.partition(pinned).nodes;
        status.idle_nodes = cluster.idle_in(pinned);
        status.max_speed = status.min_speed = cluster.partition(pinned).speed;
      }
      // capacity stays 0 when the member lacks the partition: ineligible.
    }
    for (const rms::Job* pending :
         managers_[static_cast<std::size_t>(c)]->pending_queue()) {
      ++status.pending_jobs;
      status.pending_nodes += pending->requested_nodes;
    }
    all.push_back(std::move(status));
  }
  return all;
}

JobId Federation::submit(JobSpec spec, double now) {
  if (spec.requested_nodes <= 0) {
    throw std::invalid_argument("Federation: bad node request for " +
                                spec.name);
  }
  // Single-member fast path: routing has exactly one answer, so skip the
  // status snapshot and the policy call (an allocation and a queue walk
  // per submission — archive replays submit hundreds of thousands of
  // times).  A placement observer gets the full protocol.
  if (managers_.size() == 1 && !sinks_.wants(obs::EventKind::kPlaced)) {
    const rms::Cluster& cluster = managers_.front()->cluster();
    int capacity = cluster.size();
    if (!spec.partition.empty()) {
      const int pinned = cluster.partition_index(spec.partition);
      capacity =
          pinned == rms::kAnyPartition ? 0 : cluster.partition(pinned).nodes;
    }
    if (spec.requested_nodes > capacity) {
      throw std::invalid_argument(
          "Federation: no member cluster can run '" + spec.name + "' (" +
          std::to_string(spec.requested_nodes) + " nodes" +
          (spec.partition.empty()
               ? std::string()
               : ", partition '" + spec.partition + "'") +
          ")");
    }
    return managers_.front()->submit(std::move(spec), now);
  }
  const std::vector<ClusterStatus> all = statuses(spec);
  std::vector<int> eligible;
  for (const ClusterStatus& status : all) {
    if (spec.requested_nodes <= status.capacity) {
      eligible.push_back(status.index);
    }
  }
  if (eligible.empty()) {
    throw std::invalid_argument("Federation: no member cluster can run '" +
                                spec.name + "' (" +
                                std::to_string(spec.requested_nodes) +
                                " nodes" +
                                (spec.partition.empty()
                                     ? std::string()
                                     : ", partition '" + spec.partition + "'") +
                                ")");
  }
  const int picked = policy_->place(spec, all, eligible);
  if (std::find(eligible.begin(), eligible.end(), picked) == eligible.end()) {
    throw std::logic_error("Federation: policy '" + policy_->name() +
                           "' picked ineligible member " +
                           std::to_string(picked));
  }
  const int nodes = spec.requested_nodes;
  rms::Manager& member = *managers_[static_cast<std::size_t>(picked)];
  const JobId id = member.submit(std::move(spec), now);
  if (sinks_.wants(obs::EventKind::kPlaced)) {
    sinks_.emit({.kind = obs::EventKind::kPlaced, .job = id, .member = picked,
                 .now = now, .new_size = nodes, .manager = &member,
                 .federation = this, .statuses = &all});
  }
  return id;
}

void Federation::cancel(JobId id, double now) { owner(id).cancel(id, now); }

void Federation::job_finished(JobId id, double now) {
  owner(id).job_finished(id, now);
}

void Federation::schedule(double now) {
  for (auto& manager : managers_) manager->schedule(now);
}

Outcome Federation::dmr_check(JobId id, const Request& request, double now) {
  return owner(id).dmr_check(id, request, now);
}

Decision Federation::dmr_decide(JobId id, const Request& request, double now) {
  return owner(id).dmr_decide(id, request, now);
}

Outcome Federation::dmr_apply(JobId id, const Decision& decision, double now) {
  return owner(id).dmr_apply(id, decision, now);
}

void Federation::complete_shrink(JobId id, double now) {
  owner(id).complete_shrink(id, now);
}

JobView Federation::query(JobId id) const { return owner(id).query(id); }

int Federation::total_nodes() const {
  int total = 0;
  for (const auto& manager : managers_) total += manager->cluster().size();
  return total;
}

std::vector<long long> Federation::placements() const {
  std::vector<long long> placed;
  placed.reserve(managers_.size());
  for (const auto& manager : managers_) {
    placed.push_back(static_cast<long long>(manager->jobs().size()));
  }
  return placed;
}

bool Federation::all_done() const {
  return std::all_of(managers_.begin(), managers_.end(),
                     [](const auto& manager) { return manager->all_done(); });
}

rms::Manager::Counters Federation::counters() const {
  rms::Manager::Counters total;
  for (const auto& manager : managers_) {
    const rms::Manager::Counters& c = manager->counters();
    total.expands += c.expands;
    total.shrinks += c.shrinks;
    total.aborted_expands += c.aborted_expands;
    total.checks += c.checks;
    total.schedule_requests += c.schedule_requests;
    total.schedule_passes += c.schedule_passes;
    total.schedule_passes_saved += c.schedule_passes_saved;
  }
  return total;
}

double Federation::conservative_speed(const std::string& partition) const {
  double slowest = 1.0;
  bool found = false;
  for (const auto& manager : managers_) {
    const rms::Cluster& cluster = manager->cluster();
    double speed = 1.0;
    if (!partition.empty()) {
      const int pinned = cluster.partition_index(partition);
      if (pinned == rms::kAnyPartition) continue;  // cannot host the job
      speed = cluster.partition(pinned).speed;
    } else {
      // Every partition counts, including a single slow one: a spanning
      // job can land anywhere, and underestimating the limit would let
      // backfill squat on EASY-reserved nodes.
      for (int p = 0; p < cluster.partition_count(); ++p) {
        speed = std::min(speed, cluster.partition(p).speed);
      }
    }
    slowest = found ? std::min(slowest, speed) : speed;
    found = true;
  }
  return slowest;
}

void Federation::add_nodes(int count, double now) {
  managers_.front()->add_nodes(count, now);
}

void Federation::attach(obs::Sink& sink) {
  sinks_.attach(sink);
  for (auto& manager : managers_) manager->attach(sink);
}

}  // namespace dmr::fed
