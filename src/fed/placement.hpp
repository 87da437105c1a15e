// Pluggable submit-time placement for the cluster federation.
//
// A fed::Federation routes every job submission to one of its member
// clusters.  The routing decision is a PlacementPolicy: it sees a
// ClusterStatus snapshot per member (idle nodes, queue depth, partition
// speeds, capacity of the job's eligible pool) plus the list of members
// that can *ever* run the job, and picks one of them.  The federation
// enforces eligibility — a policy can prefer, but never select, a
// cluster the job does not fit — which is what makes oversize jobs fail
// over to a bigger member instead of queueing forever.
//
// Four built-in policies cover the classic trade-offs: round-robin
// (fairness), least-loaded-by-idle-nodes (instantaneous balance),
// best-fit-by-partition-speed (fast hardware first), and
// queue-depth-aware (backlog balance).  Custom policies implement the
// same interface and slot into FederationConfig.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dmr/types.hpp"

namespace dmr::fed {

/// Submit-time snapshot of one member cluster, specialized to the job
/// being placed: pool figures cover the job's eligible pool (its named
/// partition when pinned, the whole cluster otherwise).
struct ClusterStatus {
  /// Member index within the federation.
  int index = 0;
  std::string name;
  int total_nodes = 0;
  /// Nodes the eligible pool could ever hold (0 = the job never fits).
  int capacity = 0;
  /// Idle nodes in the eligible pool right now.
  int idle_nodes = 0;
  /// Queue depth: pending user jobs and the nodes they request.
  int pending_jobs = 0;
  int pending_nodes = 0;
  /// Fastest and slowest partition speed within the eligible pool.
  double max_speed = 1.0;
  double min_speed = 1.0;

  /// The job could start this instant (pool has enough idle nodes).
  bool fits_now(const ::dmr::JobSpec& spec) const {
    return spec.requested_nodes <= idle_nodes;
  }
};

/// Built-in placement policy kinds (FederationConfig::placement).
enum class Placement {
  RoundRobin,
  LeastLoaded,
  BestFitSpeed,
  QueueDepth,
};

std::string to_string(Placement placement);

/// All built-in kinds, in a stable order (sweep axes iterate this).
const std::vector<Placement>& all_placements();

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  virtual std::string name() const = 0;

  /// Pick the member to submit `spec` to.  `clusters` holds one status
  /// per member (indexed by member index); `eligible` is the non-empty,
  /// ascending list of member indices whose pool can ever fit the job.
  /// Must return an element of `eligible` (the federation validates).
  virtual int place(const ::dmr::JobSpec& spec,
                    const std::vector<ClusterStatus>& clusters,
                    const std::vector<int>& eligible) = 0;
};

/// Factory for the built-in policies.
std::unique_ptr<PlacementPolicy> make_placement(Placement kind);

}  // namespace dmr::fed
