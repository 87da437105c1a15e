// fed::Federation — a multi-cluster resource manager behind one dmr::Rms.
//
// The federation owns one rms::Manager per member cluster (each with its
// own node inventory, possibly heterogeneous partitions) and routes job
// submissions between them at submit time through a pluggable
// fed::PlacementPolicy.  Everything after submission — scheduling,
// backfill, the DMR reconfiguring-point protocol, shrink draining — runs
// unchanged inside the member that owns the job: the paper's
// single-cluster machinery composes into a federation without touching
// the protocol code, because dmr::Rms was designed as exactly this seam.
//
// Identity: member c assigns job ids from the range
// [c*kClusterIdStride+1, (c+1)*kClusterIdStride] (rms::kClusterIdStride),
// its user jobs consecutively from the bottom and the expand protocol's
// resizers down from the top.  So every id is globally unique and routes
// back to its owner by integer division — no translation table, and
// rms::Job records keep their ids across the boundary.
//
// Time: the federation is as clock-agnostic as its members.  Every
// mutation takes `now`, so all members share whatever clock the caller
// uses — one sim::Engine in the virtual-time driver, the wall clock in
// real mode.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dmr/rms.hpp"
#include "fed/placement.hpp"
#include "obs/event.hpp"
#include "rms/manager.hpp"

namespace dmr::fed {

/// One member cluster: a name (used in metrics and trace series) plus
/// the full manager configuration (nodes or partitions, scheduler
/// policy, shrink boost, allocation policy).
struct ClusterSpec {
  std::string name;
  rms::RmsConfig rms;
};

struct FederationConfig {
  std::vector<ClusterSpec> clusters;
  /// Built-in placement policy used when `policy` is null.
  Placement placement = Placement::RoundRobin;
  /// Custom policy (shared so configs stay copyable); overrides
  /// `placement` when set.
  std::shared_ptr<PlacementPolicy> policy;
};

class Federation : public ::dmr::Rms {
 public:
  explicit Federation(FederationConfig config);
  /// Pinned: events carry a pointer to the federation.
  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  // --- dmr::Rms: submit routes, the rest forwards to the owner ---------------

  /// Route and submit.  Throws std::invalid_argument when no member can
  /// ever run the job (too big for every eligible pool, or a partition
  /// name no member has).
  JobId submit(JobSpec spec, double now) override;
  void cancel(JobId id, double now) override;
  void job_finished(JobId id, double now) override;
  /// Scheduling pass on every member (each no-ops unless its own
  /// placements are dirty).
  void schedule(double now) override;
  Outcome dmr_check(JobId id, const Request& request, double now) override;
  Decision dmr_decide(JobId id, const Request& request, double now) override;
  Outcome dmr_apply(JobId id, const Decision& decision, double now) override;
  void complete_shrink(JobId id, double now) override;
  JobView query(JobId id) const override;

  // --- members ---------------------------------------------------------------

  int cluster_count() const { return static_cast<int>(managers_.size()); }
  const std::string& cluster_name(int cluster) const {
    return names_.at(static_cast<std::size_t>(cluster));
  }
  rms::Manager& manager(int cluster) {
    return *managers_.at(static_cast<std::size_t>(cluster));
  }
  const rms::Manager& manager(int cluster) const {
    return *managers_.at(static_cast<std::size_t>(cluster));
  }
  /// Member index owning `id` (from the id range; the id need not exist).
  int cluster_of(JobId id) const;
  /// Position of `id` among its member's ids, which the member issues
  /// to user jobs consecutively: for a user job, its index in the
  /// member's jobs() and in any dense per-member table.
  std::size_t index_in_member(JobId id) const;
  /// The owning member's cluster inventory.
  const rms::Cluster& cluster_for(JobId id) const;
  /// The owning member's job record.
  const rms::Job& job(JobId id) const;
  /// Sum of the members' node counts.
  int total_nodes() const;
  /// True when no member has a pending or running user job.
  bool all_done() const;
  /// Member counters summed into one federation-wide view.
  rms::Manager::Counters counters() const;
  /// Jobs each member accepted so far (index = member index): the sizes
  /// of the members' job tables.
  std::vector<long long> placements() const;
  const PlacementPolicy& placement_policy() const { return *policy_; }

  // --- live reconfiguration (the service's what-if hook) ---------------------

  /// Grow member 0's first partition by `count` idle nodes at simulated
  /// time `now`.
  void add_nodes(int count, double now);

  /// Slowest speed a job constrained to `partition` (empty = any) could
  /// be gated by on any member able to host it: the pinned partition's
  /// speed where named, the member's slowest partition for spanning
  /// jobs.  Drivers use it for conservative time limits when the
  /// landing cluster is not yet known.
  double conservative_speed(const std::string& partition) const;

  /// Subscribe `sink` to placement events and to every member's
  /// lifecycle events; it must outlive the federation's use.
  void attach(obs::Sink& sink);

 private:
  rms::Manager& owner(JobId id);
  const rms::Manager& owner(JobId id) const;
  /// Status snapshot of every member, specialized to `spec`'s pool.
  std::vector<ClusterStatus> statuses(const JobSpec& spec) const;

  /// Member names, in member order (each member's configuration is its
  /// manager's).
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<rms::Manager>> managers_;
  std::shared_ptr<PlacementPolicy> policy_;
  obs::SinkList sinks_;
};

}  // namespace dmr::fed
