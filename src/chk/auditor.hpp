// chk::Auditor — the opt-in runtime invariant checker.
//
// The stack's headline guarantees (deterministic replay, digest-identical
// runs with observability attached, snapshot/fork equality) are pinned by
// end-to-end property tests that say *that* a run diverged, never
// *where*.  The auditor is the "where": a sink on the lifecycle event
// stream (obs/event.hpp), it machine-checks the invariants the tests rely
// on as the instrumented layers report their transitions:
//
//  - per-job lifecycle DFA: submitted -> queued -> running
//    {-> reconfiguring -> running}* -> done, where a shrink's begin
//    enters reconfiguring and only its completion (or the job's end)
//    leaves it; every other edge is a violation carrying the job id and
//    the simulated time;
//  - node conservation in rms::Manager / rms::Cluster, after every
//    schedule call and resize step: per partition idle + allocated ==
//    total, draining nodes are always owned, and every running job's node
//    list matches the cluster's owner table exactly (no node listed
//    twice, by two jobs, or by a job the table does not give it; no owned
//    node missing from its owner's list);
//  - event-queue ordering in sim::Engine: the clock never moves
//    backwards, and two events that coexisted in the queue dispatch in
//    (time, lane, seq) order;
//  - federation identity: every member's job ids stay inside its
//    disjoint rms::kClusterIdStride range and route back to the member that
//    placed them;
//  - redistribution byte conservation: each modeled dmr::redist Report
//    accounts for exactly the job's declared state bytes, with moved <=
//    total and sane transfer/lane/second counts.
//
// The event stream is the only way in: tests feed it obs::Events the way
// the layers emit them.  Violations are collected into a structured
// chk::Report (JSON with the same provenance fields as the BENCH_*.json
// rows); the run itself goes on.  Detached (the default), every emit site
// it reads is one mask test.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "dmr/types.hpp"
#include "obs/event.hpp"

namespace dmr::rms {
class Manager;
}
namespace dmr::fed {
class Federation;
}

namespace dmr::chk {

/// One invariant breach: which rule, where, and when (simulated time).
struct Violation {
  std::string invariant;
  std::string message;
  ::dmr::JobId job = ::dmr::kInvalidJob;
  double sim_time = 0.0;
};

/// The structured audit result: violations plus how much checking
/// actually happened (a report with zero checks is not a clean bill).
struct Report {
  std::vector<Violation> violations;
  long long lifecycle_edges = 0;
  long long event_dispatches = 0;
  long long conservation_audits = 0;
  long long placement_checks = 0;
  long long federation_audits = 0;
  long long redist_reports = 0;
  /// Violations past Auditor::kMaxStoredViolations are counted, not
  /// stored.
  long long dropped_violations = 0;

  /// Every violation found: the stored ones plus those past the cap.
  long long violation_count() const {
    return static_cast<long long>(violations.size()) + dropped_violations;
  }
  bool ok() const { return violation_count() == 0; }
  long long total_checks() const {
    return lifecycle_edges + event_dispatches + conservation_audits +
           placement_checks + federation_audits + redist_reports;
  }
  /// One JSON object with sorted, stable keys and the BENCH_*.json
  /// provenance fields (git_sha / timestamp / threads).
  std::string json() const;
  /// Human-readable multi-line summary (one line per violation).
  std::string describe() const;
};

/// Events and report() are serialized on an internal mutex.
class Auditor final : public obs::Sink {
 public:
  /// Stored-violation cap; the rest are counted in dropped_violations
  /// (reported, never silently lost).
  static constexpr std::size_t kMaxStoredViolations = 64;

  obs::Interest interest() const override;
  void on_event(const obs::Event& event) override;

  /// Copy of the collected report (copied under the lock).
  Report report() const;

 private:
  enum class Phase { Queued, Running, Reconfiguring, Done };
  static const char* phase_name(Phase phase);

  // Each check below runs under mutex_, taken once by on_event.
  void violate(const char* invariant, ::dmr::JobId job, double now,
               std::string message);
  /// One lifecycle DFA edge: the job must be in `from`; it moves to `to`.
  void lifecycle_edge(::dmr::JobId id, double now, Phase from, Phase to,
                      const char* edge);
  void job_submitted(::dmr::JobId id, double now);
  void job_finished(::dmr::JobId id, double now);
  /// `event` leaves the engine's queue (see obs::DispatchOrder).
  void check_dispatch(const obs::Event& event);
  /// A routing decision: the id must lie in the member's id range.
  void check_placement(::dmr::JobId id, int member, double now);
  /// Every member's job table stays inside its id range and routes back
  /// to the member that owns it.
  void check_federation(const fed::Federation& federation, double now);
  /// Node conservation in two flat walks: every running job's node list
  /// against the owner table, then the node table against the marks the
  /// first walk left and the cluster's cached counters.
  void check_manager(const rms::Manager& manager, double now);
  /// A modeled report must account for exactly the declared state bytes.
  void check_redist(const obs::Event& event);
  /// Blames the owner of an owned node no running job's list marked.
  void blame_unlisted(const rms::Manager& manager, int node, double now);

  mutable std::mutex mutex_;
  Report report_;
  std::map<::dmr::JobId, Phase> phases_;

  // Last dispatched event, for the ordering check.
  bool has_last_event_ = false;
  double last_time_ = 0.0;
  int last_lane_ = 0;
  std::uint64_t last_seq_ = 0;
  std::uint64_t last_watermark_ = 0;

  // check_manager's scratch, kept so a clean audit allocates nothing:
  // one mark per node (all zero between audits) and the idle recount
  // per partition.
  std::vector<std::uint8_t> listed_;
  std::vector<int> idle_per_;
};

}  // namespace dmr::chk
