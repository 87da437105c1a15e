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
//    {-> reconfiguring -> running}* -> done; every other edge is a
//    violation carrying the job id and the simulated time;
//  - node conservation in rms::Manager / rms::Cluster: per partition
//    idle + allocated == total, draining nodes are always owned, no node
//    appears in two allocations, and every job's node list matches the
//    cluster's owner table exactly;
//  - event-queue ordering in sim::Engine: the clock never moves
//    backwards, and two events that coexisted in the queue dispatch in
//    (time, lane, seq) order;
//  - federation identity: every member's job ids stay inside its
//    disjoint kClusterIdStride range and route back to the member that
//    placed them;
//  - redistribution byte conservation: each dmr::redist Report accounts
//    for exactly the registered buffer bytes, with moved <= total and
//    sane transfer/lane/second counts.
//
// Violations are collected into a structured chk::Report (JSON with the
// same provenance fields as the BENCH_*.json rows); Options::fail_fast
// instead aborts the run at the first violation by throwing AuditError.
// Detached (the default), every emit site it reads is one mask test.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
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
namespace dmr::redist {
struct Report;
}

namespace dmr::chk {

/// One invariant breach: which rule, where, and when (simulated time; 0
/// for wall-clock contexts like a real redistribution strategy).
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
  /// Violations past Options::max_violations are counted, not stored.
  long long dropped_violations = 0;

  bool ok() const { return violations.empty() && dropped_violations == 0; }
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

/// Thrown by a fail-fast auditor at the first violation.
class AuditError : public std::logic_error {
 public:
  explicit AuditError(const Violation& violation);
  const Violation violation;
};

/// All entry points are serialized on an internal mutex: one auditor may
/// serve every worker thread of a sweep.
class Auditor final : public obs::Sink {
 public:
  struct Options {
    /// Throw AuditError at the first violation instead of collecting.
    bool fail_fast = false;
    /// Stored-violation cap; the rest are counted in dropped_violations
    /// (reported, never silently lost).
    std::size_t max_violations = 64;
  };

  Auditor() = default;
  explicit Auditor(Options options) : options_(options) {}

  // --- the event stream ------------------------------------------------------

  obs::Interest interest() const override;
  /// Drives the checks below (callable directly too).
  void on_event(const obs::Event& event) override;

  // --- per-job lifecycle DFA -------------------------------------------------

  void on_job_submitted(::dmr::JobId id, double now);
  void on_job_started(::dmr::JobId id, double now);
  /// An expansion was applied (legal only while running).
  void on_job_resized(::dmr::JobId id, double now);
  /// A shrink began draining: running -> reconfiguring.
  void on_shrink_begun(::dmr::JobId id, double now);
  /// The drain completed or aborted: reconfiguring -> running.
  void on_shrink_ended(::dmr::JobId id, double now);
  /// Completion or cancellation: queued/running/reconfiguring -> done.
  void on_job_finished(::dmr::JobId id, double now);

  // --- sim::Engine event ordering --------------------------------------------

  /// Called as an event leaves the queue.  `clock` is the engine's time
  /// before this event advances it; `seq_watermark` is the engine's
  /// next-sequence counter, which tells the auditor whether the previous
  /// event could have seen this one in the queue (only then is
  /// (time, lane, seq) dispatch order enforceable).
  void on_event_dispatch(double time, int lane, std::uint64_t seq,
                         double clock, std::uint64_t seq_watermark);

  // --- federation identity ---------------------------------------------------

  /// A submit-time routing decision: `id` must lie inside member
  /// `member`'s disjoint id range of width `stride`.
  void on_placement(::dmr::JobId id, int member, ::dmr::JobId stride,
                    double now);
  /// Full sweep: every member's job table stays inside its id range and
  /// routes back to the member that owns it.
  void check_federation(const fed::Federation& federation, double now);

  // --- node conservation -----------------------------------------------------

  /// Full sweep of one manager: recompute idle/allocated/draining from
  /// the node table and cross-check counters, partitions, and every
  /// job's node list against the owner table.
  void check_manager(const rms::Manager& manager, double now);

  // --- redistribution byte conservation --------------------------------------

  /// `registered_bytes` is the registry's total at execution time (the
  /// report must account for exactly those bytes); pass
  /// `report.bytes_total` for modeled reports with no registry.
  void on_redist_report(const redist::Report& report,
                        std::size_t registered_bytes, double now);

  // --- results ---------------------------------------------------------------

  /// Copy of the collected report (copied under the lock; safe to call
  /// while rank threads are still recording).
  Report report() const;
  bool ok() const { return report().ok(); }
  void reset();

 private:
  enum class Phase { Queued, Running, Reconfiguring, Done };
  static const char* phase_name(Phase phase);

  /// Record (or, fail-fast, throw) one violation.
  void violate(const char* invariant, ::dmr::JobId job, double now,
               std::string message);
  /// DFA edge helper: job must currently be in `from`; moves it to `to`.
  void lifecycle_edge(::dmr::JobId id, double now, Phase from, Phase to,
                      const char* edge);

  Options options_;
  mutable std::mutex mutex_;
  Report report_;
  std::map<::dmr::JobId, Phase> phases_;

  // Last dispatched event, for the ordering check.
  bool has_last_event_ = false;
  double last_time_ = 0.0;
  int last_lane_ = 0;
  std::uint64_t last_seq_ = 0;
  std::uint64_t last_watermark_ = 0;
};

}  // namespace dmr::chk
