// dmr::ReconfigEngine — the one reconfiguring-point state machine.
//
// Every substrate used to carry its own copy of the negotiate -> (defer)
// -> apply -> drain-ACK -> complete-shrink sequence: the real-mode
// runtime in rt::DmrRuntime and the discrete-event workload driver in
// drv::WorkloadDriver.  This class is the single remaining
// implementation.  It is clock-agnostic (time comes from the session's
// clock), substrate-agnostic (the end of the data movement is reported
// back through complete_shrink(), whatever "data movement" means for
// the caller), and mode-agnostic (the same object serves
// dmr_check_status and dmr_icheck_status semantics).  What a resize
// moved is the substrate's to account: the driver prices it with
// drv::CostModel, the real-mode loop records it in rt::ResizeRecord.
#pragma once

#include <mutex>
#include <optional>

#include "dmr/inhibitor.hpp"
#include "dmr/session.hpp"
#include "dmr/types.hpp"

namespace dmr {

class ReconfigEngine {
 public:
  explicit ReconfigEngine(Session& session, double inhibitor_period = 0.0);

  /// One reconfiguring point.
  ///
  ///  - std::nullopt: the inhibitor swallowed the call; the RMS was not
  ///    contacted.
  ///  - Sync: the outcome of negotiate + apply (dmr_check_status).
  ///  - Async: the outcome of applying the *previously* negotiated
  ///    decision (Action::None on the first call); a fresh negotiation is
  ///    scheduled for the next point unless an action was just applied
  ///    (dmr_icheck_status).
  ///
  /// Throws std::logic_error after the session finished.
  std::optional<Outcome> check(Mode mode, const Request& request);

  /// A shrink stays pending until the substrate drains the retiring
  /// ranks' data and calls this (paper: the management node collected
  /// every ACK); it then releases the draining nodes.  No-op when no
  /// shrink is pending.
  void complete_shrink();

  /// A copy of the inhibitor, read under one lock: callers test upcoming
  /// checks on it with Inhibitor::would_allow.
  Inhibitor inhibitor() const;

 private:
  Session& session_;
  mutable std::mutex mu_;
  Inhibitor inhibitor_;
  /// Decision negotiated at the previous asynchronous point, to be
  /// applied at the next one (possibly outdated by then).
  std::optional<Decision> deferred_;
  bool shrink_pending_ = false;
};

}  // namespace dmr
