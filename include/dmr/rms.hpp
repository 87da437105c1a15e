// The resource-manager interface the DMR facade is written against.
//
// `rms::Manager` (the built-in virtual Slurm) is the reference
// implementation; alternative backends (a real Slurm adapter, a sharded
// manager, a mock) implement this interface and slot in underneath
// `dmr::Session` / `dmr::ReconfigEngine` without touching the protocol
// code.  Every mutation takes `now` so one implementation serves both
// wall-clock and discrete-event time.
#pragma once

#include "dmr/types.hpp"

namespace dmr {

class Rms {
 public:
  virtual ~Rms() = default;

  // --- job lifecycle -------------------------------------------------------

  virtual JobId submit(JobSpec spec, double now) = 0;
  virtual void cancel(JobId id, double now) = 0;
  /// The job's processes exited; release resources and reschedule.
  virtual void job_finished(JobId id, double now) = 0;
  /// Run a scheduling pass.  What it started is read from the jobs
  /// themselves (query: JobView::state and start_time).
  virtual void schedule(double now) = 0;

  // --- the DMR resize protocol (Sections IV-V) ------------------------------

  /// Synchronous reconfiguring point: policy decision + immediate
  /// application (dmr_check_status).
  virtual Outcome dmr_check(JobId id, const Request& request, double now) = 0;
  /// Policy decision only, no side effects (first half of the
  /// asynchronous dmr_icheck_status).
  virtual Decision dmr_decide(JobId id, const Request& request,
                              double now) = 0;
  /// Apply a previously negotiated decision; may abort when the system
  /// state has moved on (the Section VIII-C "outdated decision" path).
  virtual Outcome dmr_apply(JobId id, const Decision& decision,
                            double now) = 0;
  /// Complete a shrink after the drain ACKs: releases draining nodes.
  virtual void complete_shrink(JobId id, double now) = 0;

  // --- queries ---------------------------------------------------------------

  virtual JobView query(JobId id) const = 0;
};

}  // namespace dmr
