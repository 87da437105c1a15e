// dmr::Session — a job's connection to the resource manager.
//
// A Connection serializes access to one Rms backend and stamps every
// call with the current time (wall clock in real mode, virtual time in
// the discrete-event simulation).  A Session adds job identity on top:
// it binds to exactly one job and guards its lifecycle, so completion is
// reported once no matter how many ranks reach the end.  Sessions of
// different jobs may share one Connection — that is how several
// malleable applications coexist on one virtual cluster.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>

#include "dmr/rms.hpp"
#include "dmr/types.hpp"

namespace dmr {

/// Thread-safe, clocked access to an Rms backend.
class Connection {
 public:
  using Clock = std::function<double()>;

  Connection(Rms& rms, Clock clock);

  double now() const { return clock_(); }

  JobId submit(JobSpec spec);
  void schedule();
  void cancel(JobId id);
  void job_finished(JobId id);
  Outcome dmr_check(JobId id, const Request& request);
  Decision dmr_decide(JobId id, const Request& request);
  Outcome dmr_apply(JobId id, const Decision& decision);
  void complete_shrink(JobId id);
  JobView query(JobId id) const;

 private:
  Rms& rms_;
  Clock clock_;
  mutable std::mutex mu_;
};

class Session {
 public:
  using Clock = Connection::Clock;

  /// Own a fresh connection to `rms`.
  Session(Rms& rms, Clock clock);
  /// Share an existing connection (multi-job setups).
  explicit Session(std::shared_ptr<Connection> connection);

  const std::shared_ptr<Connection>& connection() const {
    return connection_;
  }
  double now() const { return connection_->now(); }

  // --- job identity ----------------------------------------------------------

  /// Submit a job and bind this session to it.  Throws std::logic_error
  /// when the session is already bound.
  JobId submit(JobSpec spec);
  bool bound() const { return job_ != kInvalidJob; }
  /// Run a scheduling pass (convenience passthrough).
  void schedule() { connection_->schedule(); }

  // --- the bound job's protocol calls ----------------------------------------

  Outcome check(const Request& request);
  Decision decide(const Request& request);
  Outcome apply(const Decision& decision);
  void complete_shrink();
  JobView info() const;

  // --- lifecycle -------------------------------------------------------------

  /// Report completion to the RMS.  Idempotent: only the first call
  /// reaches the backend (every rank of a collective finish may call it).
  void finish();
  void cancel();
  bool finished() const { return finished_; }

 private:
  JobId require_job() const;

  std::shared_ptr<Connection> connection_;
  JobId job_ = kInvalidJob;
  std::atomic<bool> finished_{false};
};

}  // namespace dmr
