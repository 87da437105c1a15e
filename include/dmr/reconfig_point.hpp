// dmr::ReconfigPoint — the entry point applications call between steps.
//
// The public face of the paper's `dmr_check_status` (Mode::Sync) and
// `dmr_icheck_status` (Mode::Async): a collective over the job's current
// world communicator.  Rank 0 runs the shared ReconfigEngine state
// machine against the RMS; the decision — action, granted size and the
// host list for the spawn — is broadcast so every rank acts on the same
// verdict, mirroring Nanos++'s single point of contact with Slurm.
#pragma once

#include <memory>
#include <mutex>

#include "dmr/engine.hpp"
#include "dmr/session.hpp"
#include "dmr/types.hpp"

namespace dmr {

namespace smpi {
class Comm;
}  // namespace smpi

class ReconfigPoint {
 public:
  ReconfigPoint(Session& session, Request request,
                double inhibitor_period = 0.0);

  /// Collective reconfiguring point over `world`.  Returns None when the
  /// inhibitor swallowed the call or the RMS granted nothing.
  ResizeDecision check(const smpi::Comm& world, Mode mode);

  /// dmr_check_status: negotiate and apply now.
  ResizeDecision check_status(const smpi::Comm& world) {
    return check(world, Mode::Sync);
  }
  /// dmr_icheck_status: apply the previous point's decision, renegotiate.
  ResizeDecision icheck_status(const smpi::Comm& world) {
    return check(world, Mode::Async);
  }

  /// After the offload/data movement completes, finish the shrink
  /// protocol (drain ACKs -> release).  Collective; call once per old
  /// process set.  The world barrier is the paper's all-to-one ACK wave.
  void finish_shrink(const smpi::Comm& world);

  /// The final process set reports completion (idempotent).
  void finish_job(const smpi::Comm& world);

  Session& session() { return session_; }

  Request request() const {
    std::lock_guard<std::mutex> lock(request_mu_);
    return request_;
  }
  /// Change the request conveyed at future reconfiguring points.  This is
  /// how *evolving* applications (Feitelson's fourth class) drive policy
  /// mode 1: setting min_procs above the current size strongly suggests
  /// an expansion, max_procs below it a shrink.  Call from rank 0 before
  /// the collective check.
  void set_request(const Request& request) {
    std::lock_guard<std::mutex> lock(request_mu_);
    request_ = request;
  }

 private:
  ResizeDecision negotiate(Mode mode);
  ResizeDecision broadcast(const smpi::Comm& world, ResizeDecision decision);

  Session& session_;
  ReconfigEngine engine_;
  mutable std::mutex request_mu_;
  Request request_;
};

}  // namespace dmr
