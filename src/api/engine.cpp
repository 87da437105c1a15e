#include "dmr/engine.hpp"

#include <stdexcept>
#include <utility>

namespace dmr {

ReconfigEngine::ReconfigEngine(Session& session, double inhibitor_period)
    : session_(session), inhibitor_(inhibitor_period) {}

std::optional<Outcome> ReconfigEngine::check(Mode mode,
                                             const Request& request) {
  std::lock_guard<std::mutex> lock(mu_);
  if (session_.finished()) {
    throw std::logic_error("ReconfigEngine: check after finish");
  }
  if (!inhibitor_.allow(session_.now())) return std::nullopt;

  Outcome applied;
  if (mode == Mode::Sync) {
    // A synchronous point negotiates against the *current* state, which
    // supersedes any decision still deferred from an earlier
    // asynchronous point — drop it so a later Async call cannot apply
    // a long-outdated decision.
    deferred_.reset();
    applied = session_.check(request);
  } else {
    // Apply the decision negotiated at the previous point (if any),
    // then schedule a fresh negotiation whose result the *next* point
    // will apply — possibly against a changed system state
    // (Section VIII-C).
    const std::optional<Decision> previous =
        std::exchange(deferred_, std::nullopt);
    if (previous && previous->action != Action::None) {
      applied = session_.apply(*previous);
    }
    if (applied.action == Action::None) {
      deferred_ = session_.decide(request);
    }
  }

  if (applied.action == Action::Shrink && !applied.aborted) {
    shrink_pending_ = true;
  }
  return applied;
}

void ReconfigEngine::complete_shrink() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!shrink_pending_) return;
  shrink_pending_ = false;
  session_.complete_shrink();
}

Inhibitor ReconfigEngine::inhibitor() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inhibitor_;
}

}  // namespace dmr
