#include "rms/policy.hpp"

#include <stdexcept>

namespace dmr::rms {

// Both run at every reconfiguring point that reaches the RMS, so they
// walk the factor powers in place rather than build the candidate lists.

int max_procs_to(int current, int factor, int limit, int idle_nodes) {
  if (current <= 0 || factor < 2) {
    throw std::invalid_argument("max_procs_to: bad arguments");
  }
  // Candidates grow, and so does the growth each needs: the last one
  // that fits in the idle nodes is the largest.  long long: size stays
  // <= limit before the multiply, so it cannot overflow.
  int best = 0;
  for (long long size = static_cast<long long>(current) * factor;
       size <= limit && size - current <= idle_nodes; size *= factor) {
    best = static_cast<int>(size);
  }
  return best;
}

int min_procs_run(int current, int factor, int ceiling, int min_procs) {
  if (current <= 0 || factor < 2) {
    throw std::invalid_argument("min_procs_run: bad arguments");
  }
  // Candidates shrink: the first one under the ceiling is the largest.
  int size = current;
  while (size % factor == 0) {
    size /= factor;
    if (size < min_procs) break;
    if (size <= ceiling) return size;
  }
  return 0;
}

namespace {

/// Wide optimization (Algorithm 1, lines 13-24).
Decision wide_optimization(const PolicyView& view,
                           const Request& request) {
  const Job& job = *view.job;
  const int current = job.allocated();
  Decision decision;

  if (!view.pending.empty()) {
    // Would any queued job start if this one released part of its
    // allocation?  Scan in queue order; the first beneficiary wins.
    for (const Job* target : view.pending) {
      const int need = target->requested_nodes - view.idle_nodes;
      if (need <= 0) {
        // The queued job already fits in the idle nodes: the scheduler
        // will start it on its next pass; no action from this job.
        return decision;
      }
      const int ceiling = current - need;
      if (ceiling < 1) continue;
      const int new_size =
          min_procs_run(current, request.factor, ceiling, request.min_procs);
      if (new_size > 0) {
        decision.action = Action::Shrink;
        decision.new_size = new_size;
        decision.boost_target = target->id;
        return decision;
      }
    }
    // No pending job can be helped (insufficient resources even after a
    // shrink): expanding is allowed (Algorithm 1, lines 19-21).
  }
  const int new_size = max_procs_to(current, request.factor,
                                    request.max_procs, view.idle_nodes);
  if (new_size > current) {
    decision.action = Action::Expand;
    decision.new_size = new_size;
  }
  return decision;
}

}  // namespace

Decision reconfiguration_policy(const PolicyView& view,
                                const Request& request) {
  if (view.job == nullptr || !view.job->running()) {
    throw std::invalid_argument("policy: job must be running");
  }
  const Job& job = *view.job;
  const int current = job.allocated();
  Decision decision;

  // Mode 1 — "request an action": bounds that exclude the current size
  // are a strong suggestion the RMS tries to honor first.
  if (request.min_procs > current) {
    const int new_size = max_procs_to(current, request.factor,
                                      request.max_procs, view.idle_nodes);
    if (new_size >= request.min_procs) {
      decision.action = Action::Expand;
      decision.new_size = new_size;
    }
    return decision;  // grant or refuse; no fallback past a forced ask
  }
  if (request.max_procs < current) {
    const int new_size = min_procs_run(current, request.factor,
                                       request.max_procs, request.min_procs);
    if (new_size > 0) {
      decision.action = Action::Shrink;
      decision.new_size = new_size;
    }
    return decision;
  }

  // Mode 2 — preferred number of nodes.
  if (request.preferred > 0) {
    if (view.pending.empty()) {
      // "Am I the only job in the queue?" -> grow up to the job maximum
      // (Algorithm 1, lines 2-4).
      const int new_size = max_procs_to(current, request.factor,
                                        request.max_procs, view.idle_nodes);
      if (new_size > current) {
        decision.action = Action::Expand;
        decision.new_size = new_size;
      }
      return decision;
    }
    if (request.preferred == current) {
      return decision;  // already at the desired size: "no action"
    }
    if (request.preferred > current) {
      const int new_size = max_procs_to(current, request.factor,
                                        request.preferred, view.idle_nodes);
      if (new_size > current) {
        decision.action = Action::Expand;
        decision.new_size = new_size;
        return decision;
      }
      return wide_optimization(view, request);  // line 13 fallthrough
    }
    // preferred < current: shrink straight to the preference when the
    // factor and the job minimum allow it (lines 10-12).
    if (request.preferred >= request.min_procs &&
        factor_reachable(current, request.preferred, request.factor)) {
      decision.action = Action::Shrink;
      decision.new_size = request.preferred;
      return decision;
    }
    return wide_optimization(view, request);
  }

  // Mode 3 — no preference: full RMS freedom.
  return wide_optimization(view, request);
}

}  // namespace dmr::rms
