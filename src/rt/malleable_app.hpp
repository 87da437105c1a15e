// Real-mode malleable application loop (Listings 2-3 of the paper).
//
// An application provides an AppState that initializes, computes one
// step and registers its distributed buffers.  run_malleable() owns the
// iterate -> check -> (spawn + offload + retire) loop: when the DMR
// runtime returns an action, every old rank collectively spawns the new
// process set, offloads its registered buffers with redist::send_buffers
// (the OmpSs "onto" tasks), completes the shrink drain protocol when
// applicable, and exits — execution continues in the new
// communicator, exactly as the `taskwait` semantics of Listing 2.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dmr/reconfig_point.hpp"
#include "rt/app_state.hpp"
#include "smpi/universe.hpp"

namespace dmr::rt {

using ResizeDecision = ::dmr::ResizeDecision;

using StateFactory = std::function<std::unique_ptr<AppState>()>;

/// Scripted decision hook: lets benches force a resize schedule without a
/// resource manager (e.g. Fig. 1 resizes 48 -> {12, 24, 48}).
using ForcedDecision =
    std::function<std::optional<ResizeDecision>(int step, int current_size)>;

/// The loop's own settings; the DMR request and the inhibitor period
/// belong to the ReconfigPoint the loop checks through.
struct MalleableConfig {
  int total_steps = 1;
  /// Use dmr_icheck_status instead of dmr_check_status.
  bool asynchronous = false;
  /// When set, bypass the runtime negotiation entirely.
  ForcedDecision forced_decision;
  /// First step at which checks begin (step 0 check usually wasted).
  int first_check_step = 1;
};

/// One completed resize, with wall-clock timing of the non-solving phase.
struct ResizeRecord {
  int step = 0;
  int old_size = 0;
  int new_size = 0;
  Action action = Action::None;
  /// Seconds from "old rank 0 starts the spawn" to "new rank 0 finished
  /// receiving its state" — the paper's "spawning" bar in Fig. 1.
  double spawn_seconds = 0.0;
  /// Measured movement aggregated over the new process set: total bytes
  /// and transfers received, over the slowest rank's wall time.
  std::size_t bytes_redistributed = 0;
  int redistribution_transfers = 0;
  double redistribution_seconds = 0.0;
};

struct RunReport {
  std::vector<ResizeRecord> resizes;
  int final_size = 0;
  int steps_executed = 0;
  double total_seconds = 0.0;
};

/// Launch the application on `initial_size` ranks and return a future
/// that completes when the final process set finishes the last step.
/// `point` may be null when `config.forced_decision` drives resizes.
std::future<RunReport> start_malleable(
    smpi::Universe& universe, std::shared_ptr<::dmr::ReconfigPoint> point,
    MalleableConfig config, StateFactory factory, int initial_size,
    std::vector<std::string> hosts = {});

/// Convenience blocking wrapper.
RunReport run_malleable(smpi::Universe& universe,
                        std::shared_ptr<::dmr::ReconfigPoint> point,
                        MalleableConfig config, StateFactory factory,
                        int initial_size,
                        std::vector<std::string> hosts = {});

}  // namespace dmr::rt
