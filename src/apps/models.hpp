// Application performance models for the workload simulation.
//
// The large-workload experiments (Figs. 3-12, Table II) run hundreds of
// jobs in virtual time; each job carries a model describing how long one
// iteration takes at a given process count and how much state a resize
// moves.  The presets encode Table I and the scalability study of
// Section IX-A:
//   - CG / Jacobi: high scalability, best at 32 procs, "sweet spot" at 8
//     (successive doublings past 8 gain < 10%);
//   - N-body: nearly flat — max at 16 procs but < 10% over sequential,
//     so its sweet spot is 1;
//   - FS: perfect linear scalability by construction.
#pragma once

#include <cstddef>
#include <string>

#include "rms/policy.hpp"

namespace dmr::apps {

/// The speedup curve a model's step time follows.
enum class Scaling {
  Linear,  ///< perfect linear scalability (FS)
  Cg,      ///< cg_speedup (CG and Jacobi)
  Nbody,   ///< nbody_speedup
};

struct AppModel {
  std::string name;
  /// Total reconfiguring-point iterations (Table I).
  int iterations = 1;
  /// DMR API arguments: min / max / factor / preferred (Table I).
  rms::Request request;
  /// Checking-inhibitor period in seconds (0 = disabled).
  double sched_period = 0.0;
  /// Bytes redistributed on a resize (the OmpSs data dependencies).
  std::size_t state_bytes = 0;
  Scaling scaling = Scaling::Linear;
  /// Seconds one iteration takes on one process (every curve is 1 there).
  double work = 0.0;

  /// Seconds for one iteration on `nprocs` processes: `work` over the
  /// speedup `scaling` gives at `nprocs`.
  double step_seconds(int nprocs) const;
};

/// Speedup curves (exposed for tests asserting the sweet-spot shape).
double cg_speedup(int nprocs);      // also used by Jacobi
double nbody_speedup(int nprocs);

/// Flexible Sleep: one step sleeps work_seconds/p; `step_at_submit` is
/// the per-step time at the submitted size (Feitelson runtime / steps).
AppModel fs_model(int steps, int submit_size, double step_at_submit,
                  int max_size, std::size_t data_bytes);

/// Table I presets.  `step32` / `step16` calibrate the absolute scale
/// (per-iteration seconds at the submission size).
AppModel cg_model(double step32 = 0.055);
AppModel jacobi_model(double step32 = 0.050);
AppModel nbody_model(double step16 = 24.0);

}  // namespace dmr::apps
