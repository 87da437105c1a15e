// Job -> drv::JobPlan conversion: the one place any job source (the
// Feitelson generator, an SWF archive, the service's submission stream)
// becomes driver input.  Each job runs the Flexible Sleep model
// (perfect scaling, `steps` reconfiguring points, per-step time
// calibrated so the job's total runtime at its submit size matches its
// source) with the DMR request bounds taken from the job's
// malleability annotation.
#pragma once

#include <cstddef>
#include <vector>

#include "drv/workload_driver.hpp"
#include "wl/workload.hpp"

namespace dmr::drv {

struct PlanShape {
  /// Reconfiguring-point steps per job (Table I FS runs 25).
  int steps = 25;
  /// Expose reconfiguring points.  A job whose annotation is effectively
  /// rigid (min == max == submit size) is planned as fixed either way —
  /// it has no room to reconfigure, so it should not pay check overhead.
  bool flexible = true;
  /// Moldable submission (scheduler may start below the submit size).
  bool moldable = false;
  /// Bytes redistributed on a resize.
  std::size_t state_bytes = std::size_t(1) << 30;
};

/// The plan of one job: arrival, submit size, runtime and request bounds
/// [min_nodes, max_nodes] from `job` (its index and source id are not
/// read), the rest from `shape`.  Throws std::invalid_argument when
/// shape.steps <= 0.
JobPlan plan_job(const wl::WorkloadJob& job, const PlanShape& shape);

/// One JobPlan per workload job, in workload order.
std::vector<JobPlan> plans_from_workload(const wl::Workload& workload,
                                         const PlanShape& shape);

}  // namespace dmr::drv
