#include "drv/plan.hpp"

#include <stdexcept>

#include "apps/models.hpp"

namespace dmr::drv {

JobPlan plan_job(const wl::WorkloadJob& job, const PlanShape& shape) {
  if (shape.steps <= 0) {
    throw std::invalid_argument("plan_job: steps <= 0");
  }
  JobPlan plan;
  plan.arrival = job.arrival;
  plan.model = apps::fs_model(shape.steps, job.nodes, job.runtime / shape.steps,
                              job.max_nodes, shape.state_bytes);
  plan.model.request.min_procs = job.min_nodes;
  plan.model.request.max_procs = job.max_nodes;
  plan.submit_nodes = job.nodes;
  const bool rigid = job.min_nodes == job.nodes && job.max_nodes == job.nodes;
  plan.flexible = shape.flexible && !rigid;
  plan.moldable = shape.moldable;
  return plan;
}

std::vector<JobPlan> plans_from_workload(const wl::Workload& workload,
                                         const PlanShape& shape) {
  std::vector<JobPlan> plans;
  plans.reserve(workload.jobs.size());
  for (const wl::WorkloadJob& job : workload.jobs) {
    plans.push_back(plan_job(job, shape));
  }
  return plans;
}

}  // namespace dmr::drv
