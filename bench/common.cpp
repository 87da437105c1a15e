#include "common.hpp"

#include <algorithm>
#include <cstdio>

#include "dmr/util.hpp"

namespace dmr::bench {

namespace {

std::vector<drv::JobPlan> build_fs_plans(const FsWorkloadOptions& options) {
  wl::FeitelsonParams params;
  params.jobs = options.jobs;
  params.max_size = options.nodes;
  params.mean_interarrival = options.mean_arrival;
  params.max_runtime = options.max_step_runtime * options.steps;
  params.short_runtime_mean = options.short_runtime_mean;
  params.long_runtime_mean = options.long_runtime_mean;
  params.seed = options.seed;
  const auto workload = wl::generate_feitelson(params);

  util::Rng flex_rng(options.seed ^ 0xf1e2d3c4ULL);
  std::vector<drv::JobPlan> plans;
  plans.reserve(workload.size());
  for (const auto& job : workload) {
    drv::JobPlan plan;
    plan.arrival = job.arrival;
    plan.model = apps::fs_model(options.steps, job.size,
                                job.runtime / options.steps, options.nodes,
                                options.data_bytes);
    plan.submit_nodes = job.size;
    const bool flexible_job = options.flexible &&
                              flex_rng.uniform() < options.flexible_rate;
    plan.flexible = flexible_job;
    plans.push_back(std::move(plan));
  }
  return plans;
}

drv::DriverConfig fs_driver_config(const FsWorkloadOptions& options) {
  drv::DriverConfig config;
  config.rms.nodes = options.nodes;
  config.asynchronous = options.asynchronous;
  config.sched_period_override = options.sched_period;
  config.check_overhead_seconds = options.check_overhead;
  return config;
}

std::vector<drv::JobPlan> build_realistic_plans(
    const RealisticWorkloadOptions& options) {
  // "Each workload is composed of a set of randomly-sorted jobs (with a
  // fixed seed) which instantiate one of the three real applications
  // (33% of jobs of each application class)."
  std::vector<apps::AppModel> classes = {apps::cg_model(),
                                         apps::jacobi_model(),
                                         apps::nbody_model()};
  std::vector<int> class_of(static_cast<std::size_t>(options.jobs));
  for (int i = 0; i < options.jobs; ++i) {
    class_of[static_cast<std::size_t>(i)] = i % 3;
  }
  util::Rng rng(options.seed);
  rng.shuffle(class_of);

  std::vector<drv::JobPlan> plans;
  plans.reserve(static_cast<std::size_t>(options.jobs));
  double arrival = 0.0;
  for (int i = 0; i < options.jobs; ++i) {
    arrival += rng.exponential_mean(options.mean_arrival);
    drv::JobPlan plan;
    plan.model = classes[static_cast<std::size_t>(
        class_of[static_cast<std::size_t>(i)])];
    plan.model.iterations = std::max(
        1, static_cast<int>(plan.model.iterations * options.iteration_scale));
    plan.arrival = arrival;
    // "The job submission of each application is launched with its
    // 'maximum' value, reflecting the user-preferred scenario of a fast
    // execution."
    plan.submit_nodes = plan.model.request.max_procs;
    plan.flexible = options.flexible;
    plan.moldable = options.moldable;
    plans.push_back(std::move(plan));
  }
  return plans;
}

drv::DriverConfig realistic_driver_config(
    const RealisticWorkloadOptions& options) {
  drv::DriverConfig config;
  config.rms.nodes = options.nodes;
  config.rms.shrink_priority_boost = options.shrink_priority_boost;
  config.rms.scheduler.backfill = options.backfill;
  config.cost = options.cost;
  config.hooks = options.hooks;
  return config;
}

std::string timeline_from_driver(const drv::WorkloadDriver& driver,
                                 double makespan, std::size_t columns,
                                 std::size_t height) {
  util::TimeSeriesChart chart(makespan, columns, height);
  for (const char* series : {"allocated", "running", "completed"}) {
    if (driver.trace().has(series)) {
      chart.add_series(series, driver.trace().series(series));
    }
  }
  return chart.render();
}

}  // namespace

drv::WorkloadMetrics run_fs_workload(const FsWorkloadOptions& options) {
  sim::Engine engine;
  drv::WorkloadDriver driver(engine, fs_driver_config(options));
  for (auto& plan : build_fs_plans(options)) driver.submit_at(std::move(plan));
  return driver.run();
}

drv::WorkloadMetrics run_realistic_workload(
    const RealisticWorkloadOptions& options) {
  sim::Engine engine;
  drv::WorkloadDriver driver(engine, realistic_driver_config(options));
  for (auto& plan : build_realistic_plans(options)) {
    driver.submit_at(std::move(plan));
  }
  return driver.run();
}

std::string fs_timeline_chart(const FsWorkloadOptions& options,
                              std::size_t columns, std::size_t height) {
  sim::Engine engine;
  drv::WorkloadDriver driver(engine, fs_driver_config(options));
  for (auto& plan : build_fs_plans(options)) driver.submit_at(std::move(plan));
  const auto metrics = driver.run();
  return timeline_from_driver(driver, metrics.makespan, columns, height);
}

std::string realistic_timeline_chart(const RealisticWorkloadOptions& options,
                                     std::size_t columns,
                                     std::size_t height) {
  sim::Engine engine;
  drv::WorkloadDriver driver(engine, realistic_driver_config(options));
  for (auto& plan : build_realistic_plans(options)) {
    driver.submit_at(std::move(plan));
  }
  const auto metrics = driver.run();
  return timeline_from_driver(driver, metrics.makespan, columns, height);
}

void print_header(const std::string& figure, const std::string& what) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", figure.c_str(), what.c_str());
  std::printf("================================================================\n");
}

}  // namespace dmr::bench
