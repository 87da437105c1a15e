// Cluster workload simulation: a miniature of the paper's Section IX.
//
// Part 1 runs the same 16-job mixed workload (CG / Jacobi / N-body,
// submitted at their maximum size) through the virtual 32-node cluster
// twice — fixed and flexible — and prints the side-by-side metrics plus
// the evolution timeline, a small-scale Fig. 12.
//
// Part 2 goes beyond the paper's homogeneous testbed: the same job mix
// on a heterogeneous cluster of two partitions ("fast" nodes at full
// speed, "slow" nodes at 60%), a third of the jobs pinned to each
// partition and the rest free to span, with per-partition utilization
// reported.
#include <cstdio>

#include "dmr/simulation.hpp"
#include "dmr/util.hpp"

namespace {

using namespace dmr;

drv::JobPlan make_plan(int index, double arrival, bool flexible,
                       int cluster_nodes) {
  drv::JobPlan plan;
  switch (index % 3) {
    case 0: plan.model = apps::cg_model(); break;
    case 1: plan.model = apps::jacobi_model(); break;
    default: plan.model = apps::nbody_model(); break;
  }
  // Scale the iteration counts down so the example finishes instantly.
  plan.model.iterations = plan.model.iterations / 10 + 1;
  plan.arrival = arrival;
  plan.submit_nodes = std::min(plan.model.request.max_procs, cluster_nodes);
  plan.flexible = flexible;
  return plan;
}

drv::WorkloadMetrics run(bool flexible, std::string* chart_out) {
  sim::Engine engine;
  drv::DriverConfig config;
  config.rms.nodes = 32;
  drv::WorkloadDriver driver(engine, config);

  util::Rng rng(2017);
  double arrival = 0.0;
  for (int i = 0; i < 16; ++i) {
    arrival += rng.exponential_mean(40.0);
    driver.submit_at(make_plan(i, arrival, flexible, 32));
  }
  const auto metrics = driver.run();
  if (chart_out != nullptr) {
    util::TimeSeriesChart chart(metrics.makespan, 72, 5);
    chart.add_series("allocated nodes", driver.trace().series("allocated"));
    chart.add_series("running jobs", driver.trace().series("running"));
    *chart_out = chart.render();
  }
  return metrics;
}

drv::WorkloadMetrics run_heterogeneous() {
  sim::Engine engine;
  drv::DriverConfig config;
  config.rms.partitions = {rms::Partition{"fast", 16, 1.0},
                           rms::Partition{"slow", 16, 0.6}};
  drv::WorkloadDriver driver(engine, config);

  util::Rng rng(2017);
  double arrival = 0.0;
  for (int i = 0; i < 16; ++i) {
    arrival += rng.exponential_mean(40.0);
    drv::JobPlan plan = make_plan(i, arrival, /*flexible=*/true, 16);
    // A third pinned to each partition, a third spanning freely.
    if (i % 3 == 0) plan.partition = "fast";
    if (i % 3 == 1) plan.partition = "slow";
    driver.submit_at(std::move(plan));
  }
  return driver.run();
}

void report(const char* label, const drv::WorkloadMetrics& metrics) {
  std::printf("%-9s makespan %7.0f s | util %5.1f%% | wait %6.0f s | "
              "exec %5.0f s | completion %6.0f s | %lld shrinks, %lld "
              "expands\n",
              label, metrics.makespan, metrics.utilization * 100.0,
              metrics.wait.mean, metrics.execution.mean,
              metrics.completion.mean, metrics.shrinks, metrics.expands);
}

}  // namespace

int main() {
  std::printf("16 mixed jobs (CG/Jacobi/N-body) on a 32-node virtual "
              "cluster\n\n");
  std::string fixed_chart, flexible_chart;
  const auto fixed = run(false, &fixed_chart);
  const auto flexible = run(true, &flexible_chart);

  report("fixed", fixed);
  report("flexible", flexible);
  const double gain =
      (fixed.makespan - flexible.makespan) / fixed.makespan * 100.0;
  std::printf("\nflexible gain: %.1f%% of the fixed makespan\n\n", gain);

  std::printf("--- fixed timeline ---\n%s\n", fixed_chart.c_str());
  std::printf("--- flexible timeline ---\n%s\n", flexible_chart.c_str());

  std::printf("--- heterogeneous cluster: fast 16 @ 1.0 + slow 16 @ 0.6 "
              "---\n");
  const auto het = run_heterogeneous();
  report("het", het);
  for (const auto& part : het.partitions) {
    std::printf("  partition %-5s %2d nodes | util %5.1f%%\n",
                part.name.c_str(), part.nodes, part.utilization * 100.0);
  }
  return 0;
}
