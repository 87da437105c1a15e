// Federated clusters: the same mixed workload routed across a 3-member
// heterogeneous federation under each placement policy.
//
// The federation owns three virtual clusters — "alpha" (24 homogeneous
// reference nodes), "beta" (16 fast nodes at 1.25x + 8 slow at 0.6x)
// and "gamma" (12 nodes at 0.8x) — behind one dmr::Rms.  Jobs are
// submitted through the routing facade; the placement policy picks the
// member, and everything downstream (backfill scheduling, the DMR
// reconfiguring-point protocol, shrink draining) runs unchanged inside
// the owning member.  All members share one discrete-event clock.
//
// Jobs wider than 12 nodes never fit "gamma", so every policy also
// exercises the eligibility failover path.
#include <cstdio>

#include "dmr/simulation.hpp"
#include "dmr/util.hpp"

namespace {

using namespace dmr;

fed::FederationConfig make_federation(fed::Placement placement) {
  fed::FederationConfig config;
  config.placement = placement;
  {
    fed::ClusterSpec alpha;
    alpha.name = "alpha";
    alpha.rms.nodes = 24;
    config.clusters.push_back(std::move(alpha));
  }
  {
    fed::ClusterSpec beta;
    beta.name = "beta";
    beta.rms.partitions = {rms::Partition{"fast", 16, 1.25},
                           rms::Partition{"slow", 8, 0.6}};
    config.clusters.push_back(std::move(beta));
  }
  {
    fed::ClusterSpec gamma;
    gamma.name = "gamma";
    gamma.rms.partitions = {rms::Partition{"g", 12, 0.8}};
    config.clusters.push_back(std::move(gamma));
  }
  return config;
}

drv::JobPlan make_plan(int index, double arrival) {
  drv::JobPlan plan;
  switch (index % 3) {
    case 0: plan.model = apps::cg_model(); break;
    case 1: plan.model = apps::jacobi_model(); break;
    default: plan.model = apps::nbody_model(); break;
  }
  // Scale the iteration counts down so the example finishes instantly.
  plan.model.iterations = plan.model.iterations / 10 + 1;
  plan.arrival = arrival;
  // Mixed submission widths: some jobs at the largest member's size (24
  // — wider than gamma's 12 nodes, so they must fail over to alpha or
  // beta), the rest narrow enough for any member.
  static constexpr int kWidths[] = {24, 6, 12, 8};
  plan.submit_nodes = std::min(plan.model.request.max_procs,
                               kWidths[index % 4]);
  plan.flexible = true;
  return plan;
}

drv::WorkloadMetrics run(fed::Placement placement) {
  sim::Engine engine;
  drv::DriverConfig config;
  config.federation = make_federation(placement);
  drv::WorkloadDriver driver(engine, config);

  util::Rng rng(2017);
  double arrival = 0.0;
  for (int i = 0; i < 24; ++i) {
    arrival += rng.exponential_mean(25.0);
    driver.submit_at(make_plan(i, arrival));
  }
  return driver.run();
}

}  // namespace

int main() {
  std::printf(
      "24 mixed jobs (CG/Jacobi/N-body) on a 3-cluster federation\n"
      "  alpha: 24 nodes @ 1.0 | beta: 16 @ 1.25 + 8 @ 0.6 | gamma: 12 @ "
      "0.8\n\n");
  for (fed::Placement placement : fed::all_placements()) {
    const auto metrics = run(placement);
    std::printf(
        "%-15s makespan %6.0f s | util %5.1f%% | wait %5.0f s | "
        "completion %6.0f s | %lld shrinks, %lld expands\n",
        to_string(placement).c_str(), metrics.makespan,
        metrics.utilization * 100.0, metrics.wait.mean,
        metrics.completion.mean, metrics.shrinks, metrics.expands);
    for (const auto& member : metrics.clusters) {
      std::printf("    %-6s %2d nodes | %2d jobs | util %5.1f%% | wait %5.0f "
                  "s\n",
                  member.name.c_str(), member.nodes, member.jobs,
                  member.utilization * 100.0, member.wait.mean);
    }
  }
  return 0;
}
