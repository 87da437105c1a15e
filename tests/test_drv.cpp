// End-to-end workload-driver tests: the cost model, small fixed vs
// flexible workloads (the headline "flexible wins" property), async mode,
// heterogeneous mixes and determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/models.hpp"
#include "drv/workload_driver.hpp"
#include "obs/event.hpp"
#include "wl/feitelson.hpp"

namespace {

using namespace dmr;
using drv::CostModel;
using drv::DriverConfig;
using drv::JobPlan;
using drv::WorkloadDriver;
using drv::WorkloadMetrics;

TEST(Metrics, GainPercent) {
  EXPECT_DOUBLE_EQ(drv::gain_percent(100.0, 60.0), 40.0);
  EXPECT_DOUBLE_EQ(drv::gain_percent(100.0, 120.0), -20.0);
  EXPECT_DOUBLE_EQ(drv::gain_percent(0.0, 50.0), 0.0);  // guarded
}

TEST(CostModel, DegenerateSingleRank) {
  EXPECT_DOUBLE_EQ(CostModel::migrated_fraction(1, 1), 0.0);
  CostModel cost;
  // No data: only the spawn/protocol terms remain.
  EXPECT_NEAR(cost.reconfigure_seconds(0, 4, 8),
              CostModel::kSpawnLatency + CostModel::kPerProcSpawn * 8, 1e-12);
}

TEST(CostModel, MigratedFractionShape) {
  EXPECT_DOUBLE_EQ(CostModel::migrated_fraction(4, 4), 0.0);
  EXPECT_NEAR(CostModel::migrated_fraction(2, 4), 0.75, 1e-6);
  EXPECT_GT(CostModel::migrated_fraction(8, 32),
            CostModel::migrated_fraction(8, 16) - 1e-9);
}

TEST(CostModel, CrMuchSlowerThanDmr) {
  CostModel dmr_cost;
  CostModel cr_cost;
  cr_cost.use_checkpoint_restart = true;
  const std::size_t gigabyte = std::size_t(1) << 30;
  const double dmr_s = dmr_cost.reconfigure_seconds(gigabyte, 48, 24);
  const double cr_s = cr_cost.reconfigure_seconds(gigabyte, 48, 24);
  EXPECT_GT(cr_s / dmr_s, 10.0);  // the Fig. 1 gap
  // C/R writes the whole state to the store and reads it back.
  const auto moved = cr_cost.movement(gigabyte, 48, 24);
  EXPECT_TRUE(moved.via_checkpoint);
  EXPECT_EQ(moved.bytes_moved, 2 * gigabyte);
}

TEST(CostModel, NodeSpeedScalesNetworkTransferOnly) {
  CostModel cost;
  const std::size_t bytes = std::size_t(1) << 30;
  const double reference = cost.movement(bytes, 8, 16).seconds;
  // Half-speed nodes drive the network at half rate: twice the seconds.
  EXPECT_NEAR(cost.movement(bytes, 8, 16, 0.5).seconds, 2.0 * reference,
              1e-9);
  // Speed 1.0 (and the non-positive fallback) reproduce the reference.
  EXPECT_DOUBLE_EQ(cost.movement(bytes, 8, 16, 1.0).seconds, reference);
  EXPECT_DOUBLE_EQ(cost.movement(bytes, 8, 16, 0.0).seconds, reference);
  // The checkpoint route prices the shared filesystem, not the nodes.
  CostModel cr;
  cr.use_checkpoint_restart = true;
  EXPECT_DOUBLE_EQ(cr.movement(bytes, 8, 16, 0.5).seconds,
                   cr.movement(bytes, 8, 16).seconds);
}

TEST(CostModel, MovementMatchesReconfigureSeconds) {
  CostModel model;
  const std::size_t bytes = 64 << 20;
  EXPECT_NEAR(model.protocol_seconds(8) + model.movement(bytes, 4, 8).seconds,
              model.reconfigure_seconds(bytes, 4, 8), 1e-12);
}

TEST(CostModel, MoreLanesFasterRedistribution) {
  // Same shrink ratio, 8x the lanes: the data-movement term must shrink
  // even though the migrated fraction is slightly larger.
  CostModel cost;
  const std::size_t bytes = std::size_t(1) << 30;
  EXPECT_LT(cost.reconfigure_seconds(bytes, 16, 8),
            cost.reconfigure_seconds(bytes, 2, 1));
  // At equal bytes, 4 -> 8 rides four lanes and 1 -> 2 only one.
  EXPECT_LT(cost.movement(bytes, 4, 8).seconds,
            cost.movement(bytes, 1, 2).seconds);
}

JobPlan fs_plan(double arrival, int size, double runtime, int steps,
                bool flexible, int max_size = 20) {
  JobPlan plan;
  plan.arrival = arrival;
  plan.model = apps::fs_model(steps, size, runtime / steps, max_size,
                              std::size_t(1) << 20);
  plan.submit_nodes = size;
  plan.flexible = flexible;
  return plan;
}

DriverConfig small_config(int nodes) {
  DriverConfig config;
  config.rms.nodes = nodes;
  return config;
}

TEST(Driver, SingleJobRunsToCompletion) {
  sim::Engine engine;
  WorkloadDriver driver(engine, small_config(8));
  driver.submit_at(fs_plan(0.0, 4, 40.0, 2, /*flexible=*/false));
  const WorkloadMetrics metrics = driver.run();
  EXPECT_EQ(metrics.jobs, 1);
  // 2 steps x 20 s at the submitted size.
  EXPECT_NEAR(metrics.makespan, 40.0, 1e-9);
  EXPECT_NEAR(metrics.execution.mean, 40.0, 1e-9);
  EXPECT_NEAR(metrics.wait.mean, 0.0, 1e-9);
}

TEST(Driver, FlexibleLoneJobExpandsAndFinishesFaster) {
  sim::Engine engine;
  WorkloadDriver driver(engine, small_config(8));
  driver.submit_at(fs_plan(0.0, 2, 100.0, 10, /*flexible=*/true, 8));
  const WorkloadMetrics metrics = driver.run();
  EXPECT_EQ(metrics.jobs, 1);
  EXPECT_GE(metrics.expands, 1);
  // Perfect scaling: expanding 2 -> 8 cuts step time 4x; even with the
  // reconfiguration overhead the makespan must beat the fixed 100 s.
  EXPECT_LT(metrics.makespan, 70.0);
  // Every resize records its modeled redist::Report into the metrics.
  EXPECT_GT(metrics.bytes_redistributed, 0u);
  EXPECT_GT(metrics.redistribution_seconds, 0.0);
}

TEST(Driver, RigidWorkloadMovesNoBytes) {
  sim::Engine engine;
  WorkloadDriver driver(engine, small_config(8));
  driver.submit_at(fs_plan(0.0, 4, 40.0, 2, /*flexible=*/false));
  const WorkloadMetrics metrics = driver.run();
  EXPECT_EQ(metrics.bytes_redistributed, 0u);
  EXPECT_DOUBLE_EQ(metrics.redistribution_seconds, 0.0);
}

TEST(Driver, QueuedJobTriggersShrinkOfRunningJob) {
  sim::Engine engine;
  WorkloadDriver driver(engine, small_config(8));
  // Flexible hog takes all 8 nodes; a rigid 4-node job arrives later.
  driver.submit_at(fs_plan(0.0, 8, 200.0, 20, /*flexible=*/true, 8));
  driver.submit_at(fs_plan(10.0, 4, 40.0, 2, /*flexible=*/false));
  const WorkloadMetrics metrics = driver.run();
  EXPECT_EQ(metrics.jobs, 2);
  EXPECT_GE(metrics.shrinks, 1);
  // The rigid job must not wait for the hog's full 200 s runtime.
  EXPECT_LT(metrics.wait.max, 100.0);
}

/// Every shrink a job begins, and whether its drain completed before the
/// job next reached the RMS or finished (its next step runs in between).
struct DrainWatch final : obs::Sink {
  struct Shrink {
    rms::JobId job = rms::kInvalidJob;
    double begun = 0.0;
    double ended = -1.0;  // < 0 while draining
  };
  std::vector<Shrink> shrinks;
  int late = 0;

  obs::Interest interest() const override {
    using K = obs::EventKind;
    return obs::kinds(K::kShrinkBegun, K::kShrinkEnded, K::kNegotiateBegin,
                      K::kApplyBegin, K::kFinished);
  }
  void on_event(const obs::Event& event) override {
    Shrink* open = nullptr;
    for (Shrink& shrink : shrinks) {
      if (shrink.job == event.job && shrink.ended < 0.0) open = &shrink;
    }
    if (event.kind == obs::EventKind::kShrinkBegun) {
      shrinks.push_back({event.job, event.now});
    } else if (event.kind == obs::EventKind::kShrinkEnded) {
      if (open != nullptr) open->ended = event.now;
    } else if (open != nullptr) {
      ++late;
    }
  }
};

TEST(Driver, ShrinkDrainCompletesBeforeTheNextStep) {
  // The queued-job scenario with no state to move, through each path a
  // shrink's drain takes: at once, when the check costs nothing (the
  // cost model charges every resize its protocol latency, so only a
  // check overhead that cancels it gets there), after the synchronous
  // check's delay, and after the asynchronous point's.
  struct Path {
    const char* name;
    bool asynchronous;
    double check_overhead;
  };
  for (const Path& path : {Path{"at once", false, -10.0},
                           Path{"sync", false, 0.05},
                           Path{"async", true, 0.05}}) {
    sim::Engine engine;
    DriverConfig config = small_config(8);
    config.asynchronous = path.asynchronous;
    config.check_overhead_seconds = path.check_overhead;
    WorkloadDriver driver(engine, config);
    DrainWatch watch;
    driver.attach(watch);
    JobPlan hog = fs_plan(0.0, 8, 200.0, 20, /*flexible=*/true, 8);
    hog.model.state_bytes = 0;
    driver.submit_at(hog);
    driver.submit_at(fs_plan(10.0, 4, 40.0, 2, /*flexible=*/false));
    EXPECT_EQ(driver.run().jobs, 2) << path.name;
    ASSERT_FALSE(watch.shrinks.empty()) << path.name;
    for (const DrainWatch::Shrink& shrink : watch.shrinks) {
      EXPECT_GE(shrink.ended, shrink.begun) << path.name;
      if (path.check_overhead < 0.0) {
        EXPECT_EQ(shrink.ended, shrink.begun) << path.name;
      }
    }
    EXPECT_EQ(watch.late, 0) << path.name;
  }
}

WorkloadMetrics run_fs_workload(int jobs, bool flexible, bool asynchronous,
                                std::uint64_t seed, double sched_period = -1.0,
                                int steps = 2) {
  wl::FeitelsonParams params;
  params.jobs = jobs;
  params.max_size = 20;
  params.mean_interarrival = 10.0;
  params.max_runtime = 60.0 * steps;
  params.seed = seed;
  const auto workload = wl::generate_feitelson(params);

  sim::Engine engine;
  DriverConfig config;
  config.rms.nodes = 20;
  config.asynchronous = asynchronous;
  config.sched_period_override = sched_period;
  WorkloadDriver driver(engine, config);
  for (const auto& job : workload) {
    driver.submit_at(
        fs_plan(job.arrival, job.size, job.runtime, steps, flexible));
  }
  return driver.run();
}

TEST(Driver, FlexibleWorkloadBeatsFixed) {
  // The Fig. 3 property at miniature scale: same workload, flexible
  // configuration completes sooner and with shorter waits.
  const auto fixed = run_fs_workload(15, false, false, 42);
  const auto flexible = run_fs_workload(15, true, false, 42);
  EXPECT_EQ(fixed.jobs, 15);
  EXPECT_EQ(flexible.jobs, 15);
  EXPECT_GT(flexible.expands + flexible.shrinks, 0);
  EXPECT_LT(flexible.makespan, fixed.makespan);
  // With only 15 jobs on 20 nodes the fixed run barely queues, so allow
  // a small absolute wait regression; at workload scale (Fig. 11) the
  // flexible wait is dramatically lower.
  EXPECT_LE(flexible.wait.mean, fixed.wait.mean + 5.0);
}

TEST(Driver, DeterministicAcrossRuns) {
  const auto a = run_fs_workload(12, true, false, 7);
  const auto b = run_fs_workload(12, true, false, 7);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.wait.mean, b.wait.mean);
  EXPECT_EQ(a.expands, b.expands);
  EXPECT_EQ(a.shrinks, b.shrinks);
}

TEST(Driver, AsyncModeRunsAndResizes) {
  const auto metrics = run_fs_workload(12, true, true, 21);
  EXPECT_EQ(metrics.jobs, 12);
  EXPECT_GT(metrics.checks, 0);
}

TEST(Driver, InhibitorReducesChecks) {
  const auto eager = run_fs_workload(10, true, false, 5, 0.0, 30);
  const auto inhibited = run_fs_workload(10, true, false, 5, 10.0, 30);
  EXPECT_LT(inhibited.checks, eager.checks);
  EXPECT_EQ(inhibited.jobs, eager.jobs);
}

TEST(Driver, MixedWorkloadBothKindsComplete) {
  sim::Engine engine;
  WorkloadDriver driver(engine, small_config(16));
  for (int i = 0; i < 6; ++i) {
    driver.submit_at(
        fs_plan(i * 5.0, 4, 60.0, 2, /*flexible=*/(i % 2 == 0), 16));
  }
  const auto metrics = driver.run();
  EXPECT_EQ(metrics.jobs, 6);
  EXPECT_GT(metrics.makespan, 0.0);
}

TEST(Driver, UtilizationWithinBounds) {
  const auto metrics = run_fs_workload(10, true, false, 3);
  EXPECT_GT(metrics.utilization, 0.0);
  EXPECT_LE(metrics.utilization, 1.0);
}

TEST(Driver, UtilizationWindowStartsAtFirstArrival) {
  // One 4-node job on an 8-node cluster, arriving at t=100 and running
  // 40 s: utilization must be 0.5 over [100, 140], not diluted by the
  // empty lead-in to ~0.14 over [0, 140].
  sim::Engine engine;
  WorkloadDriver driver(engine, small_config(8));
  driver.submit_at(fs_plan(100.0, 4, 40.0, 2, /*flexible=*/false));
  const WorkloadMetrics metrics = driver.run();
  EXPECT_NEAR(metrics.makespan, 140.0, 1e-9);
  EXPECT_NEAR(metrics.utilization, 0.5, 1e-9);
}

TEST(Driver, EmptyWorkloadMetricsAreZeroNotNaN) {
  // An empty run (and a mid-run probe before anything arrived) must
  // report zeroed metrics, never divide by an empty window.
  sim::Engine engine;
  WorkloadDriver driver(engine, small_config(8));
  const WorkloadMetrics probed = driver.collect_metrics();
  EXPECT_EQ(probed.jobs, 0);
  EXPECT_DOUBLE_EQ(probed.utilization, 0.0);
  EXPECT_FALSE(std::isnan(probed.utilization));
  const WorkloadMetrics metrics = driver.run();
  EXPECT_EQ(metrics.jobs, 0);
  EXPECT_DOUBLE_EQ(metrics.makespan, 0.0);
  EXPECT_DOUBLE_EQ(metrics.utilization, 0.0);
  EXPECT_FALSE(std::isnan(metrics.utilization));
  EXPECT_FALSE(std::isnan(metrics.wait.mean));
}

TEST(Driver, StaleSubmissionIsRejectedNotReordered) {
  // Once the simulated clock passed an instant, a submission claiming to
  // arrive back then is an error — the driver refuses instead of
  // silently reordering history.
  sim::Engine engine;
  WorkloadDriver driver(engine, small_config(8));
  driver.submit_at(fs_plan(0.0, 4, 40.0, 2, /*flexible=*/false));
  driver.run();
  EXPECT_GT(engine.now(), 0.0);
  try {
    driver.submit_at(fs_plan(0.0, 2, 20.0, 2, /*flexible=*/false));
    FAIL() << "stale submission accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("precedes the simulated clock"),
              std::string::npos);
  }
  // A future arrival is still welcome: the driver keeps running.
  driver.submit_at(fs_plan(engine.now() + 10.0, 2, 20.0, 2,
                           /*flexible=*/false));
  engine.run();
  EXPECT_EQ(driver.completed(), 2);
}

DriverConfig heterogeneous_config() {
  DriverConfig config;
  config.rms.partitions = {rms::Partition{"fast", 4, 1.0},
                           rms::Partition{"slow", 4, 0.5}};
  return config;
}

JobPlan pinned_plan(const char* partition, double runtime, int steps) {
  JobPlan plan = fs_plan(0.0, 4, runtime, steps, /*flexible=*/false, 4);
  plan.partition = partition;
  return plan;
}

TEST(Driver, SlowPartitionScalesStepTime) {
  // The same job pinned to half-speed nodes takes exactly twice as long.
  double fast_makespan = 0.0;
  {
    sim::Engine engine;
    WorkloadDriver driver(engine, heterogeneous_config());
    driver.submit_at(pinned_plan("fast", 40.0, 2));
    fast_makespan = driver.run().makespan;
  }
  sim::Engine engine;
  WorkloadDriver driver(engine, heterogeneous_config());
  driver.submit_at(pinned_plan("slow", 40.0, 2));
  const double slow_makespan = driver.run().makespan;
  EXPECT_NEAR(fast_makespan, 40.0, 1e-9);
  EXPECT_NEAR(slow_makespan, 80.0, 1e-9);
}

TEST(Driver, SpanningJobGatedBySlowestNode) {
  // 6 nodes requested on a 4+4 heterogeneous cluster: the allocation
  // spans into the slow partition and the whole job steps at 0.5x.
  sim::Engine engine;
  WorkloadDriver driver(engine, heterogeneous_config());
  driver.submit_at(fs_plan(0.0, 6, 60.0, 2, /*flexible=*/false, 6));
  const WorkloadMetrics metrics = driver.run();
  EXPECT_NEAR(metrics.makespan, 120.0, 1e-9);
}

TEST(Driver, PartitionUtilizationReported) {
  sim::Engine engine;
  WorkloadDriver driver(engine, heterogeneous_config());
  driver.submit_at(pinned_plan("fast", 40.0, 2));
  driver.submit_at(pinned_plan("slow", 40.0, 2));
  const WorkloadMetrics metrics = driver.run();
  ASSERT_EQ(metrics.partitions.size(), 2u);
  EXPECT_EQ(metrics.partitions[0].name, "fast");
  EXPECT_EQ(metrics.partitions[1].name, "slow");
  // The slow job runs twice as long on its half of the cluster, so its
  // partition is busier over the common window.
  EXPECT_GT(metrics.partitions[1].utilization,
            metrics.partitions[0].utilization);
  for (const auto& part : metrics.partitions) {
    EXPECT_GT(part.utilization, 0.0);
    EXPECT_LE(part.utilization, 1.0);
  }
}

TEST(Driver, ScheduleTelemetryExposed) {
  const auto metrics = run_fs_workload(15, true, false, 42);
  EXPECT_GT(metrics.schedule_passes, 0);
  EXPECT_GT(metrics.schedule_passes_saved, 0);
  EXPECT_GE(metrics.schedule_requests, metrics.schedule_passes);
}

TEST(Driver, TraceSeriesRecorded) {
  sim::Engine engine;
  WorkloadDriver driver(engine, small_config(8));
  driver.submit_at(fs_plan(0.0, 4, 40.0, 2, false));
  driver.run();
  EXPECT_TRUE(driver.trace().has("allocated"));
  EXPECT_TRUE(driver.trace().has("running"));
  EXPECT_TRUE(driver.trace().has("completed"));
  EXPECT_DOUBLE_EQ(driver.trace().series("completed").max_value(), 1.0);
}

TEST(Driver, MemberSeriesAppearAtTheirFirstRecord) {
  // A federated member's "allocated@" series, and a multi-partition
  // member's per-partition ones, exist once that member's allocation
  // first changes; a member that never runs a job has none.
  DriverConfig config;
  config.federation.clusters = {
      fed::ClusterSpec{"plain", small_config(8).rms},
      fed::ClusterSpec{"split", heterogeneous_config().rms}};
  sim::Engine engine;
  WorkloadDriver driver(engine, config);
  driver.submit_at(pinned_plan("slow", 40.0, 2));  // only "split" has "slow"
  driver.run();
  std::string names;
  for (const std::string& name : driver.trace().names()) names += name + " ";
  EXPECT_EQ(names, "allocated allocated:split/fast allocated:split/slow "
                   "allocated@split completed running ");
}

TEST(Driver, RealisticMixWithTableOneModels) {
  // Miniature Section IX: CG/Jacobi/N-body jobs (scaled-down iteration
  // counts) on a 64-node cluster, submitted at their max size.
  sim::Engine engine;
  DriverConfig config;
  config.rms.nodes = 64;
  WorkloadDriver driver(engine, config);
  util::Rng rng(99);
  double arrival = 0.0;
  for (int i = 0; i < 9; ++i) {
    arrival += rng.exponential_mean(5.0);
    JobPlan plan;
    switch (i % 3) {
      case 0: plan.model = apps::cg_model(); break;
      case 1: plan.model = apps::jacobi_model(); break;
      default: plan.model = apps::nbody_model(); break;
    }
    plan.model.iterations = std::min(plan.model.iterations, 2000);
    plan.arrival = arrival;
    plan.submit_nodes = plan.model.request.max_procs;
    plan.flexible = true;
    driver.submit_at(plan);
  }
  const auto metrics = driver.run();
  EXPECT_EQ(metrics.jobs, 9);
  // The CG/Jacobi jobs prefer 8 procs: with contention some of them must
  // have shrunk from 32.
  EXPECT_GE(metrics.shrinks, 1);
}

}  // namespace
