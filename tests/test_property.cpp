// Property tests: system invariants under randomized operation sequences
// and parameter sweeps.
//
//  - Manager fuzz: any interleaving of submit / schedule / finish /
//    cancel / dmr_check / complete_shrink preserves cluster accounting
//    (no node owned twice, idle + allocated == total, job states sane),
//    and the pending queue the manager keeps ordered reads exactly as a
//    fresh sort by SubmitOrder would, under several submission mixes.
//  - Driver seed sweep: for every seed, the flexible run of a workload
//    is deterministic and its makespan never exceeds the fixed run's by
//    more than the reconfiguration overhead bound.
//  - smpi fuzz: a random message storm between N ranks delivers every
//    message exactly once with per-pair FIFO order.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <string>
#include <tuple>

#include "apps/models.hpp"
#include "drv/workload_driver.hpp"
#include "rms/manager.hpp"
#include "smpi/universe.hpp"
#include "util/rng.hpp"
#include "wl/feitelson.hpp"

namespace {

using namespace dmr;
using namespace dmr::rms;

// --- Manager fuzz ------------------------------------------------------------

void check_invariants(const Manager& manager, int cluster_nodes) {
  // Every node is owned by at most one job, and the books balance.
  std::set<int> owned;
  int allocated = 0;
  for (const Job* job : manager.jobs()) {
    if (!job->running()) {
      EXPECT_TRUE(job->nodes.empty())
          << "job " << job->id << " holds nodes while "
          << to_string(job->state);
      continue;
    }
    for (int node : job->nodes) {
      EXPECT_TRUE(owned.insert(node).second)
          << "node " << node << " owned twice";
      EXPECT_EQ(manager.cluster().node(node).owner, job->id);
    }
    allocated += job->allocated();
    EXPECT_GE(job->allocated(), 1);
    EXPECT_LE(job->allocated(), cluster_nodes);
  }
  EXPECT_LE(allocated, cluster_nodes);
  EXPECT_GE(manager.idle_nodes(), 0);
  // Timing sanity for finished jobs.
  for (const Job* job : manager.jobs()) {
    if (job->state == JobState::Completed) {
      EXPECT_GE(job->wait_time(), 0.0);
      EXPECT_GE(job->execution_time(), 0.0);
      EXPECT_DOUBLE_EQ(job->completion_time(),
                       job->wait_time() + job->execution_time());
    }
  }
}

/// Checks, at every point the manager reads its pending queue (a
/// scheduling pass begins, Algorithm 1 negotiates) and whenever the test
/// asks, that the queue it reads equals a fresh sort of the same jobs by
/// SubmitOrder.
struct QueueOrderCheck final : obs::Sink {
  /// Every job submitted, internal resizers included.
  std::vector<JobId> ids;

  obs::Interest interest() const override {
    return obs::kinds(obs::EventKind::kSubmitted, obs::EventKind::kPassBegin,
                      obs::EventKind::kNegotiateBegin);
  }
  void on_event(const obs::Event& event) override {
    if (event.kind == obs::EventKind::kSubmitted) {
      ids.push_back(event.job);
      return;
    }
    check(*event.manager, event.now, event.kind == obs::EventKind::kPassBegin);
  }

  /// The pass's queue keeps internal resizers; Algorithm 1's does not.
  void check(const Manager& manager, double now, bool pass) const {
    std::vector<const Job*> expected;
    for (JobId id : ids) {
      const Job& job = manager.job(id);
      if (!job.pending() || (!pass && job.spec.internal_resizer)) continue;
      if (job.spec.depends_on && !manager.job(*job.spec.depends_on).running()) {
        continue;
      }
      expected.push_back(&job);
    }
    std::sort(expected.begin(), expected.end(), SubmitOrder{});
    const std::span<const Job* const> read =
        pass ? manager.pending_queue() : manager.pending_snapshot();
    EXPECT_EQ(ids_of(read), ids_of(expected))
        << (pass ? "pass" : "policy") << " queue at t=" << now;
  }

  static std::vector<JobId> ids_of(std::span<const Job* const> jobs) {
    std::vector<JobId> out;
    for (const Job* job : jobs) out.push_back(job->id);
    return out;
  }
};

/// One fuzz configuration: how often a submission takes an unusual
/// shape.  Probabilities of 0 draw nothing from the generator, so
/// "default" replays the original fuzz streams.
struct FuzzConfig {
  const char* name;
  /// Submissions that depend on a live job (views must filter them).
  double dependent = 0.0;
  /// Submissions stamped up to 50 s in the past.
  double backdated = 0.0;
  double moldable = 0.2;
};

void PrintTo(const FuzzConfig& config, std::ostream* out) {
  *out << config.name;
}

const FuzzConfig kFuzzConfigs[] = {
    {.name = "default"},
    // Views filter out dependents, and a back-dated submission lands
    // inside the queue rather than at its end.
    {.name = "dependents_backdated", .dependent = 0.15, .backdated = 0.2},
    // Molded heads change requested_nodes while other jobs wait.
    {.name = "moldable", .moldable = 0.6},
};

using FuzzCase = std::tuple<FuzzConfig, std::uint64_t>;

class ManagerFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(ManagerFuzz, InvariantsHoldUnderRandomOperations) {
  constexpr int kNodes = 16;
  const auto& [fuzz, seed] = GetParam();
  Manager manager(RmsConfig{.nodes = kNodes, .scheduler = {}});
  QueueOrderCheck order;
  manager.attach(order);
  util::Rng rng(seed);
  double now = 0.0;
  std::vector<JobId> live;
  std::map<JobId, bool> draining;

  for (int op = 0; op < 400; ++op) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " op " << op);
    now += rng.exponential_mean(5.0);
    const double dice = rng.uniform();
    if (dice < 0.35 || live.empty()) {
      JobSpec spec;
      spec.name = "fuzz" + std::to_string(op);
      spec.requested_nodes =
          static_cast<int>(rng.uniform_int(1, kNodes));
      spec.min_nodes = 1;
      spec.max_nodes = kNodes;
      spec.flexible = rng.bernoulli(0.7);
      spec.moldable = rng.bernoulli(fuzz.moldable);
      spec.time_limit = rng.uniform(10.0, 500.0);
      if (fuzz.dependent > 0.0 && !live.empty() &&
          rng.bernoulli(fuzz.dependent)) {
        const auto parent = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        spec.depends_on = live[parent];
      }
      double at = now;
      if (fuzz.backdated > 0.0 && rng.bernoulli(fuzz.backdated)) {
        at -= rng.uniform(0.0, 50.0);
      }
      live.push_back(manager.submit(spec, at));
      manager.schedule(now);
    } else {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const JobId id = live[pick];
      const Job& job = manager.job(id);
      if (job.finished()) {
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        draining.erase(id);
      } else if (draining.count(id) != 0) {
        manager.complete_shrink(id, now);
        draining.erase(id);
      } else if (job.pending()) {
        if (rng.bernoulli(0.3)) manager.cancel(id, now);
      } else if (job.running()) {
        const double action = rng.uniform();
        if (action < 0.4) {
          manager.job_finished(id, now);
        } else if (action < 0.5) {
          manager.cancel(id, now);
        } else {
          Request request;
          request.min_procs = 1;
          request.max_procs = kNodes;
          request.preferred =
              rng.bernoulli(0.5)
                  ? static_cast<int>(rng.uniform_int(1, kNodes))
                  : 0;
          const Outcome outcome = manager.dmr_check(id, request, now);
          if (outcome.action == Action::Shrink) draining[id] = true;
        }
      }
    }
    check_invariants(manager, kNodes);
    order.check(manager, now, /*pass=*/true);
    order.check(manager, now, /*pass=*/false);
  }

  // Drain everything; the system must wind down cleanly.
  for (JobId id : live) {
    const Job& job = manager.job(id);
    if (job.finished()) continue;
    if (draining.count(id) != 0) manager.complete_shrink(id, now);
    manager.cancel(id, now);
  }
  check_invariants(manager, kNodes);
  EXPECT_EQ(manager.idle_nodes(), kNodes);
  EXPECT_TRUE(manager.all_done());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ManagerFuzz,
    ::testing::Combine(::testing::ValuesIn(kFuzzConfigs),
                       ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89)),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             std::to_string(std::get<1>(info.param));
    });

// --- Driver seed sweep ---------------------------------------------------------

struct DriverSweepCase {
  std::uint64_t seed;
  int jobs;
};

class DriverSweep : public ::testing::TestWithParam<DriverSweepCase> {};

drv::WorkloadMetrics run_sweep(const DriverSweepCase& param, bool flexible) {
  wl::FeitelsonParams params;
  params.jobs = param.jobs;
  params.max_size = 20;
  params.mean_interarrival = 10.0;
  params.max_runtime = 300.0;
  params.seed = param.seed;
  const auto workload = wl::generate_feitelson(params);

  sim::Engine engine;
  drv::DriverConfig config;
  config.rms.nodes = 20;
  drv::WorkloadDriver driver(engine, config);
  for (const auto& job : workload) {
    drv::JobPlan plan;
    plan.arrival = job.arrival;
    plan.model = apps::fs_model(10, job.size, job.runtime / 10, 20,
                                std::size_t(1) << 24);
    plan.submit_nodes = job.size;
    plan.flexible = flexible;
    driver.add(std::move(plan));
  }
  return driver.run();
}

TEST_P(DriverSweep, FlexibleNeverCatastrophicallyWorse) {
  const auto fixed = run_sweep(GetParam(), false);
  const auto flexible = run_sweep(GetParam(), true);
  EXPECT_EQ(fixed.jobs, GetParam().jobs);
  EXPECT_EQ(flexible.jobs, GetParam().jobs);
  // The malleability contract: flexible completes the workload in at
  // most a small overhead factor of the fixed time, usually less.
  EXPECT_LT(flexible.makespan, fixed.makespan * 1.15)
      << "seed " << GetParam().seed;
  // Utilization within physical bounds and some reconfiguration done.
  EXPECT_GT(flexible.utilization, 0.0);
  EXPECT_LE(flexible.utilization, 1.0);
}

TEST_P(DriverSweep, RunsAreDeterministic) {
  const auto a = run_sweep(GetParam(), true);
  const auto b = run_sweep(GetParam(), true);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.wait.mean, b.wait.mean);
  EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.expands, b.expands);
  EXPECT_EQ(a.shrinks, b.shrinks);
  EXPECT_EQ(a.checks, b.checks);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DriverSweep,
    ::testing::Values(DriverSweepCase{11, 12}, DriverSweepCase{22, 12},
                      DriverSweepCase{33, 20}, DriverSweepCase{44, 20},
                      DriverSweepCase{55, 30}, DriverSweepCase{66, 30}));

// --- smpi message storm ----------------------------------------------------------

TEST(SmpiStorm, EveryMessageDeliveredOnceInPairOrder) {
  constexpr int kRanks = 4;
  constexpr int kPerPair = 200;
  smpi::Universe universe;
  universe.launch("storm", kRanks, [&](smpi::Context& ctx) {
    // Each rank sends kPerPair sequenced messages to every other rank,
    // interleaved, then receives and checks sequence order per source.
    util::Rng rng(1000 + static_cast<std::uint64_t>(ctx.rank()));
    std::vector<int> next_seq(kRanks, 0);
    std::vector<int> targets;
    for (int r = 0; r < kRanks; ++r) {
      if (r == ctx.rank()) continue;
      for (int i = 0; i < kPerPair; ++i) targets.push_back(r);
    }
    rng.shuffle(targets);
    std::vector<int> sent(kRanks, 0);
    for (int target : targets) {
      const int payload[2] = {ctx.rank(), sent[static_cast<size_t>(target)]++};
      ctx.world().send(target, 77, std::span<const int>(payload, 2));
    }
    // Receive (kRanks-1) * kPerPair messages from anyone.
    std::vector<int> got(kRanks, 0);
    for (int i = 0; i < (kRanks - 1) * kPerPair; ++i) {
      const auto msg = ctx.world().recv<int>(smpi::kAnySource, 77);
      ASSERT_EQ(msg.size(), 2u);
      const int from = msg[0];
      const int seq = msg[1];
      EXPECT_EQ(seq, got[static_cast<size_t>(from)]++)
          << "out-of-order from " << from;
    }
    for (int r = 0; r < kRanks; ++r) {
      if (r != ctx.rank()) {
        EXPECT_EQ(got[static_cast<size_t>(r)], kPerPair);
      }
    }
  });
  universe.await_all();
  EXPECT_TRUE(universe.failures().empty());
}

// --- Feitelson sweep ---------------------------------------------------------------

class WorkloadSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorkloadSweep, GeneratedWorkloadsAreWellFormed) {
  wl::FeitelsonParams params;
  params.jobs = 150;
  params.max_size = 32;
  params.mean_interarrival = 7.0;
  params.seed = GetParam();
  const auto jobs = wl::generate_feitelson(params);
  ASSERT_EQ(jobs.size(), 150u);
  double prev = 0.0;
  for (const auto& job : jobs) {
    EXPECT_GE(job.size, 1);
    EXPECT_LE(job.size, 32);
    EXPECT_GE(job.runtime, 1.0);
    EXPECT_GE(job.arrival, prev);
    prev = job.arrival;
    if (job.repeat_of >= 0) {
      EXPECT_LT(job.repeat_of, job.index);
      EXPECT_EQ(jobs[static_cast<size_t>(job.repeat_of)].size, job.size);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadSweep,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
