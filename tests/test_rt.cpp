// Integration tests of the runtime layer: the inhibitor, the DMR API
// negotiation over a live manager, and the full malleable loop with real
// ranks, spawns and data redistribution (using Flexible Sleep as the
// workload, via a tiny inline AppState).
#include <gtest/gtest.h>

#include <atomic>

#include "dmr/inhibitor.hpp"
#include "dmr/manager.hpp"
#include "dmr/reconfig_point.hpp"
#include "rt/malleable_app.hpp"
#include "rt/redistribute.hpp"
#include "smpi/universe.hpp"

namespace {

using namespace dmr;

TEST(Inhibitor, DisabledAllowsEverything) {
  dmr::Inhibitor inhibitor(0.0);
  for (double t : {0.0, 0.1, 0.2}) EXPECT_TRUE(inhibitor.allow(t));
}

TEST(Inhibitor, BlocksWithinPeriod) {
  dmr::Inhibitor inhibitor(5.0);
  EXPECT_TRUE(inhibitor.allow(0.0));
  EXPECT_FALSE(inhibitor.allow(2.0));
  EXPECT_FALSE(inhibitor.allow(4.999));
  EXPECT_TRUE(inhibitor.allow(5.0));
  EXPECT_FALSE(inhibitor.allow(7.0));
}

/// Minimal AppState: a distributed array where element i must equal
/// base + i + steps_done at all times — resizes must preserve it.
class ArrayState : public rt::AppState {
 public:
  explicit ArrayState(std::size_t total) : total_(total) {
    registry().add_block("array", local_, total_);
  }

  void init(int rank, int nprocs) override {
    const rt::BlockDistribution dist(total_, nprocs);
    local_.resize(dist.count(rank));
    for (std::size_t i = 0; i < local_.size(); ++i) {
      local_[i] = static_cast<double>(dist.begin(rank) + i);
    }
  }
  void compute_step(const smpi::Comm& world, int) override {
    world.barrier();
    for (double& v : local_) v += 1.0;
  }

  /// Validate against the oracle and report via allreduce (collective).
  static void expect_consistent(const smpi::Comm& world,
                                const std::vector<double>& local,
                                std::size_t total, int steps) {
    const rt::BlockDistribution dist(total, world.size());
    int bad = 0;
    for (std::size_t i = 0; i < local.size(); ++i) {
      const double expected =
          static_cast<double>(dist.begin(world.rank()) + i + steps);
      if (local[i] != expected) ++bad;
    }
    EXPECT_EQ(world.allreduce_sum(bad), 0);
  }

  const std::vector<double>& local() const { return local_; }
  std::size_t total() const { return total_; }

 private:
  std::size_t total_;
  std::vector<double> local_;
};

TEST(MalleableLoop, RunsWithoutResizes) {
  smpi::Universe universe;
  rt::MalleableConfig config;
  config.total_steps = 5;
  const auto report = rt::run_malleable(
      universe, nullptr, config,
      [] { return std::make_unique<ArrayState>(64); }, 4);
  universe.await_all();
  EXPECT_TRUE(universe.failures().empty());
  EXPECT_EQ(report.final_size, 4);
  EXPECT_EQ(report.steps_executed, 5);
  EXPECT_TRUE(report.resizes.empty());
}

TEST(MalleableLoop, ForcedExpandPreservesData) {
  smpi::Universe universe;
  rt::MalleableConfig config;
  config.total_steps = 6;
  config.forced_decision = [](int step, int size)
      -> std::optional<rt::ResizeDecision> {
    if (step == 3 && size == 2) {
      rt::ResizeDecision d;
      d.action = rms::Action::Expand;
      d.new_size = 4;
      return d;
    }
    return std::nullopt;
  };
  const auto report = rt::run_malleable(
      universe, nullptr, config,
      [] { return std::make_unique<ArrayState>(50); }, 2);
  universe.await_all();
  ASSERT_TRUE(universe.failures().empty()) << universe.failures()[0];
  EXPECT_EQ(report.final_size, 4);
  ASSERT_EQ(report.resizes.size(), 1u);
  EXPECT_EQ(report.resizes[0].old_size, 2);
  EXPECT_EQ(report.resizes[0].new_size, 4);
  EXPECT_EQ(report.resizes[0].step, 3);
  EXPECT_GT(report.resizes[0].spawn_seconds, 0.0);
  // Summed over the new ranks: all 50 elements, in the 4 transfers of
  // the 2 -> 4 block plan.
  EXPECT_EQ(report.resizes[0].bytes_redistributed, 50 * sizeof(double));
  EXPECT_EQ(report.resizes[0].redistribution_transfers, 4);
}

TEST(MalleableLoop, ForcedShrinkAndReExpand) {
  smpi::Universe universe;
  rt::MalleableConfig config;
  config.total_steps = 9;
  config.forced_decision = [](int step, int size)
      -> std::optional<rt::ResizeDecision> {
    rt::ResizeDecision d;
    if (step == 3 && size == 4) {
      d.action = rms::Action::Shrink;
      d.new_size = 2;
      return d;
    }
    if (step == 6 && size == 2) {
      d.action = rms::Action::Expand;
      d.new_size = 8;
      return d;
    }
    return std::nullopt;
  };
  const auto report = rt::run_malleable(
      universe, nullptr, config,
      [] { return std::make_unique<ArrayState>(41); }, 4);
  universe.await_all();
  ASSERT_TRUE(universe.failures().empty()) << universe.failures()[0];
  EXPECT_EQ(report.final_size, 8);
  ASSERT_EQ(report.resizes.size(), 2u);
  EXPECT_EQ(report.resizes[1].new_size, 8);
  EXPECT_EQ(universe.total_ranks_launched(), 4 + 2 + 8);
}

/// Final-state correctness: run with a scripted resize, then verify the
/// array equals the oracle at the end (checked inside the last step).
class CheckingArrayState final : public ArrayState {
 public:
  CheckingArrayState(std::size_t total, int last_step,
                     std::atomic<int>& checks)
      : ArrayState(total), last_step_(last_step), checks_(checks) {}
  void compute_step(const smpi::Comm& world, int step) override {
    ArrayState::compute_step(world, step);
    if (step == last_step_) {
      expect_consistent(world, local(), total(), step + 1);
      ++checks_;
    }
  }

 private:
  int last_step_;
  std::atomic<int>& checks_;
};

TEST(MalleableLoop, DataMatchesOracleAfterResizeChain) {
  smpi::Universe universe;
  std::atomic<int> checks{0};
  rt::MalleableConfig config;
  config.total_steps = 8;
  config.forced_decision = [](int step, int size)
      -> std::optional<rt::ResizeDecision> {
    rt::ResizeDecision d;
    if (step == 2 && size == 3) {
      d.action = rms::Action::Expand;
      d.new_size = 5;
      return d;
    }
    if (step == 5 && size == 5) {
      d.action = rms::Action::Shrink;
      d.new_size = 2;
      return d;
    }
    return std::nullopt;
  };
  rt::run_malleable(
      universe, nullptr, config,
      [&] { return std::make_unique<CheckingArrayState>(67, 7, checks); },
      3);
  universe.await_all();
  ASSERT_TRUE(universe.failures().empty()) << universe.failures()[0];
  EXPECT_EQ(checks.load(), 2);  // final world had 2 ranks
}

TEST(DmrRuntime, NegotiatedExpandThroughManager) {
  // Full stack: RMS job on an 8-node virtual cluster; the runtime's
  // check_status negotiates an expansion (empty queue -> grow to max).
  rms::Manager manager(rms::RmsConfig{.nodes = 8, .scheduler = {}});
  double now = 0.0;
  dmr::Session session(manager, [&now] { return now; });

  rms::JobSpec spec;
  spec.name = "flex";
  spec.requested_nodes = 2;
  spec.min_nodes = 1;
  spec.flexible = true;
  const rms::JobId job = session.submit(spec);
  session.schedule();
  ASSERT_TRUE(session.info().running());

  rms::Request request;
  request.min_procs = 1;
  request.max_procs = 8;
  auto runtime = std::make_shared<dmr::ReconfigPoint>(session, request);

  smpi::Universe universe;
  rt::MalleableConfig config;
  config.total_steps = 4;
  const auto report = rt::run_malleable(
      universe, runtime, config,
      [] { return std::make_unique<ArrayState>(32); }, 2);
  universe.await_all();
  ASSERT_TRUE(universe.failures().empty()) << universe.failures()[0];
  EXPECT_EQ(report.final_size, 8);
  EXPECT_EQ(manager.counters().expands, 1);
  EXPECT_EQ(manager.job(job).expansions, 1);
  // The job completed and released its (grown) allocation.
  EXPECT_EQ(manager.job(job).state, rms::JobState::Completed);
  EXPECT_EQ(manager.idle_nodes(), 8);
}

TEST(DmrRuntime, ShrinkReleasesNodesAndStartsQueuedJob) {
  rms::Manager manager(rms::RmsConfig{.nodes = 8, .scheduler = {}});
  double now = 0.0;
  dmr::Session session(manager, [&now] { return now; });

  rms::JobSpec spec;
  spec.name = "flex";
  spec.requested_nodes = 8;
  spec.min_nodes = 1;
  spec.flexible = true;
  session.submit(spec);
  session.schedule();

  dmr::Session rigid_session(session.connection());
  rms::JobSpec rigid;
  rigid.name = "rigid";
  rigid.requested_nodes = 4;
  rigid.min_nodes = 4;
  rigid_session.submit(rigid);
  rigid_session.schedule();
  ASSERT_TRUE(rigid_session.info().pending());

  rms::Request request;
  request.min_procs = 1;
  request.max_procs = 8;
  auto runtime = std::make_shared<dmr::ReconfigPoint>(session, request);

  smpi::Universe universe;
  rt::MalleableConfig config;
  config.total_steps = 4;
  const auto report = rt::run_malleable(
      universe, runtime, config,
      [] { return std::make_unique<ArrayState>(32); }, 8);
  universe.await_all();
  ASSERT_TRUE(universe.failures().empty()) << universe.failures()[0];
  // Wide optimization: shrink to 4 so the queued rigid job can start.
  EXPECT_EQ(report.final_size, 4);
  EXPECT_TRUE(rigid_session.info().running());
  EXPECT_TRUE(rigid_session.info().priority_boost ||
              rigid_session.info().running());
  EXPECT_EQ(manager.counters().shrinks, 1);
}

TEST(DmrRuntime, InhibitorSuppressesNegotiation) {
  rms::Manager manager(rms::RmsConfig{.nodes = 8, .scheduler = {}});
  double now = 0.0;
  dmr::Session session(manager, [&now] { return now; });
  rms::JobSpec spec;
  spec.name = "flex";
  spec.requested_nodes = 2;
  spec.min_nodes = 1;
  session.submit(spec);
  session.schedule();

  rms::Request request;
  request.min_procs = 1;
  request.max_procs = 8;
  // Huge inhibitor period: only the first check reaches the manager.
  auto runtime = std::make_shared<dmr::ReconfigPoint>(session, request,
                                                      /*inhibitor=*/1e9);
  smpi::Universe universe;
  universe.launch("t", 2, [&](smpi::Context& ctx) {
    // First check: goes through (expand granted: empty queue).
    const auto first = runtime->check_status(ctx.world());
    EXPECT_EQ(first.action, rms::Action::Expand);
    // Second check: inhibited -> None, manager not contacted again.
    const auto second = runtime->check_status(ctx.world());
    EXPECT_EQ(second.action, rms::Action::None);
  });
  universe.await_all();
  ASSERT_TRUE(universe.failures().empty()) << universe.failures()[0];
  EXPECT_EQ(manager.counters().checks, 1);
}

TEST(DmrRuntime, AsyncDefersDecisionByOneStep) {
  rms::Manager manager(rms::RmsConfig{.nodes = 8, .scheduler = {}});
  double now = 0.0;
  dmr::Session session(manager, [&now] { return now; });
  rms::JobSpec spec;
  spec.name = "flex";
  spec.requested_nodes = 2;
  spec.min_nodes = 1;
  const rms::JobId job = session.submit(spec);
  session.schedule();

  rms::Request request;
  request.min_procs = 1;
  request.max_procs = 8;
  auto runtime = std::make_shared<dmr::ReconfigPoint>(session, request);
  smpi::Universe universe;
  universe.launch("t", 2, [&](smpi::Context& ctx) {
    // icheck #1: nothing negotiated yet -> None, schedules negotiation.
    const auto first = runtime->icheck_status(ctx.world());
    EXPECT_EQ(first.action, rms::Action::None);
    // icheck #2: applies the expansion negotiated at step 1.
    const auto second = runtime->icheck_status(ctx.world());
    EXPECT_EQ(second.action, rms::Action::Expand);
    EXPECT_EQ(second.new_size, 8);
  });
  universe.await_all();
  ASSERT_TRUE(universe.failures().empty()) << universe.failures()[0];
  EXPECT_EQ(manager.job(job).allocated(), 8);
}

TEST(DmrRuntime, DecisionBroadcastConsistentAcrossRanks) {
  rms::Manager manager(rms::RmsConfig{.nodes = 8, .scheduler = {}});
  double now = 0.0;
  dmr::Session session(manager, [&now] { return now; });
  rms::JobSpec spec;
  spec.name = "flex";
  spec.requested_nodes = 4;
  spec.min_nodes = 1;
  session.submit(spec);
  session.schedule();
  rms::Request request;
  request.min_procs = 1;
  request.max_procs = 8;
  auto runtime = std::make_shared<dmr::ReconfigPoint>(session, request);
  smpi::Universe universe;
  std::mutex mu;
  std::vector<int> sizes;
  std::vector<size_t> host_counts;
  universe.launch("t", 4, [&](smpi::Context& ctx) {
    const auto decision = runtime->check_status(ctx.world());
    std::lock_guard<std::mutex> lock(mu);
    sizes.push_back(decision.new_size);
    host_counts.push_back(decision.hosts.size());
  });
  universe.await_all();
  ASSERT_TRUE(universe.failures().empty()) << universe.failures()[0];
  ASSERT_EQ(sizes.size(), 4u);
  for (int s : sizes) EXPECT_EQ(s, sizes[0]);
  for (size_t h : host_counts) EXPECT_EQ(h, 8u);  // expanded to 8 hosts
}

}  // namespace
