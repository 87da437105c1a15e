// Cross-module integration tests: multiple real malleable jobs sharing
// one resource manager and one thread universe, exercising the complete
// negotiate -> spawn -> redistribute -> retire pipeline concurrently.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>

#include "apps/flexible_sleep.hpp"
#include "ckpt/cr_runner.hpp"
#include "dmr/manager.hpp"
#include "dmr/reconfig_point.hpp"
#include "dmr/session.hpp"
#include "rt/malleable_app.hpp"
#include "smpi/universe.hpp"

namespace {

using namespace dmr;

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

dmr::JobSpec flex_spec(const std::string& name, int nodes) {
  dmr::JobSpec spec;
  spec.name = name;
  spec.requested_nodes = nodes;
  spec.min_nodes = 1;
  spec.flexible = true;
  spec.time_limit = 60.0;
  return spec;
}

TEST(Integration, SecondJobExpandsIntoNodesFreedByFirst) {
  // A (4 nodes, short) and B (4 nodes, long) fill the 8-node cluster.
  // When A completes, B's next reconfiguring point finds the queue empty
  // and 4 idle nodes: it must expand to 8.
  dmr::Manager manager(dmr::RmsConfig{.nodes = 8, .scheduler = {}});
  auto connection =
      std::make_shared<dmr::Connection>(manager, [] { return wall_now(); });

  dmr::Session session_a(connection);
  dmr::Session session_b(connection);
  session_a.submit(flex_spec("A", 4));
  session_b.submit(flex_spec("B", 4));
  connection->schedule();
  ASSERT_TRUE(session_a.info().running());
  ASSERT_TRUE(session_b.info().running());

  dmr::Request req_a{.min_procs = 1, .max_procs = 4, .factor = 2,
                        .preferred = 0};
  dmr::Request req_b{.min_procs = 1, .max_procs = 8, .factor = 2,
                        .preferred = 0};
  auto runtime_a = std::make_shared<dmr::ReconfigPoint>(session_a, req_a);
  auto runtime_b = std::make_shared<dmr::ReconfigPoint>(session_b, req_b);

  apps::FlexibleSleepConfig fs_a;
  fs_a.array_elements = 32;
  apps::FlexibleSleepConfig fs_b;
  fs_b.array_elements = 64;
  fs_b.work_seconds = 0.02;  // ~5 ms steps keep B alive past A's exit

  smpi::Universe universe;
  rt::MalleableConfig config_a;
  config_a.total_steps = 2;
  auto future_a = rt::start_malleable(
      universe, runtime_a, config_a,
      [fs_a] { return std::make_unique<apps::FlexibleSleepState>(fs_a); },
      4);
  rt::MalleableConfig config_b;
  config_b.total_steps = 60;
  auto future_b = rt::start_malleable(
      universe, runtime_b, config_b,
      [fs_b] { return std::make_unique<apps::FlexibleSleepState>(fs_b); },
      4);

  const auto report_a = future_a.get();
  const auto report_b = future_b.get();
  universe.await_all();
  ASSERT_TRUE(universe.failures().empty()) << universe.failures()[0];

  EXPECT_EQ(report_a.final_size, 4);  // A is capped at 4, never grows
  EXPECT_EQ(report_b.final_size, 8);  // B expanded into A's nodes
  EXPECT_GE(manager.counters().expands, 1);
  EXPECT_TRUE(manager.all_done());
  EXPECT_EQ(manager.idle_nodes(), 8);
}

TEST(Integration, ShrinkHandsNodesToQueuedMalleableJob) {
  // A holds the whole cluster; B queues.  A's reconfiguring point shrinks
  // it (wide optimization, boosting B), B starts on the freed nodes, and
  // both finish.
  dmr::Manager manager(dmr::RmsConfig{.nodes = 8, .scheduler = {}});
  auto connection =
      std::make_shared<dmr::Connection>(manager, [] { return wall_now(); });

  dmr::Session session_a(connection);
  session_a.submit(flex_spec("A", 8));
  connection->schedule();
  dmr::Session session_b(connection);
  session_b.submit(flex_spec("B", 4));
  connection->schedule();
  ASSERT_TRUE(session_b.info().pending());

  dmr::Request req{.min_procs = 1, .max_procs = 8, .factor = 2,
                      .preferred = 0};
  auto runtime_a = std::make_shared<dmr::ReconfigPoint>(session_a, req);

  apps::FlexibleSleepConfig fs;
  fs.array_elements = 48;
  fs.work_seconds = 0.01;

  smpi::Universe universe;
  rt::MalleableConfig config_a;
  config_a.total_steps = 8;
  auto future_a = rt::start_malleable(
      universe, runtime_a, config_a,
      [fs] { return std::make_unique<apps::FlexibleSleepState>(fs); }, 8);

  // B's payload launches once the manager reports it running.
  std::atomic<bool> b_started{false};
  std::future<rt::RunReport> future_b;
  for (int spin = 0; spin < 2000; ++spin) {
    if (session_b.info().running()) {
      b_started = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(b_started.load()) << "queued job never started";
  auto runtime_b = std::make_shared<dmr::ReconfigPoint>(session_b, req);
  rt::MalleableConfig config_b;
  config_b.total_steps = 2;
  future_b = rt::start_malleable(
      universe, runtime_b, config_b,
      [fs] { return std::make_unique<apps::FlexibleSleepState>(fs); },
      session_b.info().allocated);

  const auto report_a = future_a.get();
  const auto report_b = future_b.get();
  universe.await_all();
  ASSERT_TRUE(universe.failures().empty()) << universe.failures()[0];

  EXPECT_GE(manager.counters().shrinks, 1);
  EXPECT_LE(report_a.final_size, 8);
  EXPECT_GE(report_b.final_size, 1);
  EXPECT_TRUE(manager.all_done());
  EXPECT_EQ(manager.idle_nodes(), 8);
}

TEST(Integration, InhibitedJobNeverContactsRmsAgain) {
  dmr::Manager manager(dmr::RmsConfig{.nodes = 8, .scheduler = {}});
  dmr::Session session(manager, [] { return wall_now(); });
  session.submit(flex_spec("quiet", 4));
  session.schedule();

  dmr::Request req{.min_procs = 1, .max_procs = 8, .factor = 2,
                      .preferred = 4};
  // Preferred == current and a giant inhibitor: the first check returns
  // "no action" (queue empty -> it may expand; use preferred=4... the
  // empty-queue branch expands).  Use max=4 to pin it.
  req.max_procs = 4;
  auto runtime = std::make_shared<dmr::ReconfigPoint>(session, req,
                                                      /*inhibitor=*/3600.0);

  apps::FlexibleSleepConfig fs;
  fs.array_elements = 16;
  smpi::Universe universe;
  rt::MalleableConfig config;
  config.total_steps = 10;
  const auto report = rt::run_malleable(
      universe, runtime, config,
      [fs] { return std::make_unique<apps::FlexibleSleepState>(fs); }, 4);
  universe.await_all();
  ASSERT_TRUE(universe.failures().empty()) << universe.failures()[0];
  EXPECT_EQ(report.final_size, 4);
  EXPECT_LE(manager.counters().checks, 1);  // only the first negotiation
  EXPECT_TRUE(manager.all_done());
}

/// Flexible Sleep that hands the gathered global array of its final
/// step (step 5) to the test.
class Capture final : public apps::FlexibleSleepState {
 public:
  Capture(apps::FlexibleSleepConfig config, std::vector<double>* out,
          std::mutex* mu)
      : FlexibleSleepState(config), out_(out), mu_(mu) {}

  void compute_step(const smpi::Comm& world, int step) override {
    FlexibleSleepState::compute_step(world, step);
    if (step == 5) {
      const auto all = world.allgatherv(std::span<const double>(local()));
      if (world.rank() == 0) {
        std::lock_guard<std::mutex> lock(*mu_);
        *out_ = all;
      }
    }
  }

 private:
  std::vector<double>* out_;
  std::mutex* mu_;
};

TEST(Integration, CheckpointAndDmrProduceIdenticalState) {
  // The same FS run through the two malleability mechanisms must land on
  // the same global array (C/R is slower, not different).
  apps::FlexibleSleepConfig fs;
  fs.array_elements = 40;
  auto forced = [](int step, int size) -> std::optional<dmr::ResizeDecision> {
    if (step == 2 && size == 4) {
      dmr::ResizeDecision d;
      d.action = dmr::Action::Shrink;
      d.new_size = 2;
      return d;
    }
    return std::nullopt;
  };

  // DMR path.
  std::vector<double> dmr_final;
  {
    std::mutex mu;
    smpi::Universe universe;
    rt::MalleableConfig config;
    config.total_steps = 6;
    config.forced_decision = forced;
    rt::run_malleable(universe, nullptr, config,
                      [&] {
                        return std::make_unique<Capture>(fs, &dmr_final, &mu);
                      },
                      4);
    universe.await_all();
    ASSERT_TRUE(universe.failures().empty()) << universe.failures()[0];
  }

  // C/R path: same resize script through checkpoint files.
  std::vector<double> cr_final;
  {
    const auto dir = std::filesystem::temp_directory_path() /
                     "dmr_integration_cr";
    std::filesystem::remove_all(dir);
    ckpt::CheckpointStore store({dir, false});
    smpi::Universe universe;
    rt::MalleableConfig config;
    config.total_steps = 6;
    config.forced_decision = forced;
    // Reuse FS directly and read the checkpoint after the run: simpler —
    // run, then gather by re-running serialize via a capture state.
    std::mutex mu;
    ckpt::run_checkpoint_restart(
        universe, config,
        [&] { return std::make_unique<Capture>(fs, &cr_final, &mu); }, 4,
        store);
    universe.await_all();
    ASSERT_TRUE(universe.failures().empty()) << universe.failures()[0];
    std::filesystem::remove_all(dir);
  }

  ASSERT_EQ(dmr_final.size(), cr_final.size());
  for (std::size_t i = 0; i < dmr_final.size(); ++i) {
    EXPECT_DOUBLE_EQ(dmr_final[i], cr_final[i]) << "element " << i;
  }
}

}  // namespace
