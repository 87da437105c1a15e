// Tests for the framework extensions beyond the paper's core: moldable
// submission (the paper's named future work), the accounting ledger, and
// evolving applications that change their own request mid-run.
#include <gtest/gtest.h>

#include "rms/accounting.hpp"
#include "rms/manager.hpp"
#include "dmr/reconfig_point.hpp"
#include "smpi/universe.hpp"

namespace {

using namespace dmr;
using namespace dmr::rms;

JobSpec spec(const std::string& name, int nodes, int min = 1,
             bool moldable = false) {
  JobSpec s;
  s.name = name;
  s.requested_nodes = nodes;
  s.min_nodes = min;
  s.flexible = true;
  s.moldable = moldable;
  s.time_limit = 100.0;
  return s;
}

TEST(Moldable, HeadStartsSmallInsteadOfWaiting) {
  Manager m(RmsConfig{.nodes = 8, .scheduler = {}});
  const JobId hog = m.submit(spec("hog", 6), 0.0);
  m.schedule(0.0);
  // Rigid 8-node job would wait; moldable starts on the 2 idle nodes.
  const JobId mold = m.submit(spec("mold", 8, 1, /*moldable=*/true), 1.0);
  m.schedule(1.0);
  EXPECT_TRUE(m.job(mold).running());
  EXPECT_EQ(m.job(mold).allocated(), 2);
  EXPECT_TRUE(m.job(hog).running());
}

TEST(Moldable, RigidJobStillWaits) {
  Manager m(RmsConfig{.nodes = 8, .scheduler = {}});
  m.submit(spec("hog", 6), 0.0);
  m.schedule(0.0);
  const JobId rigid = m.submit(spec("rigid", 8, 1, /*moldable=*/false), 1.0);
  m.schedule(1.0);
  EXPECT_TRUE(m.job(rigid).pending());
}

TEST(Moldable, RespectsMinimum) {
  Manager m(RmsConfig{.nodes = 8, .scheduler = {}});
  m.submit(spec("hog", 6), 0.0);
  m.schedule(0.0);
  // Moldable but needs at least 4: only 2 idle -> must wait.
  const JobId mold = m.submit(spec("mold", 8, 4, true), 1.0);
  m.schedule(1.0);
  EXPECT_TRUE(m.job(mold).pending());
}

TEST(Moldable, DoesNotStarveNonMoldableHead) {
  Manager m(RmsConfig{.nodes = 8, .scheduler = {}});
  m.submit(spec("hog", 6), 0.0);
  m.schedule(0.0);
  // Rigid head (higher priority: earlier submit), moldable behind it:
  // molding the follower would jump the queue, so nothing starts.
  const JobId head = m.submit(spec("head", 8, 8), 1.0);
  const JobId follower = m.submit(spec("follower", 8, 1, true), 2.0);
  m.schedule(3.0);
  EXPECT_TRUE(m.job(head).pending());
  EXPECT_TRUE(m.job(follower).pending());
}

TEST(Moldable, MoldedJobCanExpandLater) {
  Manager m(RmsConfig{.nodes = 8, .scheduler = {}});
  const JobId hog = m.submit(spec("hog", 6), 0.0);
  m.schedule(0.0);
  const JobId mold = m.submit(spec("mold", 8, 1, true), 1.0);
  m.schedule(1.0);
  ASSERT_EQ(m.job(mold).allocated(), 2);
  m.job_finished(hog, 5.0);
  Request request;
  request.min_procs = 1;
  request.max_procs = 8;
  const auto outcome = m.dmr_check(mold, request, 6.0);
  EXPECT_EQ(outcome.action, Action::Expand);
  EXPECT_EQ(m.job(mold).allocated(), 8);
}

TEST(Accounting, RecordsLifecycleAndNodeSeconds) {
  Manager m(RmsConfig{.nodes = 8, .scheduler = {}});
  Accounting accounting(m);
  const JobId id = m.submit(spec("a", 4), 0.0);
  m.schedule(2.0);
  m.job_finished(id, 12.0);
  ASSERT_TRUE(accounting.has(id));
  const JobRecord& record = accounting.record(id);
  EXPECT_EQ(record.name, "a");
  EXPECT_DOUBLE_EQ(record.submit_time, 0.0);
  EXPECT_DOUBLE_EQ(record.start_time, 2.0);
  EXPECT_DOUBLE_EQ(record.end_time, 12.0);
  EXPECT_EQ(record.final_state, JobState::Completed);
  EXPECT_EQ(record.started_nodes, 4);
  // 4 nodes x 10 s.
  EXPECT_DOUBLE_EQ(record.node_seconds, 40.0);
}

TEST(Accounting, ResizeSplitsTheIntegral) {
  Manager m(RmsConfig{.nodes = 16, .scheduler = {}});
  Accounting accounting(m);
  const JobId id = m.submit(spec("a", 4), 0.0);
  m.schedule(0.0);
  Request request;
  request.min_procs = 1;
  request.max_procs = 16;
  // Expand 4 -> 16 at t=10.
  const auto outcome = m.dmr_check(id, request, 10.0);
  ASSERT_EQ(outcome.action, Action::Expand);
  // The expansion's resizer job gets no record.
  EXPECT_EQ(accounting.records().size(), 1u);
  m.job_finished(id, 20.0);
  const JobRecord& record = accounting.record(id);
  ASSERT_EQ(record.resizes.size(), 1u);
  EXPECT_EQ(record.resizes[0].old_size, 4);
  EXPECT_EQ(record.resizes[0].new_size, 16);
  EXPECT_EQ(record.final_nodes, 16);
  // 4 nodes x 10 s + 16 nodes x 10 s.
  EXPECT_DOUBLE_EQ(record.node_seconds, 200.0);
}

TEST(Accounting, ShrinkRecordedOnCompletion) {
  Manager m(RmsConfig{.nodes = 8, .scheduler = {}});
  Accounting accounting(m);
  const JobId id = m.submit(spec("a", 8), 0.0);
  m.schedule(0.0);
  m.submit(spec("queued", 4, 4), 1.0);
  Request request;
  request.min_procs = 1;
  request.max_procs = 8;
  const auto outcome = m.dmr_check(id, request, 10.0);
  ASSERT_EQ(outcome.action, Action::Shrink);
  // Not recorded until the drain completes.
  EXPECT_TRUE(accounting.record(id).resizes.empty());
  m.complete_shrink(id, 12.0);
  ASSERT_EQ(accounting.record(id).resizes.size(), 1u);
  EXPECT_EQ(accounting.record(id).resizes[0].action, Action::Shrink);
  // Drain time bills at the old size: 8 x 12 so far.
  m.job_finished(id, 20.0);
  EXPECT_DOUBLE_EQ(accounting.record(id).node_seconds,
                   8 * 12.0 + 4 * 8.0);
}

TEST(Accounting, RenderContainsAllJobs) {
  Manager m(RmsConfig{.nodes = 8, .scheduler = {}});
  Accounting accounting(m);
  const JobId a = m.submit(spec("alpha", 2), 0.0);
  const JobId b = m.submit(spec("beta", 2), 0.0);
  m.schedule(0.0);
  m.job_finished(a, 5.0);
  m.job_finished(b, 6.0);
  const std::string table = accounting.render();
  EXPECT_NE(table.find("alpha"), std::string::npos);
  EXPECT_NE(table.find("beta"), std::string::npos);
  const std::string csv = accounting.render_csv();
  EXPECT_NE(csv.find("job_id"), std::string::npos);
  EXPECT_EQ(accounting.records().size(), 2u);
  EXPECT_EQ(accounting.total_resizes(), 0);
}

TEST(Evolving, SetRequestDrivesForcedExpansion) {
  // An *evolving* application (Feitelson's fourth class) decides mid-run
  // that it needs more processes: raising min_procs above the current
  // size is Algorithm 1's "request an action" mode.
  Manager m(RmsConfig{.nodes = 16, .scheduler = {}});
  double now = 0.0;
  dmr::Session session(m, [&] { return now; });
  const JobId id = session.submit(spec("evolving", 4));
  session.schedule();

  Request initial;
  initial.min_procs = 4;
  initial.max_procs = 4;  // pinned: no spontaneous resizing
  auto runtime = std::make_shared<dmr::ReconfigPoint>(session, initial);

  smpi::Universe universe;
  universe.launch("t", 4, [&](smpi::Context& ctx) {
    // Phase 1: pinned request -> no action.
    const auto quiet = runtime->check_status(ctx.world());
    EXPECT_EQ(quiet.action, Action::None);
    // Phase 2: the application evolves — it now *requires* >= 8 procs.
    if (ctx.rank() == 0) {
      Request demand;
      demand.min_procs = 8;
      demand.max_procs = 8;
      runtime->set_request(demand);
    }
    ctx.world().barrier();
    const auto granted = runtime->check_status(ctx.world());
    EXPECT_EQ(granted.action, Action::Expand);
    EXPECT_EQ(granted.new_size, 8);
  });
  universe.await_all();
  ASSERT_TRUE(universe.failures().empty()) << universe.failures()[0];
  EXPECT_EQ(m.job(id).allocated(), 8);
}

TEST(Evolving, ForcedShrinkViaMaxBelowCurrent) {
  Manager m(RmsConfig{.nodes = 16, .scheduler = {}});
  double now = 0.0;
  dmr::Session session(m, [&] { return now; });
  const JobId id = session.submit(spec("evolving", 8));
  session.schedule();

  Request demand;
  demand.min_procs = 1;
  demand.max_procs = 2;  // application no longer scales past 2
  auto runtime = std::make_shared<dmr::ReconfigPoint>(session, demand);

  smpi::Universe universe;
  universe.launch("t", 8, [&](smpi::Context& ctx) {
    const auto decision = runtime->check_status(ctx.world());
    EXPECT_EQ(decision.action, Action::Shrink);
    EXPECT_EQ(decision.new_size, 2);
    EXPECT_EQ(decision.hosts.size(), 2u);
    runtime->finish_shrink(ctx.world());
  });
  universe.await_all();
  ASSERT_TRUE(universe.failures().empty()) << universe.failures()[0];
  EXPECT_EQ(m.job(id).allocated(), 2);
}

}  // namespace
