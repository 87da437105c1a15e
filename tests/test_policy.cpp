// Exhaustive tests of the reconfiguration policy (Algorithm 1), branch by
// branch, plus parameterized sweeps of the size arithmetic helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rms/policy.hpp"

namespace {

using namespace dmr::rms;

Job running_job(JobId id, int nodes) {
  Job job;
  job.id = id;
  job.spec.requested_nodes = nodes;
  job.spec.min_nodes = 1;
  job.state = JobState::Running;
  job.requested_nodes = nodes;
  job.nodes.resize(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) job.nodes[static_cast<std::size_t>(i)] = i;
  return job;
}

Job pending_job(JobId id, int request) {
  Job job;
  job.id = id;
  job.spec.requested_nodes = request;
  job.requested_nodes = request;
  job.state = JobState::Pending;
  return job;
}

Request request(int min, int max, int preferred = 0, int factor = 2) {
  Request r;
  r.min_procs = min;
  r.max_procs = max;
  r.preferred = preferred;
  r.factor = factor;
  return r;
}

TEST(MaxProcsTo, LargestFactorReachableWithinIdle) {
  EXPECT_EQ(max_procs_to(4, 2, 32, 100), 32);
  EXPECT_EQ(max_procs_to(4, 2, 32, 12), 16);  // growth 28 won't fit in 12
  EXPECT_EQ(max_procs_to(4, 2, 32, 3), 0);    // even 4->8 needs 4 idle
  EXPECT_EQ(max_procs_to(4, 2, 7, 100), 0);   // 8 exceeds the limit
  EXPECT_EQ(max_procs_to(3, 2, 20, 100), 12);
}

TEST(MinProcsRun, LargestShrinkUnderCeiling) {
  EXPECT_EQ(min_procs_run(16, 2, 10, 1), 8);
  EXPECT_EQ(min_procs_run(16, 2, 3, 1), 2);
  EXPECT_EQ(min_procs_run(16, 2, 3, 4), 0);   // min bound blocks it
  EXPECT_EQ(min_procs_run(6, 2, 4, 1), 3);
  EXPECT_EQ(min_procs_run(5, 2, 4, 1), 0);    // 5 has no factor-2 divisor
}

// The candidate lists stay as the reference the in-place walks must
// reproduce.
int ref_max_procs_to(int current, int factor, int limit, int idle) {
  int best = 0;
  for (int size : expand_candidates(current, factor, limit)) {
    if (size - current <= idle) best = std::max(best, size);
  }
  return best;
}

int ref_min_procs_run(int current, int factor, int ceiling, int min_procs) {
  int best = 0;
  for (int size : shrink_candidates(current, factor, min_procs)) {
    if (size <= ceiling) best = std::max(best, size);
  }
  return best;
}

/// "name(a, b, c, d)", for failure messages.
std::string call(const char* name, int a, int b, int c, int d) {
  std::ostringstream out;
  out << name << '(' << a << ", " << b << ", " << c << ", " << d << ')';
  return out.str();
}

/// Arguments worth trying against `current`: every value in [-1, 40],
/// each size reachable from it by `factor` up to 4096 and the growth to
/// reach it, each give or take one, and INT_MAX.
std::vector<int> probes(int current, int factor) {
  std::vector<int> values;
  for (int v = -1; v <= 40; ++v) values.push_back(v);
  for (int size = current; size <= 4096; size *= factor) {
    for (int d = -1; d <= 1; ++d) {
      values.push_back(size + d);
      values.push_back(size - current + d);
    }
  }
  for (int size = current; size % factor == 0;) {
    size /= factor;
    for (int d = -1; d <= 1; ++d) values.push_back(size + d);
  }
  values.push_back(std::numeric_limits<int>::max());
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

TEST(MaxProcsTo, MatchesCandidateListEverywhere) {
  for (int current = 1; current <= 256; ++current) {
    for (int factor = 2; factor <= 4; ++factor) {
      const std::vector<int> values = probes(current, factor);
      for (int limit : values) {
        for (int idle : values) {
          ASSERT_EQ(max_procs_to(current, factor, limit, idle),
                    ref_max_procs_to(current, factor, limit, idle))
              << call("max_procs_to", current, factor, limit, idle);
        }
      }
    }
  }
}

TEST(MinProcsRun, MatchesCandidateListEverywhere) {
  for (int current = 1; current <= 256; ++current) {
    for (int factor = 2; factor <= 4; ++factor) {
      const std::vector<int> values = probes(current, factor);
      for (int ceiling : values) {
        for (int min_procs : values) {
          ASSERT_EQ(min_procs_run(current, factor, ceiling, min_procs),
                    ref_min_procs_run(current, factor, ceiling, min_procs))
              << call("min_procs_run", current, factor, ceiling, min_procs);
        }
      }
    }
  }
}

TEST(MaxProcsTo, RejectsWhatTheCandidateListsReject) {
  for (const auto& [current, factor] :
       std::vector<std::pair<int, int>>{{0, 2}, {-1, 2}, {4, 1}, {4, 0},
                                        {4, -2}, {0, 0}}) {
    EXPECT_THROW(max_procs_to(current, factor, 64, 64), std::invalid_argument);
    EXPECT_THROW(ref_max_procs_to(current, factor, 64, 64),
                 std::invalid_argument);
    EXPECT_THROW(min_procs_run(current, factor, 64, 1), std::invalid_argument);
    EXPECT_THROW(ref_min_procs_run(current, factor, 64, 1),
                 std::invalid_argument);
  }
}

TEST(Policy, RequiresRunningJob) {
  Job job = running_job(1, 4);
  job.state = JobState::Pending;
  PolicyView view;
  view.job = &job;
  EXPECT_THROW(reconfiguration_policy(view, request(1, 8)),
               std::invalid_argument);
}

// --- Mode 1: request an action ---------------------------------------------

TEST(Policy, ForcedExpandGrantedWhenIdleSuffices) {
  const Job job = running_job(1, 4);
  PolicyView view{&job, /*idle=*/12, {}};
  const auto d = reconfiguration_policy(view, request(8, 16));
  EXPECT_EQ(d.action, Action::Expand);
  EXPECT_EQ(d.new_size, 16);
}

TEST(Policy, ForcedExpandRefusedWithoutResources) {
  const Job job = running_job(1, 4);
  PolicyView view{&job, /*idle=*/2, {}};
  const auto d = reconfiguration_policy(view, request(8, 16));
  EXPECT_EQ(d.action, Action::None);
}

TEST(Policy, ForcedShrinkToMaxBound) {
  const Job job = running_job(1, 16);
  PolicyView view{&job, 0, {}};
  const auto d = reconfiguration_policy(view, request(1, 4));
  EXPECT_EQ(d.action, Action::Shrink);
  EXPECT_EQ(d.new_size, 4);
}

TEST(Policy, ForcedShrinkBlockedByMin) {
  const Job job = running_job(1, 6);
  PolicyView view{&job, 0, {}};
  // max 2 forces below 6; only divisor chain 6->3; 3 >= min 3 -> but
  // 3 > max 2, so nothing fits.
  const auto d = reconfiguration_policy(view, request(3, 2));
  EXPECT_EQ(d.action, Action::None);
}

// --- Mode 2: preferred ------------------------------------------------------

TEST(Policy, EmptyQueueExpandsToJobMax) {
  // Algorithm 1 lines 2-4: alone in the queue -> expand to jobMaxProcs.
  const Job job = running_job(1, 4);
  PolicyView view{&job, /*idle=*/28, {}};
  const auto d = reconfiguration_policy(view, request(1, 32, /*pref=*/8));
  EXPECT_EQ(d.action, Action::Expand);
  EXPECT_EQ(d.new_size, 32);
}

TEST(Policy, EmptyQueueExpandLimitedByIdle) {
  const Job job = running_job(1, 4);
  PolicyView view{&job, /*idle=*/5, {}};
  const auto d = reconfiguration_policy(view, request(1, 32, 8));
  EXPECT_EQ(d.action, Action::Expand);
  EXPECT_EQ(d.new_size, 8);
}

TEST(Policy, PreferredEqualsCurrentNoAction) {
  const Job job = running_job(1, 8);
  const Job queued = pending_job(2, 64);
  const Job* const queue[] = {&queued};
  PolicyView view{&job, /*idle=*/16, queue};
  const auto d = reconfiguration_policy(view, request(2, 32, 8));
  EXPECT_EQ(d.action, Action::None);
}

TEST(Policy, ExpandTowardPreferred) {
  const Job job = running_job(1, 4);
  const Job queued = pending_job(2, 64);  // cannot run regardless
  const Job* const queue[] = {&queued};
  PolicyView view{&job, /*idle=*/4, queue};
  const auto d = reconfiguration_policy(view, request(2, 32, 8));
  EXPECT_EQ(d.action, Action::Expand);
  EXPECT_EQ(d.new_size, 8);
}

TEST(Policy, PartialExpandTowardPreferred) {
  // Preferred 16 but only 4 idle: grant the largest reachable step (8).
  const Job job = running_job(1, 4);
  const Job queued = pending_job(2, 64);
  const Job* const queue[] = {&queued};
  PolicyView view{&job, /*idle=*/4, queue};
  const auto d = reconfiguration_policy(view, request(2, 32, 16));
  EXPECT_EQ(d.action, Action::Expand);
  EXPECT_EQ(d.new_size, 8);
}

TEST(Policy, ShrinkToPreferred) {
  // The realistic-workload pattern: submitted at 32, preferred 8 ->
  // shrink straight to 8 (Algorithm 1 lines 10-12).
  const Job job = running_job(1, 32);
  const Job queued = pending_job(2, 16);
  const Job* const queue[] = {&queued};
  PolicyView view{&job, /*idle=*/0, queue};
  const auto d = reconfiguration_policy(view, request(2, 32, 8));
  EXPECT_EQ(d.action, Action::Shrink);
  EXPECT_EQ(d.new_size, 8);
}

TEST(Policy, PreferredNotReachableFallsThroughToWideOpt) {
  // Preferred 6 unreachable from 8 by factor 2 -> wide optimization;
  // the queued job (needs 4, idle 0) can run if we shrink to 4.
  const Job job = running_job(1, 8);
  const Job queued = pending_job(2, 4);
  const Job* const queue[] = {&queued};
  PolicyView view{&job, /*idle=*/0, queue};
  const auto d = reconfiguration_policy(view, request(1, 32, 6));
  EXPECT_EQ(d.action, Action::Shrink);
  EXPECT_EQ(d.new_size, 4);
  EXPECT_EQ(d.boost_target, 2);
}

// --- Mode 3: wide optimization ----------------------------------------------

TEST(Policy, WideOptShrinkForQueuedJobAndBoost) {
  // Algorithm 1 lines 14-18: shrink so the queued job can start, boost it.
  const Job job = running_job(1, 16);
  const Job queued = pending_job(2, 12);
  const Job* const queue[] = {&queued};
  PolicyView view{&job, /*idle=*/0, queue};
  const auto d = reconfiguration_policy(view, request(1, 32));
  EXPECT_EQ(d.action, Action::Shrink);
  // need = 12 - 0 = 12 -> ceiling 4 -> largest divisor <= 4 is 4.
  EXPECT_EQ(d.new_size, 4);
  EXPECT_EQ(d.boost_target, 2);
}

TEST(Policy, WideOptShrinkAccountsForIdleNodes) {
  const Job job = running_job(1, 16);
  const Job queued = pending_job(2, 12);
  const Job* const queue[] = {&queued};
  PolicyView view{&job, /*idle=*/8, queue};
  const auto d = reconfiguration_policy(view, request(1, 32));
  // need = 12 - 8 = 4 -> ceiling 12 -> shrink to 8 suffices.
  EXPECT_EQ(d.action, Action::Shrink);
  EXPECT_EQ(d.new_size, 8);
}

TEST(Policy, WideOptNoActionWhenQueuedJobAlreadyFits) {
  const Job job = running_job(1, 8);
  const Job queued = pending_job(2, 4);
  const Job* const queue[] = {&queued};
  PolicyView view{&job, /*idle=*/6, queue};
  const auto d = reconfiguration_policy(view, request(1, 32));
  EXPECT_EQ(d.action, Action::None);
}

TEST(Policy, WideOptExpandWhenNoPendingJobCanBeHelped) {
  // Algorithm 1 lines 19-21: a pending job too big to be helped even by
  // a full shrink -> expand instead.
  const Job job = running_job(1, 4);
  const Job queued = pending_job(2, 64);
  const Job* const queue[] = {&queued};
  PolicyView view{&job, /*idle=*/12, queue};
  const auto d = reconfiguration_policy(view, request(1, 32));
  EXPECT_EQ(d.action, Action::Expand);
  EXPECT_EQ(d.new_size, 16);
}

TEST(Policy, WideOptExpandOnEmptyQueue) {
  // Algorithm 1 lines 22-24.
  const Job job = running_job(1, 4);
  PolicyView view{&job, /*idle=*/60, {}};
  const auto d = reconfiguration_policy(view, request(1, 20));
  EXPECT_EQ(d.action, Action::Expand);
  EXPECT_EQ(d.new_size, 16);  // factor-2 chain caps below 20
}

TEST(Policy, WideOptNoneWhenNothingPossible) {
  const Job job = running_job(1, 4);
  PolicyView view{&job, /*idle=*/2, {}};
  const auto d = reconfiguration_policy(view, request(1, 4));
  EXPECT_EQ(d.action, Action::None);
}

TEST(Policy, ShrinkRespectsJobMinimum) {
  const Job job = running_job(1, 8);
  const Job queued = pending_job(2, 7);
  const Job* const queue[] = {&queued};
  PolicyView view{&job, /*idle=*/0, queue};
  // Helping the queued job needs shrink to ceiling 1, but min is 4.
  const auto d = reconfiguration_policy(view, request(4, 32));
  EXPECT_EQ(d.action, Action::None);
}

TEST(Policy, ScansPendingQueueInPriorityOrder) {
  // First pending job too large to help; second is helpable -> shrink
  // for the second.
  const Job job = running_job(1, 16);
  const Job big = pending_job(2, 64);
  const Job fit = pending_job(3, 12);
  const Job* const queue[] = {&big, &fit};
  PolicyView view{&job, /*idle=*/0, queue};
  const auto d = reconfiguration_policy(view, request(1, 32));
  EXPECT_EQ(d.action, Action::Shrink);
  EXPECT_EQ(d.new_size, 4);
  EXPECT_EQ(d.boost_target, 3);
}

// --- Parameterized sweep: policy never grants infeasible sizes --------------

struct SweepCase {
  int current;
  int idle;
  int preferred;
  int pending_request;  // 0 = no pending job
};

class PolicySweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PolicySweep, DecisionsAreAlwaysFeasible) {
  const SweepCase param = GetParam();
  const Job job = running_job(1, param.current);
  const Job queued = pending_job(2, param.pending_request);
  PolicyView view;
  view.job = &job;
  view.idle_nodes = param.idle;
  const Job* const queue[] = {&queued};
  if (param.pending_request > 0) view.pending = queue;
  const Request req = request(1, 32, param.preferred);
  const Decision d = reconfiguration_policy(view, req);
  switch (d.action) {
    case Action::Expand:
      EXPECT_GT(d.new_size, param.current);
      EXPECT_LE(d.new_size - param.current, param.idle);
      EXPECT_LE(d.new_size, 32);
      EXPECT_TRUE(factor_reachable(param.current, d.new_size, 2));
      break;
    case Action::Shrink:
      EXPECT_LT(d.new_size, param.current);
      EXPECT_GE(d.new_size, 1);
      EXPECT_TRUE(factor_reachable(param.current, d.new_size, 2));
      break;
    case Action::None:
      break;
  }
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (int current : {1, 2, 3, 4, 6, 8, 16, 32}) {
    for (int idle : {0, 1, 4, 16, 32}) {
      for (int preferred : {0, 1, 8, 16}) {
        for (int pending : {0, 2, 8, 31}) {
          cases.push_back(SweepCase{current, idle, preferred, pending});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllCombinations, PolicySweep,
                         ::testing::ValuesIn(sweep_cases()));

}  // namespace
