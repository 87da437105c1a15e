// Property tests of the block-distribution arithmetic, the
// redistribution planner on a Block buffer (the plan must partition the
// index space for every (total, P, Q) combination) and the cost model's
// count of the elements a resize moves.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "drv/cost_model.hpp"
#include "redist/buffer.hpp"
#include "rt/redistribute.hpp"

namespace {

using dmr::drv::CostModel;
using dmr::redist::Transfer;
using dmr::rt::BlockDistribution;

/// The planner's view of a block-distributed array of `total` doubles.
std::vector<Transfer> block_plan(std::size_t total, int old_parts,
                                 int new_parts) {
  const dmr::redist::Buffer desc{"array", sizeof(double), total,
                                 dmr::redist::Layout::Block};
  return dmr::redist::plan_transfers(desc, old_parts, new_parts);
}

TEST(BlockDistribution, BalancedCounts) {
  const BlockDistribution dist(10, 3);
  EXPECT_EQ(dist.count(0), 3u);  // floor(10r/3) boundaries: 0,3,6,10
  EXPECT_EQ(dist.count(1), 3u);
  EXPECT_EQ(dist.count(2), 4u);
  std::size_t total = 0;
  for (int r = 0; r < 3; ++r) total += dist.count(r);
  EXPECT_EQ(total, 10u);
}

TEST(BlockDistribution, CountsDifferByAtMostOne) {
  for (std::size_t total : {1u, 7u, 64u, 1000u}) {
    for (int parts : {1, 2, 3, 5, 8, 17}) {
      const BlockDistribution dist(total, parts);
      std::size_t lo = total, hi = 0;
      for (int r = 0; r < parts; ++r) {
        lo = std::min(lo, dist.count(r));
        hi = std::max(hi, dist.count(r));
      }
      EXPECT_LE(hi - lo, 1u) << "total=" << total << " parts=" << parts;
    }
  }
}

TEST(BlockDistribution, OwnerConsistentWithRanges) {
  const BlockDistribution dist(100, 7);
  for (std::size_t i = 0; i < 100; ++i) {
    const int owner = dist.owner(i);
    EXPECT_GE(i, dist.begin(owner));
    EXPECT_LT(i, dist.end(owner));
  }
}

TEST(BlockDistribution, Errors) {
  EXPECT_THROW(BlockDistribution(10, 0), std::invalid_argument);
  const BlockDistribution dist(10, 2);
  EXPECT_THROW(dist.owner(10), std::out_of_range);
  EXPECT_THROW(dist.begin(3), std::out_of_range);
}

TEST(Plan, EmptyForZeroElements) {
  EXPECT_TRUE(block_plan(0, 4, 2).empty());
  EXPECT_TRUE(block_plan(0, 1, 1).empty());
}

TEST(Plan, RejectsNonPositiveParts) {
  // Geometry validation fires even when there is nothing to move.
  EXPECT_THROW(block_plan(16, 0, 4), std::invalid_argument);
  EXPECT_THROW(block_plan(16, 4, -1), std::invalid_argument);
  EXPECT_THROW(block_plan(0, 0, 4), std::invalid_argument);
}

TEST(Plan, SinglePartBothDirections) {
  // 1 -> Q: the lone old rank feeds every new rank once, in order.
  const auto scatter = block_plan(10, 1, 4);
  ASSERT_EQ(scatter.size(), 4u);
  std::size_t covered = 0;
  for (std::size_t i = 0; i < scatter.size(); ++i) {
    EXPECT_EQ(scatter[i].src_rank, 0);
    EXPECT_EQ(scatter[i].dst_rank, static_cast<int>(i));
    EXPECT_EQ(scatter[i].dst_offset, 0u);
    covered += scatter[i].count;
  }
  EXPECT_EQ(covered, 10u);
  // Q -> 1: the mirror merge.
  const auto gather = block_plan(10, 4, 1);
  ASSERT_EQ(gather.size(), 4u);
  for (std::size_t i = 0; i < gather.size(); ++i) {
    EXPECT_EQ(gather[i].src_rank, static_cast<int>(i));
    EXPECT_EQ(gather[i].dst_rank, 0);
    EXPECT_EQ(gather[i].src_offset, 0u);
  }
  // 1 -> 1 self-copy (the same-size "migration" of Fig. 1's 48-48 case).
  const auto identity = block_plan(10, 1, 1);
  ASSERT_EQ(identity.size(), 1u);
  EXPECT_EQ(identity[0].count, 10u);
}

TEST(Plan, TotalSmallerThanParts) {
  // 3 elements over 5 -> 2 ranks: empty old ranks contribute no
  // transfers, every transfer moves at least one element.
  const auto plan = block_plan(3, 5, 2);
  const BlockDistribution old_dist(3, 5);
  std::size_t covered = 0;
  for (const Transfer& t : plan) {
    EXPECT_GT(t.count, 0u);
    EXPECT_GT(old_dist.count(t.src_rank), 0u);
    covered += t.count;
  }
  EXPECT_EQ(covered, 3u);
  // Growing into mostly-empty ranks is also valid.
  const auto grow = block_plan(3, 2, 8);
  covered = 0;
  for (const Transfer& t : grow) {
    EXPECT_GT(t.count, 0u);
    covered += t.count;
  }
  EXPECT_EQ(covered, 3u);
}

TEST(Plan, IdentityWhenLayoutUnchanged) {
  const auto plan = block_plan(100, 4, 4);
  EXPECT_EQ(plan.size(), 4u);
  for (const Transfer& t : plan) {
    EXPECT_EQ(t.src_rank, t.dst_rank);
    EXPECT_EQ(t.src_offset, 0u);
    EXPECT_EQ(t.dst_offset, 0u);
  }
}

TEST(Plan, CleanSplitOnFactor2Expand) {
  // 8 elements, 2 -> 4 ranks: each old rank feeds exactly two new ranks.
  const auto plan = block_plan(8, 2, 4);
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan[0].src_rank, 0);
  EXPECT_EQ(plan[0].dst_rank, 0);
  EXPECT_EQ(plan[1].src_rank, 0);
  EXPECT_EQ(plan[1].dst_rank, 1);
  EXPECT_EQ(plan[2].src_rank, 1);
  EXPECT_EQ(plan[2].dst_rank, 2);
  EXPECT_EQ(plan[3].src_rank, 1);
  EXPECT_EQ(plan[3].dst_rank, 3);
}

// Parameterized partition property over a grid of (total, P, Q).
struct PlanCase {
  std::size_t total;
  int old_parts;
  int new_parts;
};

class PlanSweep : public ::testing::TestWithParam<PlanCase> {};

TEST_P(PlanSweep, TransfersPartitionTheIndexSpace) {
  const auto [total, old_parts, new_parts] = GetParam();
  const BlockDistribution old_dist(total, old_parts);
  const BlockDistribution new_dist(total, new_parts);
  const auto plan = block_plan(total, old_parts, new_parts);
  std::vector<int> covered(total, 0);
  for (const Transfer& t : plan) {
    EXPECT_GT(t.count, 0u);
    for (std::size_t k = 0; k < t.count; ++k) {
      const std::size_t src_global = old_dist.begin(t.src_rank) +
                                     t.src_offset + k;
      const std::size_t dst_global = new_dist.begin(t.dst_rank) +
                                     t.dst_offset + k;
      EXPECT_EQ(src_global, dst_global);  // same element, new home
      ASSERT_LT(src_global, total);
      ++covered[src_global];
    }
  }
  for (std::size_t i = 0; i < total; ++i) {
    EXPECT_EQ(covered[i], 1) << "element " << i << " moved " << covered[i]
                             << " times";
  }
}

TEST_P(PlanSweep, PerRankViewsMatchFullPlan) {
  // Each old rank sends, and each new rank receives, exactly its block.
  const auto [total, old_parts, new_parts] = GetParam();
  const BlockDistribution old_dist(total, old_parts);
  const BlockDistribution new_dist(total, new_parts);
  const auto plan = block_plan(total, old_parts, new_parts);
  std::vector<std::size_t> sent(static_cast<std::size_t>(old_parts), 0);
  std::vector<std::size_t> received(static_cast<std::size_t>(new_parts), 0);
  for (const Transfer& t : plan) {
    sent[static_cast<std::size_t>(t.src_rank)] += t.count;
    received[static_cast<std::size_t>(t.dst_rank)] += t.count;
  }
  for (int r = 0; r < old_parts; ++r) {
    EXPECT_EQ(sent[static_cast<std::size_t>(r)], old_dist.count(r));
  }
  for (int r = 0; r < new_parts; ++r) {
    EXPECT_EQ(received[static_cast<std::size_t>(r)], new_dist.count(r));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PlanSweep,
    ::testing::Values(PlanCase{16, 4, 8}, PlanCase{16, 8, 4},
                      PlanCase{16, 4, 4}, PlanCase{100, 7, 3},
                      PlanCase{100, 3, 7}, PlanCase{1, 1, 4},
                      PlanCase{5, 4, 2}, PlanCase{97, 13, 5},
                      PlanCase{64, 1, 16}, PlanCase{64, 16, 1},
                      PlanCase{33, 32, 3}, PlanCase{3, 5, 2},
                      PlanCase{2, 7, 9}, PlanCase{1, 1, 1},
                      PlanCase{6, 6, 6}));

TEST(MigratedElements, ZeroWhenUnchanged) {
  EXPECT_DOUBLE_EQ(CostModel::migrated_fraction(4, 4), 0.0);
}

TEST(MigratedElements, FactorTwoExpandMovesHalf) {
  // 2 -> 4: old rank 0 keeps its first half on new rank 0, sends second
  // half to rank 1; same for old rank 1 -> 2,3.  Elements staying on the
  // same rank index: new ranks 0 and... only rank 0's first half and
  // nothing else: ranks 1,2,3 all receive from a different source index.
  EXPECT_DOUBLE_EQ(CostModel::migrated_fraction(2, 4), 0.75);
}

TEST(MigratedElements, FractionGrowsWithImbalance) {
  EXPECT_LT(CostModel::migrated_fraction(8, 16),
            CostModel::migrated_fraction(8, 64));
}

TEST(MigratedElements, FractionMatchesThePlannerOnEveryShape) {
  // The cost model counts in place; plan_transfers on its nominal
  // 2^20-element Block buffer is the reference: an element moves when
  // its transfer crosses rank indices.
  constexpr std::size_t kNominal = 1 << 20;
  for (int old_parts = 1; old_parts <= 64; ++old_parts) {
    for (int new_parts = 1; new_parts <= 64; ++new_parts) {
      std::size_t moved = 0;
      for (const Transfer& t : block_plan(kNominal, old_parts, new_parts)) {
        if (t.src_rank != t.dst_rank) moved += t.count;
      }
      ASSERT_EQ(CostModel::migrated_fraction(old_parts, new_parts),
                static_cast<double>(moved) / static_cast<double>(kNominal))
          << old_parts << " -> " << new_parts;
    }
  }
}

}  // namespace
