// dmr::redist subsystem tests: distribution arithmetic for every layout,
// exactly-once planning, registry bookkeeping, and the movement property
// — after an arbitrary P -> Q resize, send_buffers / recv_buffers leave
// every new rank holding exactly the contents its new layout assigns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <mutex>
#include <random>
#include <string>

#include "dmr/dmr.hpp"
#include "dmr/redist.hpp"
#include "smpi/universe.hpp"

namespace {

using namespace dmr;
using namespace dmr::redist;

// --- Distribution -----------------------------------------------------------

Buffer make_desc(Layout layout, std::size_t count) {
  Buffer desc;
  desc.name = "buf";
  desc.elem_size = 8;
  desc.count = count;
  desc.layout = layout;
  return desc;
}

TEST(Distribution, BlockMatchesBlockDistribution) {
  const Distribution dist(make_desc(Layout::Block, 100), 7);
  const rt::BlockDistribution ref(100, 7);
  for (int r = 0; r < 7; ++r) EXPECT_EQ(dist.local_count(r), ref.count(r));
  for (std::size_t i = 0; i < 100; ++i) {
    const auto place = dist.locate(i);
    EXPECT_EQ(place.rank, ref.owner(i));
    EXPECT_EQ(place.offset, i - ref.begin(place.rank));
  }
}

TEST(Distribution, BlockCountsSumToTotal) {
  for (std::size_t total : {0u, 1u, 7u, 64u, 100u}) {
    for (int parts : {1, 2, 3, 5}) {
      const Distribution dist(make_desc(Layout::Block, total), parts);
      std::size_t sum = 0;
      for (int r = 0; r < parts; ++r) sum += dist.local_count(r);
      EXPECT_EQ(sum, total) << "total=" << total << " parts=" << parts;
    }
  }
}

TEST(Distribution, BlockLocateRoundTrips) {
  const std::size_t total = 53;
  const int parts = 3;
  const Distribution dist(make_desc(Layout::Block, total), parts);
  // Walk each rank's local runs; together they must cover every index
  // exactly once and agree with locate().
  std::vector<int> covered(total, 0);
  for (int r = 0; r < parts; ++r) {
    std::size_t local = 0;
    dist.for_each_local_run(r, [&](std::size_t global, std::size_t elems) {
      for (std::size_t k = 0; k < elems; ++k) {
        const auto place = dist.locate(global + k);
        EXPECT_EQ(place.rank, r);
        EXPECT_EQ(place.offset, local);
        ++covered[global + k];
        ++local;
      }
    });
    EXPECT_EQ(local, dist.local_count(r));
  }
  for (std::size_t i = 0; i < total; ++i) EXPECT_EQ(covered[i], 1);
}

TEST(Distribution, ReplicatedHoldsEverythingEverywhere) {
  const Distribution dist(make_desc(Layout::Replicated, 12), 4);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(dist.local_count(r), 12u);
  EXPECT_EQ(dist.locate(5).rank, 0);
  EXPECT_EQ(dist.locate(5).offset, 5u);
}

// --- plan_transfers ---------------------------------------------------------

TEST(PlanTransfers, EveryElementMovesExactlyOnce) {
  // The acceptance property for the plans: for Block buffers,
  // transfers partition the global index space.
  std::mt19937 rng(20170731);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t total = rng() % 120;
    const int old_parts = 1 + static_cast<int>(rng() % 6);
    const int new_parts = 1 + static_cast<int>(rng() % 6);
    const Buffer desc = make_desc(Layout::Block, total);
    const Distribution src(desc, old_parts);
    const Distribution dst(desc, new_parts);
    // Local offset -> global index, per source rank.
    const auto local_to_global = [](const Distribution& dist, int rank) {
      std::vector<std::size_t> map;
      dist.for_each_local_run(rank,
                              [&](std::size_t global, std::size_t elems) {
                                for (std::size_t k = 0; k < elems; ++k) {
                                  map.push_back(global + k);
                                }
                              });
      return map;
    };
    std::vector<std::vector<std::size_t>> src_maps;
    for (int r = 0; r < old_parts; ++r) {
      src_maps.push_back(local_to_global(src, r));
    }
    std::vector<int> covered(total, 0);
    for (const Transfer& t : plan_transfers(desc, old_parts, new_parts)) {
      ASSERT_GT(t.count, 0u);
      const auto& map = src_maps[static_cast<std::size_t>(t.src_rank)];
      ASSERT_LE(t.src_offset + t.count, map.size());
      for (std::size_t k = 0; k < t.count; ++k) {
        const std::size_t g = map[t.src_offset + k];
        const auto to = dst.locate(g);
        EXPECT_EQ(to.rank, t.dst_rank);
        EXPECT_EQ(to.offset, t.dst_offset + k);
        ++covered[g];
      }
    }
    for (std::size_t i = 0; i < total; ++i) {
      ASSERT_EQ(covered[i], 1) << "total=" << total << " " << old_parts
                               << "->" << new_parts << " element " << i;
    }
  }
}

TEST(PlanTransfers, ReplicatedGivesEveryNewRankOneFullCopy) {
  const Buffer desc = make_desc(Layout::Replicated, 9);
  const auto plan = plan_transfers(desc, 3, 5);
  ASSERT_EQ(plan.size(), 5u);
  for (int dst = 0; dst < 5; ++dst) {
    EXPECT_EQ(plan[static_cast<std::size_t>(dst)].dst_rank, dst);
    EXPECT_EQ(plan[static_cast<std::size_t>(dst)].src_rank, dst % 3);
    EXPECT_EQ(plan[static_cast<std::size_t>(dst)].count, 9u);
  }
}

TEST(PlanTransfers, Validation) {
  EXPECT_THROW(plan_transfers(make_desc(Layout::Block, 8), 0, 2),
               std::invalid_argument);
  EXPECT_TRUE(plan_transfers(make_desc(Layout::Block, 0), 3, 2).empty());
}

// --- Registry ---------------------------------------------------------------

TEST(Registry, TypedRegistrationRoundTrip) {
  Registry registry;
  std::vector<double> data{1.0, 2.0, 3.0};
  int counter = 7;
  registry.add_block("data", data, 12);
  registry.add_scalar("counter", counter);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.total_bytes(), 12 * sizeof(double) + sizeof(int));
  ASSERT_NE(registry.find("data"), nullptr);
  EXPECT_EQ(registry.find("data")->desc.layout, Layout::Block);
  EXPECT_EQ(registry.find("nope"), nullptr);

  const auto bytes = registry.at(0).read();
  EXPECT_EQ(bytes.size(), 3 * sizeof(double));
  const auto grown = registry.at(0).resize(5);
  EXPECT_EQ(grown.size(), 5 * sizeof(double));
  EXPECT_EQ(data.size(), 5u);

  // The scalar refuses to change shape.
  EXPECT_THROW(registry.at(1).resize(2), std::invalid_argument);
}

TEST(Registry, RejectsDuplicatesAndAnonymousBuffers) {
  Registry registry;
  std::vector<int> v;
  registry.add_block("v", v, 4);
  EXPECT_THROW(registry.add_block("v", v, 4), std::invalid_argument);
  EXPECT_THROW(registry.add_block("", v, 4), std::invalid_argument);
}

// --- chunked movement -------------------------------------------------------

/// Deterministic fill for global element `g`, byte `b` of buffer `which`.
std::byte fill_byte(int which, std::size_t g, std::size_t b) {
  return static_cast<std::byte>((which * 131 + g * 31 + b * 7 + 5) % 251);
}

struct ParityCase {
  std::size_t doubles = 0;     // Block doubles
  std::size_t ints = 0;        // Block ints
  std::size_t replicated = 0;  // Replicated floats
  int old_parts = 1;
  int new_parts = 1;
};

/// One rank's post-resize buffer contents, in registration order.
using RankContents = std::vector<std::vector<std::byte>>;

struct ParityState {
  std::vector<double> doubles;
  std::vector<int> ints;
  std::vector<float> replicated;
  Registry registry;

  explicit ParityState(const ParityCase& pc) {
    Buffer d = {"doubles", sizeof(double), pc.doubles, Layout::Block};
    Buffer i = {"ints", sizeof(int), pc.ints, Layout::Block};
    Buffer r = {"rep", sizeof(float), pc.replicated, Layout::Replicated};
    registry.add(d, read_of(doubles), resize_of(doubles));
    registry.add(i, read_of(ints), resize_of(ints));
    registry.add(r, read_of(replicated), resize_of(replicated));
  }

  /// Fill this rank's blocks with the deterministic pattern.
  void fill(int rank, int parts) {
    for (std::size_t which = 0; which < registry.size(); ++which) {
      Binding& binding = registry.at(which);
      const Distribution dist(binding.desc, parts);
      const auto out = binding.resize(dist.local_count(rank));
      std::size_t local = 0;
      dist.for_each_local_run(
          rank, [&](std::size_t global, std::size_t elems) {
            for (std::size_t k = 0; k < elems; ++k) {
              for (std::size_t b = 0; b < binding.desc.elem_size; ++b) {
                out[local * binding.desc.elem_size + b] =
                    fill_byte(static_cast<int>(which), global + k, b);
              }
              ++local;
            }
          });
    }
  }

  RankContents snapshot() const {
    RankContents contents;
    for (std::size_t i = 0; i < registry.size(); ++i) {
      const auto bytes = registry.at(i).read();
      contents.emplace_back(bytes.begin(), bytes.end());
    }
    return contents;
  }

 private:
  template <typename T>
  static std::function<std::span<const std::byte>()> read_of(
      std::vector<T>& v) {
    return [&v] {
      return std::as_bytes(std::span<const T>(v.data(), v.size()));
    };
  }
  template <typename T>
  static std::function<std::span<std::byte>(std::size_t)> resize_of(
      std::vector<T>& v) {
    return [&v](std::size_t elems) {
      v.resize(elems);
      return std::as_writable_bytes(std::span<T>(v.data(), v.size()));
    };
  }
};

/// What one P -> Q redistribution left behind on the new ranks.
struct ParityRun {
  std::map<int, RankContents> contents;  // by new rank
  std::vector<Report> recv_reports;      // one per new rank
  Report merged;  // the recv reports, merged as concurrent siblings
};

ParityRun run_parity(const ParityCase& pc) {
  smpi::Universe universe;
  std::mutex mu;
  ParityRun run;
  universe.launch("old", pc.old_parts, [&](smpi::Context& ctx) {
    ParityState state(pc);
    state.fill(ctx.rank(), pc.old_parts);
    const auto inter = ctx.spawn(
        ctx.world(), pc.new_parts, [&](smpi::Context& child) {
          ParityState fresh(pc);
          const Endpoint endpoint{&*child.parent(), child.rank(),
                                  pc.old_parts, pc.new_parts};
          const Report report = recv_buffers(endpoint, fresh.registry);
          std::lock_guard<std::mutex> lock(mu);
          run.contents[child.rank()] = fresh.snapshot();
          run.recv_reports.push_back(report);
          run.merged.merge_concurrent(report);
        });
    const Endpoint endpoint{&inter, ctx.rank(), pc.old_parts, pc.new_parts};
    (void)send_buffers(endpoint, state.registry);
  });
  universe.await_all();
  if (!universe.failures().empty()) {
    ADD_FAILURE() << universe.failures()[0];
  }
  return run;
}

/// The ground truth: what rank `r` of the new layout must hold.
RankContents expected_contents(const ParityCase& pc, int rank) {
  ParityState state(pc);
  state.fill(rank, pc.new_parts);
  return state.snapshot();
}

/// Every new rank holds its expected contents, and each recv report
/// describes a point-to-point movement of the whole registry.
void expect_exact_move(const ParityCase& pc, const ParityRun& run) {
  ASSERT_EQ(run.contents.size(), static_cast<std::size_t>(pc.new_parts));
  for (int r = 0; r < pc.new_parts; ++r) {
    ASSERT_EQ(run.contents.at(r), expected_contents(pc, r))
        << "wrong contents on new rank " << r;
  }
  const std::size_t total_bytes = ParityState(pc).registry.total_bytes();
  ASSERT_EQ(run.recv_reports.size(), static_cast<std::size_t>(pc.new_parts));
  for (const Report& report : run.recv_reports) {
    EXPECT_FALSE(report.via_checkpoint);
    EXPECT_EQ(report.lanes,
              std::max(1, std::min(pc.old_parts, pc.new_parts)));
    EXPECT_EQ(report.bytes_total, total_bytes);
  }
}

class ChunkedEngine : public ::testing::TestWithParam<ParityCase> {};

TEST_P(ChunkedEngine, MatchesExpectedContents) {
  const ParityCase pc = GetParam();
  expect_exact_move(pc, run_parity(pc));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ChunkedEngine,
    ::testing::Values(ParityCase{64, 40, 3, 2, 4},    // grow x2
                      ParityCase{64, 40, 3, 4, 2},    // shrink x2
                      ParityCase{97, 53, 5, 3, 5},    // prime -> prime
                      ParityCase{33, 17, 1, 5, 5},    // same size
                      ParityCase{5, 3, 2, 4, 6},      // total < parts
                      ParityCase{0, 0, 0, 3, 2},      // nothing to move
                      ParityCase{48, 0, 4, 6, 1},     // collapse to 1
                      ParityCase{7, 100, 2, 1, 6}));  // explode from 1

TEST(ChunkedEngine, RandomizedSweep) {
  // Property test over random sizes and shapes (beyond the named ones).
  std::mt19937 rng(42);
  for (int trial = 0; trial < 6; ++trial) {
    ParityCase pc;
    pc.doubles = rng() % 150;
    pc.ints = rng() % 150;
    pc.replicated = rng() % 8;
    pc.old_parts = 1 + static_cast<int>(rng() % 5);
    pc.new_parts = 1 + static_cast<int>(rng() % 5);
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_exact_move(pc, run_parity(pc));
  }
}

TEST(ChunkedEngine, SmallChunksManyTransfers) {
  // Multi-chunk streams with short tails: 2 -> 3 ranks moves a Block
  // buffer of 6 * (one chunk + 4 doubles) as two transfers of a sixth
  // of it (2 chunks each) and two of a third (3 chunks each).
  constexpr std::size_t kChunkDoubles = kChunkBytes / sizeof(double);
  const ParityCase pc{6 * (kChunkDoubles + 4), 0, 0, 2, 3};
  const ParityRun run = run_parity(pc);
  expect_exact_move(pc, run);
  EXPECT_EQ(run.merged.transfers, 2 * 2 + 2 * 3);
  EXPECT_EQ(run.merged.bytes_moved, pc.doubles * sizeof(double));
}

}  // namespace
