// Tests for the in-process message-passing substrate: mailbox matching
// semantics, point-to-point ordering, collectives, and comm_spawn.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>

#include "smpi/mailbox.hpp"
#include "smpi/universe.hpp"

namespace {

using namespace dmr::smpi;

Envelope make_envelope(int src, int tag, std::vector<int> payload) {
  Envelope e;
  e.source = src;
  e.tag = tag;
  e.data.resize(payload.size() * sizeof(int));
  std::memcpy(e.data.data(), payload.data(), e.data.size());
  return e;
}

/// The one int a received payload carries (-1, and a failure, if the
/// payload is not exactly one int).
int only_int(const std::vector<std::byte>& data) {
  int value = -1;
  EXPECT_EQ(data.size(), sizeof(int));
  if (data.size() == sizeof(int)) std::memcpy(&value, data.data(), sizeof(int));
  return value;
}

TEST(Mailbox, FifoPerSourceAndTag) {
  Mailbox box;
  box.deposit(make_envelope(0, 1, {10}));
  box.deposit(make_envelope(0, 1, {20}));
  const Envelope first = box.receive(0, 1);
  const Envelope second = box.receive(0, 1);
  int v0, v1;
  std::memcpy(&v0, first.data.data(), sizeof(int));
  std::memcpy(&v1, second.data.data(), sizeof(int));
  EXPECT_EQ(v0, 10);
  EXPECT_EQ(v1, 20);
}

TEST(Mailbox, TagSelectivity) {
  Mailbox box;
  box.deposit(make_envelope(0, 5, {50}));
  box.deposit(make_envelope(0, 3, {30}));
  const Envelope got = box.receive(0, 3);
  EXPECT_EQ(got.tag, 3);
  // Only the tag-5 envelope is left: a posted receive takes it at once,
  // and the next one finds nothing.
  Request rest = box.post_receive(0, kAnyTag);
  ASSERT_TRUE(rest.test());
  EXPECT_EQ(only_int(rest.take_data()), 50);
  EXPECT_FALSE(box.post_receive(0, kAnyTag).test());
}

TEST(Mailbox, AnySourceAnyTag) {
  Mailbox box;
  box.deposit(make_envelope(2, 9, {1}));
  const Envelope got = box.receive(kAnySource, kAnyTag);
  EXPECT_EQ(got.source, 2);
  EXPECT_EQ(got.tag, 9);
}

TEST(Mailbox, PostedReceiveCompletedByDeposit) {
  Mailbox box;
  Request req = box.post_receive(1, 7);
  EXPECT_FALSE(req.test());
  box.deposit(make_envelope(1, 7, {99}));
  EXPECT_TRUE(req.test());
  EXPECT_EQ(only_int(req.take_data()), 99);
}

TEST(Mailbox, PostedReceivesMatchInPostingOrder) {
  Mailbox box;
  Request first = box.post_receive(0, kAnyTag);
  Request second = box.post_receive(0, kAnyTag);
  box.deposit(make_envelope(0, 1, {1}));
  box.deposit(make_envelope(0, 2, {2}));
  EXPECT_EQ(only_int(first.take_data()), 1);
  EXPECT_EQ(only_int(second.take_data()), 2);
}

TEST(Universe, WorldSizeAndRanks) {
  Universe universe;
  std::atomic<int> rank_sum{0};
  universe.launch("t", 4, [&](Context& ctx) {
    EXPECT_EQ(ctx.size(), 4);
    rank_sum += ctx.rank();
  });
  universe.await_all();
  EXPECT_EQ(rank_sum.load(), 6);
  EXPECT_TRUE(universe.failures().empty());
}

TEST(Universe, SendRecvValue) {
  Universe universe;
  universe.launch("t", 2, [](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.world().send_value(1, 10, 12345);
    } else {
      EXPECT_EQ(ctx.world().recv_value<int>(0, 10), 12345);
    }
  });
  universe.await_all();
  EXPECT_TRUE(universe.failures().empty());
}

TEST(Universe, MessagesBetweenSamePairStayOrdered) {
  Universe universe;
  universe.launch("t", 2, [](Context& ctx) {
    if (ctx.rank() == 0) {
      for (int i = 0; i < 100; ++i) ctx.world().send_value(1, 4, i);
    } else {
      for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(ctx.world().recv_value<int>(0, 4), i);
      }
    }
  });
  universe.await_all();
  EXPECT_TRUE(universe.failures().empty());
}

TEST(Universe, RankOutOfRangeThrows) {
  Universe universe;
  universe.launch("t", 2, [](Context& ctx) {
    if (ctx.rank() == 0) {
      EXPECT_THROW(ctx.world().send_value(5, 0, 1), RankError);
      EXPECT_THROW(ctx.world().recv_value<int>(-2, 0), RankError);
    }
  });
  universe.await_all();
  EXPECT_TRUE(universe.failures().empty());
}

TEST(Universe, IrecvFromOutOfRangeRankThrows) {
  // Nothing waits on the requests, so a receive posted without the
  // check fails here instead of hanging.
  Universe universe;
  universe.launch("t", 2, [](Context& ctx) {
    if (ctx.rank() == 0) {
      EXPECT_THROW(ctx.world().irecv_bytes(99, 0), RankError);
      EXPECT_THROW(ctx.world().irecv_bytes(-2, 0), RankError);
    }
  });
  universe.await_all();
  EXPECT_TRUE(universe.failures().empty());
}

TEST(Collectives, Barrier) {
  Universe universe;
  std::atomic<int> before{0}, after{0};
  universe.launch("t", 4, [&](Context& ctx) {
    ++before;
    ctx.world().barrier();
    EXPECT_EQ(before.load(), 4);
    ++after;
  });
  universe.await_all();
  EXPECT_EQ(after.load(), 4);
  EXPECT_TRUE(universe.failures().empty());
}

TEST(Collectives, BcastResizesReceivers) {
  Universe universe;
  universe.launch("t", 3, [](Context& ctx) {
    std::vector<int> data;
    if (ctx.rank() == 1) data = {7, 8, 9};
    ctx.world().bcast(data, 1);
    EXPECT_EQ(data, (std::vector<int>{7, 8, 9}));
  });
  universe.await_all();
  EXPECT_TRUE(universe.failures().empty());
}

TEST(Collectives, ReduceAndAllreduce) {
  Universe universe;
  universe.launch("t", 4, [](Context& ctx) {
    const int mine = ctx.rank() + 1;  // 1+2+3+4 = 10
    const int total = ctx.world().reduce(
        mine, [](int a, int b) { return a + b; }, 0);
    if (ctx.rank() == 0) {
      EXPECT_EQ(total, 10);
    }
    EXPECT_EQ(ctx.world().allreduce_sum(mine), 10);
    const int biggest = ctx.world().allreduce(
        mine, [](int a, int b) { return a > b ? a : b; });
    EXPECT_EQ(biggest, 4);
  });
  universe.await_all();
  EXPECT_TRUE(universe.failures().empty());
}

TEST(Collectives, GathervAllgathervScatterv) {
  Universe universe;
  universe.launch("t", 3, [](Context& ctx) {
    // Variable contributions: rank r supplies r+1 values of r.
    std::vector<int> mine(static_cast<size_t>(ctx.rank() + 1), ctx.rank());
    std::vector<int> out;
    const auto counts = ctx.world().gatherv(std::span<const int>(mine), out, 0);
    if (ctx.rank() == 0) {
      EXPECT_EQ(counts, (std::vector<std::size_t>{1, 2, 3}));
      EXPECT_EQ(out, (std::vector<int>{0, 1, 1, 2, 2, 2}));
    }
    const auto everywhere = ctx.world().allgatherv(std::span<const int>(mine));
    EXPECT_EQ(everywhere, (std::vector<int>{0, 1, 1, 2, 2, 2}));
    std::vector<std::vector<int>> chunks;
    if (ctx.rank() == 0) chunks = {{10}, {20, 21}, {30, 31, 32}};
    const auto chunk = ctx.world().scatterv(chunks, 0);
    EXPECT_EQ(chunk.size(), static_cast<size_t>(ctx.rank() + 1));
    EXPECT_EQ(chunk[0], (ctx.rank() + 1) * 10);
  });
  universe.await_all();
  EXPECT_TRUE(universe.failures().empty());
}

TEST(Spawn, ParentAndChildExchange) {
  Universe universe;
  std::atomic<int> child_checks{0};
  universe.launch("parent", 2, [&](Context& ctx) {
    const Comm inter = ctx.spawn(ctx.world(), 3, [&](Context& child) {
      ASSERT_TRUE(child.parent().has_value());
      EXPECT_EQ(child.parent()->remote_size(), 2);
      EXPECT_FALSE(child.parent()->is_inter() == false);
      const int v = child.parent()->recv_value<int>(0, 1);
      EXPECT_EQ(v, 777);
      child.parent()->send_value(0, 2, child.rank() + 100);
      ++child_checks;
    });
    EXPECT_TRUE(inter.is_inter());
    EXPECT_EQ(inter.remote_size(), 3);
    if (ctx.rank() == 0) {
      for (int r = 0; r < 3; ++r) inter.send_value(r, 1, 777);
      int sum = 0;
      for (int r = 0; r < 3; ++r) sum += inter.recv_value<int>(r, 2);
      EXPECT_EQ(sum, 100 + 101 + 102);
    }
  });
  universe.await_all();
  EXPECT_EQ(child_checks.load(), 3);
  EXPECT_TRUE(universe.failures().empty());
  EXPECT_EQ(universe.spawn_count(), 1);
  EXPECT_EQ(universe.total_ranks_launched(), 5);
}

TEST(Spawn, TopLevelHasNoParent) {
  Universe universe;
  universe.launch("t", 2, [](Context& ctx) {
    EXPECT_FALSE(ctx.parent().has_value());
  });
  universe.await_all();
  EXPECT_TRUE(universe.failures().empty());
}

TEST(Spawn, ChainOfGenerations) {
  // A set spawns a smaller set which spawns a bigger one: the malleability
  // pattern (shrink then expand) at substrate level.
  Universe universe;
  std::atomic<int> final_world{0};
  universe.launch("g0", 4, [&](Context& ctx) {
    ctx.spawn(ctx.world(), 2, [&](Context& g1) {
      g1.spawn(g1.world(), 6, [&](Context& g2) {
        if (g2.rank() == 0) final_world = g2.size();
      });
    });
  });
  universe.await_all();
  EXPECT_EQ(final_world.load(), 6);
  EXPECT_EQ(universe.total_ranks_launched(), 12);
  EXPECT_TRUE(universe.failures().empty());
}

TEST(Spawn, HostsPropagate) {
  Universe universe;
  universe.launch("t", 1, [](Context& ctx) {
    const Comm inter = ctx.spawn(
        ctx.world(), 2,
        [](Context& child) {
          ASSERT_EQ(child.hosts().size(), 2u);
          EXPECT_EQ(child.hosts()[0], "nodeA");
          EXPECT_EQ(child.hosts()[1], "nodeB");
        },
        {"nodeA", "nodeB"});
    (void)inter;
  });
  universe.await_all();
  EXPECT_TRUE(universe.failures().empty());
}

TEST(Universe, EntryExceptionsBecomeFailures) {
  Universe universe;
  universe.launch("t", 2, [](Context& ctx) {
    if (ctx.rank() == 1) throw std::runtime_error("boom");
  });
  universe.await_all();
  const auto failures = universe.failures();
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("boom"), std::string::npos);
  EXPECT_NE(failures[0].find("rank 1"), std::string::npos);
}

TEST(Collectives, InterCommRejectsCollectives) {
  Universe universe;
  universe.launch("t", 1, [](Context& ctx) {
    const Comm inter = ctx.spawn(ctx.world(), 1, [](Context&) {});
    EXPECT_THROW(inter.barrier(), SmpiError);
  });
  universe.await_all();
  EXPECT_TRUE(universe.failures().empty());
}

}  // namespace
