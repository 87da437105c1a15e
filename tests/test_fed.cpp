// Federation tests: per-policy placement decisions, eligibility
// rejection and failover, id routing, metrics aggregation (federation
// totals must equal the sum of the member slices) and a two-cluster
// end-to-end driver run.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/models.hpp"
#include "drv/workload_driver.hpp"
#include "fed/federation.hpp"
#include "fed/member_mix.hpp"

namespace {

using namespace dmr;

rms::JobSpec spec(const std::string& name, int nodes,
                  const std::string& partition = "") {
  rms::JobSpec s;
  s.name = name;
  s.requested_nodes = nodes;
  s.min_nodes = 1;
  s.time_limit = 1000.0;
  s.partition = partition;
  return s;
}

fed::ClusterSpec member(const std::string& name, int nodes) {
  fed::ClusterSpec m;
  m.name = name;
  m.rms.nodes = nodes;
  return m;
}

fed::ClusterSpec member(const std::string& name,
                        std::vector<rms::Partition> partitions) {
  fed::ClusterSpec m;
  m.name = name;
  m.rms.partitions = std::move(partitions);
  return m;
}

fed::FederationConfig config(std::vector<fed::ClusterSpec> members,
                             fed::Placement placement) {
  fed::FederationConfig c;
  c.clusters = std::move(members);
  c.placement = placement;
  return c;
}

TEST(Federation, RejectsEmptyAndDuplicateMembers) {
  EXPECT_THROW(fed::Federation(fed::FederationConfig{}),
               std::invalid_argument);
  EXPECT_THROW(fed::Federation(config({member("a", 4), member("a", 8)},
                                      fed::Placement::RoundRobin)),
               std::invalid_argument);
}

TEST(Federation, IdsAreGloballyUniqueAndRouteBack) {
  fed::Federation f(config({member("a", 4), member("b", 4)},
                           fed::Placement::RoundRobin));
  const auto j1 = f.submit(spec("j1", 1), 0.0);  // -> a
  const auto j2 = f.submit(spec("j2", 1), 0.0);  // -> b
  EXPECT_NE(j1, j2);
  EXPECT_EQ(f.cluster_of(j1), 0);
  EXPECT_EQ(f.cluster_of(j2), 1);
  EXPECT_EQ(f.job(j1).spec.name, "j1");
  EXPECT_EQ(f.job(j2).spec.name, "j2");
  f.schedule(1.0);
  EXPECT_TRUE(f.query(j1).running());
  EXPECT_TRUE(f.query(j2).running());
  f.cancel(j1, 2.0);
  EXPECT_TRUE(f.query(j1).finished());
  EXPECT_THROW(f.cluster_of(-7), std::out_of_range);
  EXPECT_THROW(f.query(5 * rms::kClusterIdStride + 1), std::out_of_range);
}

TEST(Federation, RoundRobinCyclesMembers) {
  fed::Federation f(config({member("a", 8), member("b", 8), member("c", 8)},
                           fed::Placement::RoundRobin));
  std::vector<int> routed;
  for (int i = 0; i < 6; ++i) {
    routed.push_back(f.cluster_of(f.submit(spec("j", 1), 0.0)));
  }
  EXPECT_EQ(routed, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(Federation, RoundRobinFailsOverPastTooSmallMember) {
  // The cursor starts at "small", but a 6-node job only fits "big": the
  // policy must skip the ineligible member without losing its turn.
  fed::Federation f(config({member("small", 4), member("big", 8)},
                           fed::Placement::RoundRobin));
  EXPECT_EQ(f.cluster_of(f.submit(spec("wide", 6), 0.0)), 1);
  EXPECT_EQ(f.cluster_of(f.submit(spec("narrow", 1), 0.0)), 0);
  EXPECT_EQ(f.cluster_of(f.submit(spec("narrow2", 1), 0.0)), 1);
}

TEST(Federation, RejectsJobNoMemberCanEverRun) {
  fed::Federation f(config({member("a", 4), member("b", 8)},
                           fed::Placement::RoundRobin));
  EXPECT_THROW(f.submit(spec("huge", 9), 0.0), std::invalid_argument);
  EXPECT_THROW(f.submit(spec("lost", 1, "no-such-partition"), 0.0),
               std::invalid_argument);
  EXPECT_THROW(f.submit(spec("zero", 0), 0.0), std::invalid_argument);
}

TEST(Federation, PinnedPartitionRoutesToTheMemberThatHasIt) {
  fed::Federation f(config(
      {member("hom", 8), member("het", {rms::Partition{"fast", 4, 1.5}})},
      fed::Placement::RoundRobin));
  for (int i = 0; i < 3; ++i) {
    const auto id = f.submit(spec("pinned", 2, "fast"), 0.0);
    EXPECT_EQ(f.cluster_of(id), 1);
  }
  // Too wide for the 4-node "fast" partition anywhere -> rejected even
  // though the "hom" member has 8 nodes.
  EXPECT_THROW(f.submit(spec("pinned-wide", 5, "fast"), 0.0),
               std::invalid_argument);
}

TEST(Federation, LeastLoadedPicksMostIdleNodes) {
  fed::Federation f(config({member("a", 4), member("b", 8)},
                           fed::Placement::LeastLoaded));
  std::vector<int> routed;
  for (int i = 0; i < 5; ++i) {
    const auto id = f.submit(spec("j", 1), 0.0);
    f.schedule(0.0);  // start it, so idle counts move
    routed.push_back(f.cluster_of(id));
  }
  // b leads 8,7,6,5 idle; at 4-4 the tie breaks to the lower index.
  EXPECT_EQ(routed, (std::vector<int>{1, 1, 1, 1, 0}));
}

TEST(Federation, BestFitSpeedPrefersFastPoolThenFallsBack) {
  fed::Federation f(config(
      {member("slow", {rms::Partition{"s", 8, 0.5}}),
       member("fast", {rms::Partition{"f", 4, 1.5}})},
      fed::Placement::BestFitSpeed));
  std::vector<int> routed;
  for (int i = 0; i < 4; ++i) {
    const auto id = f.submit(spec("j", 3), 0.0);
    f.schedule(0.0);
    routed.push_back(f.cluster_of(id));
  }
  // fast fits the first job now (4 idle); then only slow can start one
  // immediately; the fourth fits nowhere now -> fastest pool overall.
  EXPECT_EQ(routed, (std::vector<int>{1, 0, 0, 1}));
}

TEST(Federation, QueueDepthBalancesBacklog) {
  fed::Federation f(config({member("a", 4), member("b", 4)},
                           fed::Placement::QueueDepth));
  std::vector<int> routed;
  // Fill both members, then keep submitting without scheduling: the
  // backlog must alternate instead of piling onto one member.
  for (int i = 0; i < 2; ++i) {
    const auto id = f.submit(spec("filler", 4), 0.0);
    f.schedule(0.0);
    routed.push_back(f.cluster_of(id));
  }
  for (int i = 0; i < 4; ++i) {
    routed.push_back(f.cluster_of(f.submit(spec("queued", 4), 0.0)));
  }
  EXPECT_EQ(routed, (std::vector<int>{0, 1, 0, 1, 0, 1}));
}

TEST(Federation, CountersAggregateAcrossMembers) {
  fed::Federation f(config({member("a", 4), member("b", 4)},
                           fed::Placement::RoundRobin));
  const auto j1 = f.submit(spec("j1", 2), 0.0);
  const auto j2 = f.submit(spec("j2", 2), 0.0);
  f.schedule(0.0);
  ::dmr::Request request;
  request.min_procs = 1;
  request.max_procs = 4;
  (void)f.dmr_check(j1, request, 1.0);  // expands into a's idle half
  (void)f.dmr_check(j2, request, 1.0);  // expands into b's idle half
  const auto total = f.counters();
  EXPECT_EQ(total.checks, 2);
  EXPECT_EQ(total.checks, f.manager(0).counters().checks +
                              f.manager(1).counters().checks);
  EXPECT_EQ(total.expands, f.manager(0).counters().expands +
                               f.manager(1).counters().expands);
  std::size_t jobs = 0;
  for (int c = 0; c < f.cluster_count(); ++c) {
    jobs += f.manager(c).jobs().size();
  }
  EXPECT_EQ(jobs, 2u);
  EXPECT_EQ(f.placements(), (std::vector<long long>{1, 1}));
}

TEST(Federation, PlacementsCountOnlyAcceptedSubmissions) {
  // A placement is a job its member accepted: a submission the member
  // rejects leaves every count at zero, on the one-member fast path and
  // through the placement policy alike.
  for (int members : {1, 2}) {
    SCOPED_TRACE(::testing::Message() << members << " member(s)");
    std::vector<fed::ClusterSpec> clusters;
    for (int c = 0; c < members; ++c) {
      clusters.push_back(member("m" + std::to_string(c), 8));
    }
    fed::Federation f(config(std::move(clusters), fed::Placement::RoundRobin));
    rms::JobSpec bad = spec("no-minimum", 2);
    bad.min_nodes = 0;
    EXPECT_THROW(f.submit(bad, 0.0), std::invalid_argument);
    const std::vector<long long> none(static_cast<std::size_t>(members), 0);
    EXPECT_EQ(f.placements(), none);
    const JobId id = f.submit(spec("ok", 2), 1.0);
    std::vector<long long> one = none;
    one[static_cast<std::size_t>(f.cluster_of(id))] = 1;
    EXPECT_EQ(f.placements(), one);
  }
}

TEST(Federation, ConservativeSpeedCoversTheSlowestEligibleMember) {
  fed::Federation f(config(
      {member("hom", 8),
       member("het", {rms::Partition{"fast", 4, 1.25},
                      rms::Partition{"slow", 4, 0.5}})},
      fed::Placement::RoundRobin));
  // Spanning jobs may land on het's slow partition.
  EXPECT_DOUBLE_EQ(f.conservative_speed(""), 0.5);
  // Pinned jobs can only run on the named partition.
  EXPECT_DOUBLE_EQ(f.conservative_speed("fast"), 1.25);
  // A single-partition member's speed counts too: a spanning job routed
  // to "slowmono" would be gated at 0.4, and the time-limit estimate
  // must stay an overestimate.
  fed::Federation g(config(
      {member("hom", 8), member("slowmono", {rms::Partition{"m", 6, 0.4}})},
      fed::Placement::RoundRobin));
  EXPECT_DOUBLE_EQ(g.conservative_speed(""), 0.4);
}

// --- end-to-end through the workload driver ---------------------------------

drv::JobPlan fs_plan(double arrival, int size, double runtime, int steps) {
  drv::JobPlan plan;
  plan.arrival = arrival;
  plan.model =
      apps::fs_model(steps, size, runtime / steps, 16, std::size_t(1) << 20);
  plan.submit_nodes = size;
  plan.flexible = true;
  return plan;
}

TEST(FederationDriver, TwoClusterEndToEndAggregation) {
  sim::Engine engine;
  drv::DriverConfig config;
  config.federation =
      ::config({member("east", 16),
                member("west", {rms::Partition{"fast", 8, 1.0},
                                rms::Partition{"slow", 8, 0.6}})},
               fed::Placement::RoundRobin);
  drv::WorkloadDriver driver(engine, config);
  for (int i = 0; i < 12; ++i) {
    driver.submit_at(fs_plan(20.0 * i, 2 + (i % 4) * 2, 600.0, 5));
  }
  const auto metrics = driver.run();

  ASSERT_EQ(metrics.jobs, 12);
  ASSERT_EQ(static_cast<int>(metrics.clusters.size()), 2);
  // Federation totals are exactly the sum of the member slices.
  int member_jobs = 0;
  double weighted_utilization = 0.0;
  double member_makespan = 0.0;
  for (const auto& member : metrics.clusters) {
    EXPECT_GT(member.jobs, 0) << member.name << " received no jobs";
    member_jobs += member.jobs;
    weighted_utilization += member.utilization * member.nodes;
    member_makespan = std::max(member_makespan, member.makespan);
  }
  EXPECT_EQ(member_jobs, metrics.jobs);
  EXPECT_NEAR(metrics.utilization,
              weighted_utilization / driver.federation().total_nodes(), 1e-6);
  EXPECT_DOUBLE_EQ(metrics.makespan, member_makespan);
  const auto counters = driver.federation().counters();
  EXPECT_EQ(metrics.expands, counters.expands);
  EXPECT_EQ(metrics.shrinks, counters.shrinks);
  EXPECT_EQ(metrics.checks,
            driver.federation().manager(0).counters().checks +
                driver.federation().manager(1).counters().checks);
  // Heterogeneous member partitions appear qualified by member name.
  bool saw_qualified = false;
  for (const auto& part : metrics.partitions) {
    if (part.name.rfind("west/", 0) == 0) saw_qualified = true;
  }
  EXPECT_TRUE(saw_qualified);
}

TEST(FederationDriver, SingleMemberFederationMatchesPlainRms) {
  const auto build = [](drv::DriverConfig config) {
    sim::Engine engine;
    drv::WorkloadDriver driver(engine, config);
    for (int i = 0; i < 8; ++i) {
      driver.submit_at(fs_plan(15.0 * i, 2 + (i % 3) * 2, 300.0, 4));
    }
    return driver.run();
  };
  drv::DriverConfig plain;
  plain.rms.nodes = 12;
  drv::DriverConfig federated;
  federated.federation =
      ::config({member("solo", 12)}, fed::Placement::LeastLoaded);
  const auto a = build(plain);
  const auto b = build(federated);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.wait.mean, b.wait.mean);
  EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.expands, b.expands);
  EXPECT_EQ(a.shrinks, b.shrinks);
  EXPECT_TRUE(b.clusters.empty());  // single member: no federation slices
}

TEST(FederationDriver, PlacementPoliciesDivergeOnTheSameTrace) {
  // Same workload, three placement policies: at least two distinct
  // makespans/waits must emerge (the acceptance check behind the sweep's
  // "measurably different" requirement, in miniature).
  const auto run_with = [](fed::Placement placement) {
    sim::Engine engine;
    drv::DriverConfig config;
    config.federation = ::config(
        {member("alpha", 16),
         member("beta", {rms::Partition{"fast", 8, 1.25},
                         rms::Partition{"slow", 4, 0.6}}),
         member("gamma", {rms::Partition{"g", 6, 0.8}})},
        placement);
    drv::WorkloadDriver driver(engine, config);
    for (int i = 0; i < 18; ++i) {
      driver.submit_at(fs_plan(10.0 * i, 2 + (i % 3) * 3, 400.0, 4));
    }
    return driver.run();
  };
  const auto rr = run_with(fed::Placement::RoundRobin);
  const auto ll = run_with(fed::Placement::LeastLoaded);
  const auto bf = run_with(fed::Placement::BestFitSpeed);
  EXPECT_EQ(rr.jobs, 18);
  EXPECT_EQ(ll.jobs, 18);
  EXPECT_EQ(bf.jobs, 18);
  const bool diverged = rr.wait.mean != ll.wait.mean ||
                        ll.wait.mean != bf.wait.mean ||
                        rr.makespan != ll.makespan ||
                        ll.makespan != bf.makespan;
  EXPECT_TRUE(diverged);
}

// --- Member-mix generator --------------------------------------------------

TEST(MemberMix, ParsesHomogeneousAndHeterogeneousGroups) {
  const fed::MemberMix mix =
      fed::parse_member_mix("16x64,8x128:speed=0.6,2xfast=16@1.25+slow=8");
  ASSERT_EQ(mix.groups.size(), 3u);
  EXPECT_EQ(mix.total(), 26);
  EXPECT_EQ(mix.groups[0].count, 16);
  EXPECT_EQ(mix.groups[0].nodes, 64);
  EXPECT_DOUBLE_EQ(mix.groups[0].speed, 1.0);
  EXPECT_EQ(mix.groups[0].name, "m0");  // default group name
  EXPECT_EQ(mix.groups[1].count, 8);
  EXPECT_EQ(mix.groups[1].nodes, 128);
  EXPECT_DOUBLE_EQ(mix.groups[1].speed, 0.6);
  ASSERT_EQ(mix.groups[2].partitions.size(), 2u);
  EXPECT_EQ(mix.groups[2].partitions[0].name, "fast");
  EXPECT_EQ(mix.groups[2].partitions[0].nodes, 16);
  EXPECT_DOUBLE_EQ(mix.groups[2].partitions[0].speed, 1.25);
  EXPECT_DOUBLE_EQ(mix.groups[2].partitions[1].speed, 1.0);  // default
}

TEST(MemberMix, RejectsMalformedSpecs) {
  for (const char* bad :
       {"", "x64", "4x", "4x0", "ax64", "4x64:speed=0", "4x64:speed=-1",
        "4x64:name=", "4x64:name=bad name", "4x64:bogus=1", "4xfast=",
        "4xfast=8@", "4xfast=8@0", "4xp", "1x8,1x8:name=m0",
        "1x8:name=a,1x16:name=a",
        // Speeds must be finite and in [0.01, 100]; counts take no sign
        // and no whitespace.
        "1x16:speed=inf", "1x16:speed=nan", "1x16:speed=1e-300",
        "1x16:speed=0x1p-1070", "1x16:speed=101", "1xa=8@inf+b=8",
        "1xa=8@0.001", "1x+16", " 1x16", "1x16 ", "+1x16", "1x 16", "1xa=+8"}) {
    EXPECT_THROW(fed::parse_member_mix(bad), std::invalid_argument)
        << "spec: '" << bad << "'";
  }
}

TEST(MemberMix, ErrorsNameTheGroupAndToken) {
  try {
    fed::parse_member_mix("4x64,8xbad@");
    FAIL() << "accepted malformed spec";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("group 1"), std::string::npos);
    EXPECT_NE(what.find("8xbad@"), std::string::npos);
  }
}

TEST(MemberMix, RejectsRepeatedPartitionNames) {
  // Both partitions would record into one utilization series and repeat
  // node names.
  try {
    fed::parse_member_mix("1x16,1xa=8+b=4+a=8");
    FAIL() << "accepted a repeated partition name";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("member mix: group 1: duplicate partition name 'a'"),
              std::string::npos)
        << what;
  }
  // Names repeat freely across groups.
  EXPECT_NO_THROW(fed::parse_member_mix("1xa=8+b=8,1xa=4+b=4"));
}

TEST(MemberMix, DefaultMixReproducesTheHistoricalCycle) {
  // The sweep's old hard-coded cycle: alpha (24 homogeneous), beta
  // (fast 16@1.25 + slow 8@0.6), gamma (g 12@0.8), then alpha2, beta2...
  const fed::MemberMix mix = fed::parse_member_mix(fed::kDefaultMemberMix);
  EXPECT_EQ(mix.total(), 3);
  const fed::ClusterSpec alpha = fed::member_spec(mix, 0);
  EXPECT_EQ(alpha.name, "alpha");
  EXPECT_EQ(alpha.rms.nodes, 24);
  EXPECT_TRUE(alpha.rms.partitions.empty());
  const fed::ClusterSpec beta = fed::member_spec(mix, 1);
  EXPECT_EQ(beta.name, "beta");
  ASSERT_EQ(beta.rms.partitions.size(), 2u);
  EXPECT_EQ(beta.rms.partitions[0].name, "fast");
  EXPECT_EQ(beta.rms.partitions[0].nodes, 16);
  EXPECT_DOUBLE_EQ(beta.rms.partitions[0].speed, 1.25);
  EXPECT_EQ(beta.rms.partitions[1].name, "slow");
  const fed::ClusterSpec gamma = fed::member_spec(mix, 2);
  EXPECT_EQ(gamma.name, "gamma");
  ASSERT_EQ(gamma.rms.partitions.size(), 1u);
  EXPECT_EQ(gamma.rms.partitions[0].name, "g");
  EXPECT_EQ(gamma.rms.partitions[0].nodes, 12);
  EXPECT_DOUBLE_EQ(gamma.rms.partitions[0].speed, 0.8);
  // Cycling past the mix numbers the names the way the sweep always did.
  EXPECT_EQ(fed::member_spec(mix, 3).name, "alpha2");
  EXPECT_EQ(fed::member_spec(mix, 4).name, "beta2");
  EXPECT_EQ(fed::member_spec(mix, 5).name, "gamma2");
  EXPECT_EQ(fed::member_spec(mix, 7).name, "beta3");
}

TEST(MemberMix, MultiCountGroupsNumberEveryMember) {
  const fed::MemberMix mix = fed::parse_member_mix("2x8:name=thin,1x32");
  EXPECT_EQ(fed::member_spec(mix, 0).name, "thin1");
  EXPECT_EQ(fed::member_spec(mix, 1).name, "thin2");
  EXPECT_EQ(fed::member_spec(mix, 2).name, "m1");
  EXPECT_EQ(fed::member_spec(mix, 3).name, "thin3");
  EXPECT_EQ(fed::member_spec(mix, 5).name, "m12");
  // A slow homogeneous group materializes as a single speed partition.
  const fed::MemberMix slow = fed::parse_member_mix("1x128:speed=0.6");
  const fed::ClusterSpec spec = fed::member_spec(slow, 0);
  ASSERT_EQ(spec.rms.partitions.size(), 1u);
  EXPECT_EQ(spec.rms.partitions[0].nodes, 128);
  EXPECT_DOUBLE_EQ(spec.rms.partitions[0].speed, 0.6);
  // Member specs feed a real federation.
  fed::FederationConfig config;
  config.clusters = {fed::member_spec(mix, 0), fed::member_spec(mix, 1),
                     fed::member_spec(mix, 2)};
  fed::Federation federation(config);
  EXPECT_EQ(federation.total_nodes(), 48);
}

}  // namespace
