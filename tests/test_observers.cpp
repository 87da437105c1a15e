// Golden observer outputs: what every attached observer records, pinned
// across seeds {1, 7, 42, 2017} on the three drive paths (single
// cluster, 3-member federation, resident-service replay).
//
// test_calendar pins the *outcomes*; this file pins what the observers
// say about them, so the wiring between the simulator and its observers
// can be rebuilt without changing a single recorded fact:
//  - the Chrome trace, as the multiset of its events with the wall-time
//    `dur` of "X" spans removed (same-instant events may interleave
//    differently; their timestamps, tracks, names and args may not);
//  - the obs::WaitAttributor sidecar, byte for byte;
//  - every count in the chk::Auditor report;
//  - the rms::Accounting ledger at full precision.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "chk/auditor.hpp"
#include "engine_digests.hpp"
#include "obs/attr.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "obs/validate.hpp"
#include "rms/accounting.hpp"

namespace {

using namespace dmr;

struct ObserverDigests {
  std::uint64_t trace = 0;
  std::uint64_t attr = 0;
  std::uint64_t audit = 0;
  std::uint64_t accounting = 0;

  bool operator==(const ObserverDigests& other) const {
    return trace == other.trace && attr == other.attr &&
           audit == other.audit && accounting == other.accounting;
  }
};

std::string hex(const ObserverDigests& digests) {
  char text[160];
  std::snprintf(text, sizeof(text), "{0x%016llxULL, 0x%016llxULL, "
                "0x%016llxULL, 0x%016llxULL}",
                static_cast<unsigned long long>(digests.trace),
                static_cast<unsigned long long>(digests.attr),
                static_cast<unsigned long long>(digests.audit),
                static_cast<unsigned long long>(digests.accounting));
  return text;
}

/// Every observer a run can carry, plus one accounting ledger per member.
struct Observers {
  obs::TraceRecorder trace;
  obs::Profiler profiler;
  chk::Auditor auditor;
  obs::WaitAttributor attr;
  std::deque<rms::Accounting> ledgers;

  obs::Hooks hooks() {
    return {.trace = &trace,
            .profiler = &profiler,
            .auditor = &auditor,
            .attr = &attr};
  }

  void keep_ledgers(fed::Federation& federation) {
    for (int c = 0; c < federation.cluster_count(); ++c) {
      ledgers.emplace_back(federation.manager(c));
    }
  }
};

/// The trace's events, minus the wall-clock `dur` of "X" spans, sorted
/// and hashed.
std::uint64_t trace_digest(const obs::TraceRecorder& trace) {
  const std::string json = trace.to_json();
  const std::string open = "\"traceEvents\":[";
  const std::size_t begin = json.find(open) + open.size();
  const std::size_t end = json.rfind("]}");
  const std::string body = json.substr(begin, end - begin);
  std::vector<std::string> events;
  std::size_t from = 0;
  for (;;) {
    const std::size_t split = body.find(",\n", from);
    events.push_back(body.substr(from, split - from));
    if (split == std::string::npos) break;
    from = split + 2;
  }
  for (std::string& event : events) {
    if (event.find("\"ph\":\"X\"") == std::string::npos) continue;
    const std::size_t dur = event.find(",\"dur\":");
    const std::size_t stop = event.find_first_of(",}", dur + 1);
    event.erase(dur, stop - dur);
  }
  std::sort(events.begin(), events.end());
  std::string canonical;
  for (const std::string& event : events) canonical += event + "\n";
  return digests::fnv1a(canonical);
}

std::uint64_t audit_digest(const chk::Report& report) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "edges=%lld dispatches=%lld conservation=%lld placements=%lld "
                "federation=%lld redist=%lld violations=%zu dropped=%lld\n",
                report.lifecycle_edges, report.event_dispatches,
                report.conservation_audits, report.placement_checks,
                report.federation_audits, report.redist_reports,
                report.violations.size(), report.dropped_violations);
  return digests::fnv1a(line);
}

std::uint64_t accounting_digest(const std::deque<rms::Accounting>& ledgers) {
  std::string text;
  char line[256];
  for (const rms::Accounting& ledger : ledgers) {
    for (const rms::JobRecord* record : ledger.records()) {
      std::snprintf(line, sizeof(line),
                    "%llu:%s:%d:%d:%d:%.17g:%.17g:%.17g:%d:%d:%.17g\n",
                    static_cast<unsigned long long>(record->id),
                    record->name.c_str(), record->submitted_nodes,
                    record->started_nodes, record->final_nodes,
                    record->submit_time, record->start_time, record->end_time,
                    static_cast<int>(record->final_state), record->flexible,
                    record->node_seconds);
      text += line;
      for (const rms::ResizeEntry& resize : record->resizes) {
        std::snprintf(line, sizeof(line), "  %.17g:%d:%d:%d\n", resize.time,
                      static_cast<int>(resize.action), resize.old_size,
                      resize.new_size);
        text += line;
      }
    }
  }
  return digests::fnv1a(text);
}

ObserverDigests digest_observers(const Observers& observers) {
  const chk::Report report = observers.auditor.report();
  EXPECT_TRUE(report.ok()) << report.describe();
  EXPECT_EQ(observers.trace.dropped(), 0u);
  const obs::TraceValidation validation =
      obs::validate_trace(observers.trace.to_json());
  EXPECT_TRUE(validation.ok) << validation.describe();
  EXPECT_GT(observers.profiler.events(), 0u);
  return {trace_digest(observers.trace),
          digests::fnv1a(observers.attr.to_json()), audit_digest(report),
          accounting_digest(observers.ledgers)};
}

ObserverDigests run_batch(drv::DriverConfig config, std::uint64_t seed,
                          int max_size) {
  Observers observers;
  config.hooks = observers.hooks();
  sim::Engine engine;
  drv::WorkloadDriver driver(engine, config);
  observers.keep_ledgers(driver.federation_mutable());
  for (auto& plan : digests::fs_workload(seed, 60, max_size)) {
    driver.submit_at(std::move(plan));
  }
  driver.run();
  return digest_observers(observers);
}

/// The single-cluster path of engine_digests.hpp, observed.
ObserverDigests single_cluster(std::uint64_t seed) {
  drv::DriverConfig config;
  config.rms.nodes = 20;
  return run_batch(config, seed, 20);
}

/// The 3-member federation path of engine_digests.hpp, observed.
ObserverDigests federation(std::uint64_t seed) {
  drv::DriverConfig config;
  const fed::MemberMix mix = fed::parse_member_mix(fed::kDefaultMemberMix);
  for (int c = 0; c < 3; ++c) {
    config.federation.clusters.push_back(fed::member_spec(mix, c));
  }
  config.federation.placement = fed::Placement::LeastLoaded;
  return run_batch(config, seed, 12);
}

/// The resident-service replay of engine_digests.hpp, observed.
ObserverDigests service(std::uint64_t seed) {
  Observers observers;
  svc::ServiceConfig config;
  const fed::MemberMix mix = fed::parse_member_mix(fed::kDefaultMemberMix);
  for (int c = 0; c < 3; ++c) {
    config.driver.federation.clusters.push_back(fed::member_spec(mix, c));
  }
  config.driver.federation.placement = fed::Placement::LeastLoaded;
  config.driver.hooks = observers.hooks();
  config.sample_period = 40.0 + double(seed % 3) * 10.0;
  config.window = 4 * config.sample_period;
  svc::Service live(config);
  observers.keep_ledgers(live.driver_mutable().federation_mutable());

  util::Rng rng(seed);
  double arrival = 0.0;
  for (long long tag = 0; tag < 40; ++tag) {
    svc::JobRequest request;
    request.tag = tag;
    request.arrival = arrival;
    request.nodes = static_cast<int>(rng.uniform_int(2, 8));
    request.min_nodes = std::max(1, request.nodes / 4);
    request.max_nodes = request.nodes * 2;
    request.runtime = rng.uniform(100.0, 400.0);
    request.steps = 5;
    request.flexible = rng.bernoulli(0.7);
    live.submit(request);
    arrival += rng.exponential_mean(30.0);
  }
  EXPECT_TRUE(live.drain());
  return digest_observers(observers);
}

// The trace, attribution and accounting digests were re-pinned when user
// ids became consecutive (the expand protocol's resizer left the job
// table): they carry job ids, and renumbering the parent's ids maps each
// trace, sidecar and ledger onto the new one.  The audit digests, which
// carry no id, did not move.  The attribution digests were re-pinned
// again when the `dependency` cause went (nothing reported it): deleting
// `"dependency":0,` from each old sidecar gives the new one byte for
// byte.
struct Golden {
  std::uint64_t seed;
  ObserverDigests single_cluster;
  ObserverDigests federation;
  ObserverDigests service;
};

constexpr Golden kGoldens[] = {
    {1ULL,
     {0x8b4578aa44d4f5e7ULL, 0x865f3a1b8e8f35d9ULL, 0xb04262c498ad89ddULL,
      0x595bdef331867d31ULL},
     {0xca0b9acc6846cea6ULL, 0xbe8e8b9b77aed9b7ULL, 0xbcae59b2bd32c029ULL,
      0x6b5972d2d875e702ULL},
     {0x40ccde4318281e2bULL, 0xae1fcbc1d3ac8c9fULL, 0xafeb29b3d4d020adULL,
      0x439a0280103a728cULL}},
    {7ULL,
     {0x853413d9acadd3aeULL, 0xc9185d3b072f6114ULL, 0x550a0928ccf2172eULL,
      0x442c7bd7413bb4c2ULL},
     {0xc9d5244bdb907fc5ULL, 0x12c085e12536c16dULL, 0x4ff933731f9a637dULL,
      0x80e7cd7575436b85ULL},
     {0xf59d3371e1f190d5ULL, 0x287ca336711a35d8ULL, 0x3056af47d4cd5c99ULL,
      0xd9e86fd28fdf6cecULL}},
    {42ULL,
     {0x41579f7db5b5fbafULL, 0xa8da2be4f1fda8ceULL, 0xe69cdcaad2304351ULL,
      0xab2146c31f1e5440ULL},
     {0x78c1beda01183be0ULL, 0x41814f97f8aa1b9dULL, 0x7d2c1c7de948b134ULL,
      0x1ca9c3e67c66b483ULL},
     {0xe968f7c0481b1bc5ULL, 0x2906eca1dc2de1beULL, 0x0d28deb24c98b2a9ULL,
      0xc0fb5f04f53a7e1fULL}},
    {2017ULL,
     {0x14ba53e27fb9fcadULL, 0x324f5086e1f2bfa1ULL, 0x6c0f20ab06e97809ULL,
      0xbfb0fbe9c7d9f74bULL},
     {0xa5715845a4774583ULL, 0xf91ab737514a2bceULL, 0x6fbdff7a48102576ULL,
      0xc63e72496523444aULL},
     {0xda07c1350eb8827bULL, 0xf051e0304671723dULL, 0x7b04ea0acb3f2daeULL,
      0x2c1362b41c020be6ULL}},
};

TEST(ObserverGolden, SingleClusterSeedSweep) {
  for (const Golden& golden : kGoldens) {
    const ObserverDigests actual = single_cluster(golden.seed);
    EXPECT_TRUE(actual == golden.single_cluster)
        << "seed " << golden.seed << ": " << hex(actual);
  }
}

TEST(ObserverGolden, FederationSeedSweep) {
  for (const Golden& golden : kGoldens) {
    const ObserverDigests actual = federation(golden.seed);
    EXPECT_TRUE(actual == golden.federation)
        << "seed " << golden.seed << ": " << hex(actual);
  }
}

TEST(ObserverGolden, ServiceReplaySeedSweep) {
  for (const Golden& golden : kGoldens) {
    const ObserverDigests actual = service(golden.seed);
    EXPECT_TRUE(actual == golden.service)
        << "seed " << golden.seed << ": " << hex(actual);
  }
}

}  // namespace
