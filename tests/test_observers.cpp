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
    driver.add(std::move(plan));
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

struct Golden {
  std::uint64_t seed;
  ObserverDigests single_cluster;
  ObserverDigests federation;
  ObserverDigests service;
};

constexpr Golden kGoldens[] = {
    {1ULL,
     {0x007865080f53744fULL, 0xc573e6932a292858ULL, 0xb04262c498ad89ddULL,
      0x66fd893d1ce3e9d6ULL},
     {0xd042190049f25340ULL, 0x5dd98ca78e952392ULL, 0xbcae59b2bd32c029ULL,
      0xa33acd877427da2cULL},
     {0x74e358746a76d241ULL, 0x313aa868c84c1049ULL, 0xe0c2d6720706f695ULL,
      0x5df484ae0dec858cULL}},
    {7ULL,
     {0xc884d8ec73975e44ULL, 0x6a843f6ae5bb64c1ULL, 0x550a0928ccf2172eULL,
      0x9b14e091ec072f51ULL},
     {0xfa79568c9770bc63ULL, 0x02312d4c49184676ULL, 0x4ff933731f9a637dULL,
      0xbb11088e7ddc15a9ULL},
     {0xb4e902f7aa4cc109ULL, 0xa7d72ff49d086f5eULL, 0xc7c50f0f8f475b30ULL,
      0xd0dab201fdec1609ULL}},
    {42ULL,
     {0x12a6e145c15898b3ULL, 0x89d162d32565279aULL, 0xe69cdcaad2304351ULL,
      0x0df2c56b3341b589ULL},
     {0x2e97141177542802ULL, 0xd582e4fd42dc9393ULL, 0x7d2c1c7de948b134ULL,
      0x047d30618e541cecULL},
     {0x0ec2e8bc49d1d02dULL, 0x20a5427b2a328900ULL, 0xdaf9fbb133cedf30ULL,
      0x980da0d0f040b464ULL}},
    {2017ULL,
     {0x43658c486f5be8ccULL, 0x9718df8e06c0cae7ULL, 0x6c0f20ab06e97809ULL,
      0xde696912fd3457aaULL},
     {0xf35fabcc0b8e467cULL, 0x7a0d61ff6fb856feULL, 0x6fbdff7a48102576ULL,
      0x99b12403cd3836a7ULL},
     {0xd2a8d28e2f35408fULL, 0x35bf4b8a89fb8142ULL, 0x1d813f95b25c54b6ULL,
      0xe69d008d77875a72ULL}},
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
