// Resident-service tests: the SPSC submission ring (FIFO order,
// QueueFull backpressure, cross-thread stress — the TSan target), the
// windowed histogram quantiles and expiry, streaming end-to-end runs,
// the snapshot round trip, the replay-determinism property
// (run(T1) == restore(snapshot(T0)).run(T1) field for field) and
// what-if fork divergence.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dmr/check.hpp"
#include "dmr/service.hpp"
#include "fed/member_mix.hpp"
#include "util/rng.hpp"

namespace {

using namespace dmr;

svc::JobRequest request_of(long long tag, double arrival, int nodes = 4,
                           double runtime = 200.0) {
  svc::JobRequest request;
  request.tag = tag;
  request.arrival = arrival;
  request.nodes = nodes;
  request.min_nodes = 1;
  request.max_nodes = nodes * 2;
  request.runtime = runtime;
  request.steps = 5;
  return request;
}

// --- SubmitQueue -----------------------------------------------------------

TEST(SubmitQueue, RoundsCapacityUpToPowerOfTwo) {
  EXPECT_EQ(svc::SubmitQueue(1).capacity(), 2u);
  EXPECT_EQ(svc::SubmitQueue(8).capacity(), 8u);
  EXPECT_EQ(svc::SubmitQueue(9).capacity(), 16u);
}

TEST(SubmitQueue, FifoOrder) {
  svc::SubmitQueue queue(8);
  for (long long tag = 0; tag < 5; ++tag) {
    EXPECT_EQ(queue.push(request_of(tag, double(tag))), svc::PushResult::Ok);
  }
  EXPECT_EQ(queue.size(), 5u);
  svc::JobRequest out;
  for (long long tag = 0; tag < 5; ++tag) {
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out.tag, tag);
  }
  EXPECT_FALSE(queue.pop(out));
  EXPECT_TRUE(queue.empty());
}

TEST(SubmitQueue, QueueFullBackpressureAndCounters) {
  svc::SubmitQueue queue(4);
  for (long long tag = 0; tag < 4; ++tag) {
    EXPECT_EQ(queue.push(request_of(tag, 0.0)), svc::PushResult::Ok);
  }
  // Full: the push is rejected and counted, nothing is dropped silently.
  EXPECT_EQ(queue.push(request_of(99, 0.0)), svc::PushResult::QueueFull);
  EXPECT_EQ(queue.push(request_of(99, 0.0)), svc::PushResult::QueueFull);
  EXPECT_EQ(queue.size(), 4u);
  EXPECT_EQ(queue.rejected_full(), 2u);
  // Draining one slot re-arms it for exactly one more push.
  svc::JobRequest out;
  ASSERT_TRUE(queue.pop(out));
  EXPECT_EQ(out.tag, 0);
  EXPECT_EQ(queue.push(request_of(4, 0.0)), svc::PushResult::Ok);
  EXPECT_EQ(queue.push(request_of(5, 0.0)), svc::PushResult::QueueFull);
  // FIFO across the wrap.
  for (long long tag = 1; tag <= 4; ++tag) {
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out.tag, tag);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(SubmitQueue, CrossThreadStressKeepsOrderAndLosesNothing) {
  // One producer thread, one consumer thread, a ring far smaller than
  // the transfer count so every slot wraps many times.  Run under TSan
  // (the dedicated CI job) this is the memory-ordering proof; under the
  // normal jobs it is a liveness and FIFO check.
  constexpr long long kCount = 20000;
  svc::SubmitQueue queue(16);
  std::vector<long long> seen;
  seen.reserve(kCount);
  std::thread consumer([&queue, &seen] {
    svc::JobRequest out;
    while (seen.size() < kCount) {
      if (queue.pop(out)) {
        seen.push_back(out.tag);
      } else {
        std::this_thread::yield();
      }
    }
  });
  long long rejected = 0;
  for (long long tag = 0; tag < kCount;) {
    if (queue.push(request_of(tag, double(tag))) == svc::PushResult::Ok) {
      ++tag;
    } else {
      ++rejected;
      std::this_thread::yield();
    }
  }
  consumer.join();
  ASSERT_EQ(seen.size(), std::size_t(kCount));
  for (long long tag = 0; tag < kCount; ++tag) {
    ASSERT_EQ(seen[std::size_t(tag)], tag);
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.rejected_full(), std::uint64_t(rejected));
}

// --- WindowedHistogram / MetricsWindow -------------------------------------

TEST(WindowedHistogram, QuantilesWithinBucketResolution) {
  svc::WindowedHistogram hist(4);
  for (int i = 1; i <= 1000; ++i) hist.add(double(i));  // 1..1000 s
  // One log-bucket is a factor of 10^(1/16) ~ 1.15; allow two.
  EXPECT_NEAR(hist.quantile(0.5), 500.0, 500.0 * 0.35);
  EXPECT_NEAR(hist.quantile(0.99), 990.0, 990.0 * 0.35);
  EXPECT_GE(hist.quantile(0.99), hist.quantile(0.5));
  EXPECT_EQ(hist.count(), 1000u);
  EXPECT_NEAR(hist.mean(), 500.5, 1e-6);
}

TEST(WindowedHistogram, EmptyWindowIsZeroNotNaN) {
  svc::WindowedHistogram hist(3);
  EXPECT_DOUBLE_EQ(hist.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(hist.quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
  EXPECT_FALSE(std::isnan(hist.quantile(0.95)));
}

TEST(WindowedHistogram, RotationExpiresOldObservations) {
  svc::WindowedHistogram hist(2);  // window = 2 intervals
  hist.add(100.0);
  hist.rotate();
  EXPECT_EQ(hist.count(), 1u);  // still inside the window
  hist.add(1.0);
  hist.rotate();
  // The 100 s observation just retired; only the 1 s one remains.
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_LT(hist.quantile(0.99), 2.0);
  hist.rotate();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.quantile(0.5), 0.0);
}

TEST(MetricsWindow, RejectsPeriodWiderThanWindow) {
  EXPECT_THROW(svc::MetricsWindow(10.0, 20.0), std::invalid_argument);
  EXPECT_THROW(svc::MetricsWindow(10.0, 0.0), std::invalid_argument);
}

TEST(MetricsWindow, EmptySampleIsAllZeros) {
  svc::MetricsWindow window(300.0, 30.0);
  svc::MetricsSample sample;
  window.fill(sample);
  EXPECT_EQ(sample.completed_in_window, 0);
  EXPECT_DOUBLE_EQ(sample.wait_p99, 0.0);
  EXPECT_DOUBLE_EQ(sample.reconfigs_per_second, 0.0);
  EXPECT_FALSE(std::isnan(sample.wait_mean));
  EXPECT_FALSE(std::isnan(sample.response_p95));
}

// --- Service: streaming end-to-end -----------------------------------------

svc::ServiceConfig small_service(int nodes = 16) {
  svc::ServiceConfig config;
  config.driver.rms.nodes = nodes;
  config.sample_period = 50.0;
  config.window = 200.0;
  return config;
}

TEST(Service, StreamsJobsThroughTheRingToCompletion) {
  svc::Service service(small_service());
  for (long long tag = 0; tag < 20; ++tag) {
    ASSERT_EQ(service.queue().push(request_of(tag, 30.0 * double(tag))),
              svc::PushResult::Ok);
  }
  ASSERT_TRUE(service.drain());
  EXPECT_EQ(service.accepted(), 20);
  EXPECT_EQ(service.completed(), 20);
  EXPECT_TRUE(service.all_done());
  const drv::WorkloadMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.jobs, 20);
  EXPECT_GT(metrics.makespan, 0.0);
  EXPECT_GT(metrics.utilization, 0.0);
  EXPECT_LE(metrics.utilization, 1.0);
}

TEST(Service, SampleTimesAreMonotoneAndLinesMirrorRecords) {
  svc::Service service(small_service());
  for (long long tag = 0; tag < 10; ++tag) {
    service.submit(request_of(tag, 40.0 * double(tag)));
  }
  service.drain();
  const auto& samples = service.sample_records();
  ASSERT_GT(samples.size(), 2u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GT(samples[i].time, samples[i - 1].time);
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const std::string line = samples[i].to_json();
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    for (const char* field : {"\"window\":", "\"utilization\":",
                              "\"queue_depth\":", "\"wait_p99\":",
                              "\"submitted_total\":"}) {
      EXPECT_NE(line.find(field), std::string::npos) << field << " in " << line;
    }
    EXPECT_EQ(line.find("nan"), std::string::npos) << line;
    EXPECT_EQ(line.find("inf"), std::string::npos) << line;
    EXPECT_FALSE(std::isnan(samples[i].utilization));
    EXPECT_GE(samples[i].utilization, 0.0);
    EXPECT_LE(samples[i].utilization, 1.0 + 1e-9);
  }
  // Completions happened, so some window saw them.
  EXPECT_EQ(samples.back().completed_total, 10);
}

TEST(Service, RejectsStaleArrivalsAndCountsThem) {
  svc::Service service(small_service());
  service.submit(request_of(0, 10.0));
  service.advance_to(100.0);
  EXPECT_FALSE(service.submit(request_of(1, 50.0)));  // in the past
  EXPECT_TRUE(service.submit(request_of(2, 100.0)));  // now is fine
  EXPECT_EQ(service.rejected_stale(), 1);
  EXPECT_EQ(service.accepted(), 2);
  service.drain();
  EXPECT_EQ(service.completed(), 2);
}

TEST(Service, AdvanceIntoThePastThrows) {
  svc::Service service(small_service());
  service.advance_to(100.0);
  EXPECT_THROW(service.advance_to(50.0), std::invalid_argument);
}

TEST(Service, NonFiniteTimesAreRejected) {
  // The sampler chain never lets the queue drain, so a NaN or infinite
  // target must be refused rather than run forever.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  svc::Service service(small_service());
  service.submit(request_of(0, 10.0));
  for (const double t : {kNaN, kInf, -kInf}) {
    EXPECT_THROW(service.advance_to(t), std::invalid_argument) << t;
  }
  EXPECT_THROW(service.drain(kNaN), std::invalid_argument);
  EXPECT_DOUBLE_EQ(service.now(), 0.0);
  service.advance_to(20.0);
  const svc::Snapshot snap = svc::snapshot(service);
  for (const double horizon : {kNaN, kInf}) {
    EXPECT_THROW(svc::fork_and_run(snap, svc::WhatIf{}, horizon),
                 std::invalid_argument)
        << horizon;
  }
  // +inf still means "no limit" for drain.
  EXPECT_TRUE(service.drain(kInf));
  EXPECT_EQ(service.completed(), 1);
}

// --- Snapshot / restore ----------------------------------------------------

TEST(Snapshot, SerializeDeserializeRoundTrip) {
  svc::Service service(small_service());
  util::Rng rng(3);
  for (long long tag = 0; tag < 12; ++tag) {
    svc::JobRequest request = request_of(tag, 25.0 * double(tag));
    request.flexible = rng.bernoulli(0.5);
    request.moldable = rng.bernoulli(0.3);
    service.submit(request);
  }
  service.advance_to(150.0);
  const svc::Snapshot before = svc::snapshot(service);
  const std::string wire = before.serialize();
  const svc::Snapshot after =
      svc::Snapshot::deserialize(wire, small_service());
  EXPECT_EQ(after.time, before.time);
  ASSERT_EQ(after.submissions.size(), before.submissions.size());
  for (std::size_t i = 0; i < after.submissions.size(); ++i) {
    const svc::JobRequest& a = after.submissions[i];
    const svc::JobRequest& b = before.submissions[i];
    EXPECT_EQ(a.tag, b.tag);
    EXPECT_EQ(a.arrival, b.arrival);
    EXPECT_EQ(a.nodes, b.nodes);
    EXPECT_EQ(a.min_nodes, b.min_nodes);
    EXPECT_EQ(a.max_nodes, b.max_nodes);
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.flexible, b.flexible);
    EXPECT_EQ(a.moldable, b.moldable);
    EXPECT_EQ(a.state_bytes, b.state_bytes);
    EXPECT_EQ(a.partition, b.partition);
  }
}

TEST(Snapshot, DeserializeRejectsGarbage) {
  EXPECT_THROW(svc::Snapshot::deserialize("not a snapshot", small_service()),
               std::invalid_argument);
  EXPECT_THROW(
      svc::Snapshot::deserialize("dmrsvc-snapshot v1 time=5 n=3\n1 0",
                                 small_service()),
      std::invalid_argument);
}

TEST(SnapshotParse, RejectsMalformedInput) {
  // A well-formed record, then one field swapped per row.
  const std::string kRecord = "7 0 4 1 8 200 5 1 0 268435456 -";
  const auto doc = [&kRecord](const std::string& header,
                              const std::string& record) {
    return "dmrsvc-snapshot v1 " + header + "\n" + record + "\n";
  };
  const svc::Snapshot ok =
      svc::Snapshot::deserialize(doc("time=5 n=1", kRecord), small_service());
  ASSERT_EQ(ok.submissions.size(), 1u);
  EXPECT_EQ(ok.submissions[0].state_bytes, std::size_t(1) << 28);

  struct Case {
    std::string text;
    int line;
    std::string field;
  };
  const std::vector<Case> cases = {
      {doc("time=nan n=1", kRecord), 1, "time"},
      {doc("time=inf n=1", kRecord), 1, "time"},
      {doc("time=-5 n=1", kRecord), 1, "time"},
      {doc("time=10x n=1", kRecord), 1, "time"},
      {doc("time=5 n=-1", kRecord), 1, "n"},
      {doc("time=5 n=99999999999999", kRecord), 3, "record"},
      {doc("time=5 n=1", "7 0 4 1 8 200 5 1 0 -1 -"), 2, "state_bytes"},
      {doc("time=5 n=1", "7 0 4 1 8 200 5 7 0 268435456 -"), 2, "flexible"},
      {doc("time=5 n=1", "7 0 4 1 8 200 5 1 7 268435456 -"), 2, "moldable"},
      {doc("time=5 n=1", kRecord + "\n" + kRecord), 3, "record"},
      {doc("time=5 n=1", kRecord + " junk"), 2, "record"},
      {doc("time=5 n=1", "7 0 -4 1 8 200 5 1 0 268435456 -"), 2, "nodes"},
      {doc("time=5 n=1", "7 0 4 1 8 -200 5 1 0 268435456 -"), 2, "runtime"},
      {doc("time=5 n=1", "7 0 4 1 8 200 0 1 0 268435456 -"), 2, "steps"},
      {doc("time=5 n=1", "7 nan 4 1 8 200 5 1 0 268435456 -"), 2, "arrival"},
      {doc("time=5 n=1", "7 0 4 1 8 200 5 1 0"), 2, "state_bytes"},
      {doc("time=5 n=1", "7x 0 4 1 8 200 5 1 0 268435456 -"), 2, "tag"},
      {"dmrsvc-snapshot v2 time=5 n=0\n", 1, "version"},
  };
  for (const Case& c : cases) {
    try {
      svc::Snapshot::deserialize(c.text, small_service());
      ADD_FAILURE() << "accepted:\n" << c.text;
    } catch (const svc::SnapshotParseError& error) {
      EXPECT_EQ(error.line(), c.line) << error.what();
      EXPECT_EQ(error.field(), c.field) << error.what();
      EXPECT_NE(std::string(error.what()).find("line " +
                                               std::to_string(c.line)),
                std::string::npos)
          << error.what();
    } catch (const std::exception& error) {
      ADD_FAILURE() << "untyped rejection: " << error.what() << "\n"
                    << c.text;
    }
  }
}

// --- Determinism property: run(T1) == restore(snapshot(T0)).run(T1) --------

svc::ServiceConfig property_config(std::uint64_t seed, int clusters) {
  svc::ServiceConfig config;
  if (clusters > 1) {
    const fed::MemberMix mix = fed::parse_member_mix(fed::kDefaultMemberMix);
    for (int c = 0; c < clusters; ++c) {
      config.driver.federation.clusters.push_back(fed::member_spec(mix, c));
    }
    config.driver.federation.placement = fed::Placement::LeastLoaded;
  } else {
    config.driver.rms.nodes = 20;
  }
  config.sample_period = 40.0;
  config.window = 160.0;
  // Vary the cadence a little across seeds so the property is not an
  // artifact of one sampling grid.
  config.sample_period += double(seed % 3) * 10.0;
  config.window = 4 * config.sample_period;
  return config;
}

std::vector<svc::JobRequest> property_stream(std::uint64_t seed, int width) {
  util::Rng rng(seed);
  std::vector<svc::JobRequest> stream;
  double arrival = 0.0;
  for (long long tag = 0; tag < 40; ++tag) {
    svc::JobRequest request;
    request.tag = tag;
    request.arrival = arrival;
    request.nodes = static_cast<int>(rng.uniform_int(2, width));
    request.min_nodes = std::max(1, request.nodes / 4);
    request.max_nodes = request.nodes * 2;
    request.runtime = rng.uniform(100.0, 400.0);
    request.steps = 5;
    request.flexible = rng.bernoulli(0.7);
    stream.push_back(request);
    arrival += rng.exponential_mean(30.0);
  }
  return stream;
}

void expect_metrics_equal(const drv::WorkloadMetrics& a,
                          const drv::WorkloadMetrics& b) {
  EXPECT_EQ(a.jobs, b.jobs);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.wait.mean, b.wait.mean);
  EXPECT_EQ(a.wait.max, b.wait.max);
  EXPECT_EQ(a.completion.mean, b.completion.mean);
  EXPECT_EQ(a.execution.mean, b.execution.mean);
  EXPECT_EQ(a.expands, b.expands);
  EXPECT_EQ(a.shrinks, b.shrinks);
  EXPECT_EQ(a.checks, b.checks);
  EXPECT_EQ(a.aborted_expands, b.aborted_expands);
  EXPECT_EQ(a.bytes_redistributed, b.bytes_redistributed);
  EXPECT_EQ(a.redistribution_seconds, b.redistribution_seconds);
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (std::size_t c = 0; c < a.clusters.size(); ++c) {
    EXPECT_EQ(a.clusters[c].name, b.clusters[c].name);
    EXPECT_EQ(a.clusters[c].jobs, b.clusters[c].jobs);
    EXPECT_EQ(a.clusters[c].utilization, b.clusters[c].utilization);
    EXPECT_EQ(a.clusters[c].wait.mean, b.clusters[c].wait.mean);
  }
}

void expect_samples_equal(const svc::MetricsSample& a,
                          const svc::MetricsSample& b) {
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.window, b.window);
  EXPECT_EQ(a.completed_total, b.completed_total);
  EXPECT_EQ(a.completed_in_window, b.completed_in_window);
  EXPECT_EQ(a.reconfigs_in_window, b.reconfigs_in_window);
  EXPECT_EQ(a.queue_depth, b.queue_depth);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.wait_mean, b.wait_mean);
  EXPECT_EQ(a.wait_p50, b.wait_p50);
  EXPECT_EQ(a.wait_p95, b.wait_p95);
  EXPECT_EQ(a.wait_p99, b.wait_p99);
  EXPECT_EQ(a.response_p50, b.response_p50);
  EXPECT_EQ(a.response_p95, b.response_p95);
  EXPECT_EQ(a.response_p99, b.response_p99);
  // The wait-cause columns, bit for bit: the restored attributor saw the
  // same events in the same order.
  ASSERT_EQ(a.cause_seconds.size(), b.cause_seconds.size());
  for (std::size_t r = 0; r < a.cause_seconds.size(); ++r) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cause_seconds[r]),
              std::bit_cast<std::uint64_t>(b.cause_seconds[r]))
        << "cause " << r << " at t=" << a.time;
  }
}

/// Every member's job table, job for job: the same ids in the same
/// order, with the same states and times.
void expect_job_tables_equal(const fed::Federation& a,
                             const fed::Federation& b) {
  ASSERT_EQ(a.cluster_count(), b.cluster_count());
  for (int c = 0; c < a.cluster_count(); ++c) {
    const auto jobs_a = a.manager(c).jobs();
    const auto jobs_b = b.manager(c).jobs();
    ASSERT_EQ(jobs_a.size(), jobs_b.size()) << "member " << c;
    for (std::size_t i = 0; i < jobs_a.size(); ++i) {
      const rms::Job& x = *jobs_a[i];
      const rms::Job& y = *jobs_b[i];
      EXPECT_EQ(x.id, y.id) << "member " << c << " job " << i;
      EXPECT_EQ(x.state, y.state) << "job " << x.id;
      EXPECT_EQ(x.submit_time, y.submit_time) << "job " << x.id;
      EXPECT_EQ(x.start_time, y.start_time) << "job " << x.id;
      EXPECT_EQ(x.end_time, y.end_time) << "job " << x.id;
    }
  }
}

/// The replay-determinism property: a service run straight to T1 and a
/// service restored from its T0 snapshot then run to T1 agree field for
/// field — batch metrics, completion count, every member's job table,
/// and every sample taken after T0.
void check_replay_property(std::uint64_t seed, int clusters, double t0) {
  SCOPED_TRACE("seed=" + std::to_string(seed) + " clusters=" +
               std::to_string(clusters) + " t0=" + std::to_string(t0));
  const int width = clusters > 1 ? 12 : 16;
  const std::vector<svc::JobRequest> stream = property_stream(seed, width);

  svc::Service live(property_config(seed, clusters));
  for (const svc::JobRequest& request : stream) {
    ASSERT_TRUE(live.submit(request));
  }
  live.advance_to(t0);
  const svc::Snapshot snap = svc::snapshot(live);
  ASSERT_EQ(snap.time, t0);

  // Branch A: the live service continues to T1.
  const double t1 = t0 + 2000.0;
  live.advance_to(t1);

  // Branch B: a fresh service restored from the snapshot runs to T1.
  std::unique_ptr<svc::Service> replayed = svc::restore(snap);
  ASSERT_EQ(replayed->now(), t0);
  replayed->advance_to(t1);

  EXPECT_EQ(replayed->accepted(), live.accepted());
  EXPECT_EQ(replayed->completed(), live.completed());
  expect_metrics_equal(replayed->metrics(), live.metrics());
  expect_job_tables_equal(replayed->driver().federation(),
                          live.driver().federation());
  // Every sample after the snapshot instant must match.  (Pre-snapshot
  // samples exist only on the live branch's timeline before T0 was
  // captured — both branches took them identically by construction.)
  const auto& live_samples = live.sample_records();
  const auto& replay_samples = replayed->sample_records();
  ASSERT_EQ(replay_samples.size(), live_samples.size());
  std::size_t compared = 0;
  for (std::size_t i = 0; i < live_samples.size(); ++i) {
    expect_samples_equal(replay_samples[i], live_samples[i]);
    ++compared;
  }
  EXPECT_GT(compared, 0u);
}

/// Checks the property at the stream's midpoint arrival and at three
/// instants drawn from util::Rng(seed) over the stream's arrivals.
void check_replay_property(std::uint64_t seed, int clusters) {
  const std::vector<svc::JobRequest> stream =
      property_stream(seed, clusters > 1 ? 12 : 16);
  check_replay_property(seed, clusters, stream[stream.size() / 2].arrival);
  util::Rng rng(seed);
  for (int i = 0; i < 3; ++i) {
    check_replay_property(
        seed, clusters,
        rng.uniform(stream.front().arrival, stream.back().arrival));
  }
}

TEST(SnapshotProperty, ReplayMatchesLiveSingleCluster) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    check_replay_property(seed, 1);
  }
}

TEST(SnapshotProperty, ReplayMatchesLiveFederation) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    check_replay_property(seed, 3);
  }
}

TEST(SnapshotProperty, MalformedRequestLeavesTheLogReplayable) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  svc::JobRequest zero_nodes = request_of(0, 10.0);
  zero_nodes.nodes = 0;
  svc::JobRequest zero_steps = request_of(0, 10.0);
  zero_steps.steps = 0;
  svc::JobRequest negative_runtime = request_of(0, 10.0);
  negative_runtime.runtime = -1.0;
  svc::JobRequest nan_arrival = request_of(0, 10.0);
  nan_arrival.arrival = std::numeric_limits<double>::quiet_NaN();
  svc::JobRequest infinite_arrival = request_of(0, 10.0);
  infinite_arrival.arrival = kInf;
  for (const svc::JobRequest& bad : {zero_nodes, zero_steps, negative_runtime,
                                     nan_arrival, infinite_arrival}) {
    svc::Service live(small_service());
    EXPECT_THROW(live.submit(bad), std::invalid_argument);
    ASSERT_TRUE(live.submit(request_of(1, 20.0)));
    EXPECT_EQ(live.submission_log().size(), 1u);
    EXPECT_EQ(live.accepted(), 1);
    live.advance_to(120.0);
    const svc::Snapshot snap = svc::Snapshot::deserialize(
        svc::snapshot(live).serialize(), small_service());
    std::unique_ptr<svc::Service> replayed = svc::restore(snap);
    ASSERT_TRUE(live.drain(kInf));
    ASSERT_TRUE(replayed->drain(kInf));
    EXPECT_EQ(replayed->completed(), live.completed());
    EXPECT_EQ(replayed->accepted(), live.accepted());
    // The rejected request did not move the first arrival either, which
    // every sample's utilization window starts from.
    const auto& live_samples = live.sample_records();
    const auto& replay_samples = replayed->sample_records();
    ASSERT_EQ(replay_samples.size(), live_samples.size());
    for (std::size_t i = 0; i < live_samples.size(); ++i) {
      expect_samples_equal(replay_samples[i], live_samples[i]);
    }
  }
}

TEST(SnapshotProperty, RestoreAndForkLeaveTheLiveObserversAlone) {
  // Caller-supplied observers watch the live run only: a restore or a
  // fork replays the run from the first arrival, and fed to them it reads
  // as every job submitted twice.
  chk::Auditor auditor;
  obs::WaitAttributor attr;
  svc::ServiceConfig config = small_service(4);
  config.driver.hooks.auditor = &auditor;
  config.driver.hooks.attr = &attr;
  // Ignored beside a caller's attributor: the live samples carry cause
  // columns, so the restored ones must too.
  config.attribute_waits = false;
  svc::Service live(config);
  for (long long tag = 0; tag < 8; ++tag) {
    ASSERT_TRUE(live.submit(request_of(tag, 5.0 * double(tag), 2, 240.0)));
  }
  live.advance_to(300.0);
  const std::string attributed = attr.to_json();
  const long long checks = auditor.report().total_checks();
  ASSERT_TRUE(auditor.report().ok()) << auditor.report().describe();

  const svc::Snapshot snap = svc::snapshot(live);
  std::unique_ptr<svc::Service> restored = svc::restore(snap);
  svc::WhatIf whatif;
  whatif.add_nodes = 4;
  const svc::ForkReport report = svc::fork_and_run(snap, whatif, 2000.0);
  EXPECT_GT(report.baseline.last_sample.completed_total, 0);

  EXPECT_TRUE(auditor.report().ok()) << auditor.report().describe();
  EXPECT_EQ(auditor.report().total_checks(), checks);
  EXPECT_TRUE(attr.to_json() == attributed) << "the live attributor moved";
  // The restored service still attributes its own waits.
  ASSERT_NE(restored->attribution(), nullptr);
  EXPECT_NE(restored->attribution(), &attr);
  EXPECT_TRUE(restored->attribution()->to_json() == attributed)
      << restored->attribution()->to_json();
}

TEST(SnapshotProperty, RejectsACallerSuppliedPlacementPolicy) {
  // A policy object keeps state (round-robin's cursor) that a copied
  // config would share with the restored service, so restoring would
  // move the live service's later placements.
  svc::ServiceConfig config = property_config(1, 3);
  config.driver.federation.policy =
      fed::make_placement(fed::Placement::RoundRobin);
  svc::Service live(config);
  for (const svc::JobRequest& request : property_stream(1, 8)) {
    ASSERT_TRUE(live.submit(request));
  }
  live.advance_to(300.0);
  EXPECT_THROW(svc::snapshot(live), std::invalid_argument);
  // A built-in placement kind is plain data and snapshots fine.
  config.driver.federation.policy = nullptr;
  svc::Service plain(config);
  EXPECT_NO_THROW(svc::snapshot(plain));
}

// --- What-if forks ---------------------------------------------------------

TEST(Fork, AddingNodesMovesTheWindowedMetrics) {
  // Oversubscribe 8 nodes so a queue builds, then ask "what if the
  // cluster doubled?".  The variant must complete at least as many jobs
  // and its windowed p99 wait must improve (strictly, given the heavy
  // backlog).
  svc::ServiceConfig config;
  config.driver.rms.nodes = 8;
  config.sample_period = 100.0;
  config.window = 400.0;
  svc::Service service(config);
  util::Rng rng(17);
  double arrival = 0.0;
  for (long long tag = 0; tag < 30; ++tag) {
    svc::JobRequest request = request_of(tag, arrival, 4, 300.0);
    request.flexible = false;
    service.submit(request);
    arrival += rng.exponential_mean(20.0);
  }
  service.advance_to(600.0);
  const svc::Snapshot snap = svc::snapshot(service);

  svc::WhatIf whatif;
  whatif.label = "+8 nodes";
  whatif.add_nodes = 8;
  const svc::ForkReport report = svc::fork_and_run(snap, whatif, 4000.0);
  EXPECT_GE(report.delta_completed(), 0);
  EXPECT_LT(report.delta_wait_p99(), 0.0);
  EXPECT_NE(report.to_json().find("\"svc\":\"fork\""), std::string::npos);
  // The live instance was not disturbed by either branch.
  EXPECT_EQ(service.now(), snap.time);
}

TEST(Fork, GrowthLandsOnTheFirstMember) {
  const svc::ServiceConfig config = property_config(1, 3);
  svc::Service service(config);
  for (const svc::JobRequest& request : property_stream(1, 8)) {
    ASSERT_TRUE(service.submit(request));
  }
  service.advance_to(300.0);
  const svc::Snapshot snap = svc::snapshot(service);

  svc::WhatIf whatif;
  whatif.label = "+8 nodes";
  whatif.add_nodes = 8;
  const svc::ForkReport report = svc::fork_and_run(snap, whatif, 2000.0);
  const auto& baseline = report.baseline.metrics.clusters;
  const auto& variant = report.variant.metrics.clusters;
  ASSERT_EQ(baseline.size(), 3u);
  ASSERT_EQ(variant.size(), 3u);
  EXPECT_EQ(variant[0].nodes, baseline[0].nodes + 8);
  for (std::size_t c = 1; c < baseline.size(); ++c) {
    EXPECT_EQ(variant[c].name, baseline[c].name);
    EXPECT_EQ(variant[c].nodes, baseline[c].nodes) << baseline[c].name;
  }
}

TEST(Fork, HorizonMustLieBeyondTheSnapshot) {
  svc::Service service(small_service());
  service.submit(request_of(0, 0.0));
  service.advance_to(100.0);
  const svc::Snapshot snap = svc::snapshot(service);
  svc::WhatIf whatif;
  EXPECT_THROW(svc::fork_and_run(snap, whatif, 50.0), std::invalid_argument);
}

TEST(Fork, WhatIfDescribeNamesTheMutation) {
  svc::WhatIf whatif;
  whatif.label = "grow";
  whatif.add_nodes = 64;
  const std::string text = whatif.describe();
  EXPECT_EQ(text.rfind("grow:", 0), 0u) << text;
  EXPECT_NE(text.find("+64 nodes"), std::string::npos) << text;
}

}  // namespace
