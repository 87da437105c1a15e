// Resident-service benchmark: ingest throughput, snapshot cost and
// what-if fork latency (JSON-lines output -> BENCH_service.json).
//
// Three phases, one JSON line each plus a summary:
//  - throughput: stream jobs=N requests through the bounded submission
//    ring into a live service while simulated time advances, draining to
//    completion; reports sustained submitted jobs per wall-clock second
//    (ring -> driver -> DES, the full ingest path) and the QueueFull
//    backpressure count;
//  - snapshot: serialize/deserialize/restore a mid-run snapshot; reports
//    the serialized size and the wall seconds of each step (restore =
//    deterministic replay to the captured instant);
//  - fork: svc::fork_and_run baseline vs "+64 nodes" from that snapshot;
//    reports both branch wall times and the windowed p99-wait delta.
//
// Usage:  service_bench [jobs=N] [--trace FILE] [smoke]
//   jobs=N  requests pushed through the ring (default 20000)
//   --trace FILE  record the throughput phase's timeline (job spans,
//           schedule/reconfig phases, ring-depth/utilization counters)
//           to FILE and self-check it with the strict validator
//   smoke   CI mode: a small stream with the live sample feed printed
//           (the service_smoke ctest checks those JSON lines are
//           well-formed and monotone in simulated time)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "dmr/observe.hpp"
#include "dmr/service.hpp"
#include "dmr/util.hpp"

namespace {

using namespace dmr;

/// A narrow short job stream sized so the cluster keeps up: the bench
/// measures ingest-path throughput, not scheduler queueing collapse.
svc::JobRequest make_request(util::Rng& rng, long long tag, double arrival) {
  svc::JobRequest request;
  request.tag = tag;
  request.arrival = arrival;
  request.nodes = static_cast<int>(rng.uniform_int(1, 4));
  request.min_nodes = 1;
  request.max_nodes = request.nodes * 2;
  request.runtime = rng.uniform(20.0, 60.0);
  request.steps = 5;
  request.flexible = rng.bernoulli(0.5);
  return request;
}

struct StreamResult {
  long long submitted = 0;
  long long backpressured = 0;  // QueueFull pushes (retried)
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;
};

/// Push `jobs` requests through the ring, pumping the service every
/// simulated minute, then drain.  Returns the measured ingest rate
/// inputs.
StreamResult stream_jobs(svc::Service& service, int jobs,
                         double mean_interarrival) {
  util::Rng rng(7);
  StreamResult result;
  double arrival = 0.0;
  const double start = util::wall_seconds();
  for (long long tag = 0; tag < jobs;) {
    svc::JobRequest request = make_request(rng, tag, arrival);
    if (service.queue().push(request) == svc::PushResult::QueueFull) {
      // Explicit backpressure: drain a slice, then retry the same job.
      ++result.backpressured;
      service.advance_to(std::max(service.now(), request.arrival));
      continue;
    }
    ++tag;
    arrival += rng.exponential_mean(mean_interarrival);
    if (service.queue().size() >= service.queue().capacity() / 2) {
      service.advance_to(service.now() + 60.0);
    }
  }
  service.drain();
  result.submitted = service.accepted();
  result.sim_seconds = service.now();
  result.wall_seconds = util::wall_seconds() - start;
  return result;
}

svc::ServiceConfig make_config() {
  svc::ServiceConfig config;
  config.driver.rms.nodes = 64;
  config.queue_capacity = 4096;
  config.sample_period = 300.0;
  config.window = 1800.0;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 20000;
  bool smoke = false;
  std::string trace_file;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "smoke") == 0) {
      smoke = true;
    } else if (util::parse_count_arg(argv[i], "jobs", jobs)) {
      continue;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_file = argv[i + 1];
      ++i;
    } else {
      std::fprintf(stderr, "usage: %s [jobs=N] [--trace FILE] [smoke]\n",
                   argv[0]);
      return 2;
    }
  }
  if (smoke) jobs = 300;

  // --- throughput: the full ring -> driver -> DES ingest path ------------
  obs::TraceRecorder trace;
  obs::Profiler profiler;
  svc::ServiceConfig config = make_config();
  if (!trace_file.empty()) {
    config.driver.hooks.trace = &trace;
    config.driver.hooks.profiler = &profiler;
  }
  svc::Service service(config);
  if (smoke) {
    // The live feed the service_smoke ctest validates (well-formed
    // JSON, monotone simulated time).
    service.set_sample_sink(
        [](const std::string& line) { std::printf("%s\n", line.c_str()); });
  }
  // ~16 nodes of work offered per 64-node cluster: the machine keeps up
  // and the wall clock measures the ingest path, not a queueing collapse.
  const StreamResult stream = stream_jobs(service, jobs, 5.0);
  service.set_sample_sink(nullptr);
  const double jobs_per_second =
      stream.wall_seconds > 0.0
          ? static_cast<double>(stream.submitted) / stream.wall_seconds
          : 0.0;
  std::printf(
      "{\"bench\":\"service\",\"phase\":\"throughput\",\"jobs\":%lld,"
      "\"completed\":%d,\"backpressured\":%lld,\"sim_seconds\":%.1f,"
      "\"samples\":%zu,\"wall_seconds\":%.3f,\"jobs_per_second\":%.0f}\n",
      stream.submitted, service.completed(), stream.backpressured,
      stream.sim_seconds, service.sample_records().size(),
      stream.wall_seconds, jobs_per_second);
  if (!trace_file.empty()) {
    trace.write_file(trace_file);
    const obs::TraceValidation validation =
        obs::validate_trace_file(trace_file);
    std::fprintf(stderr, "service_bench: %s: %s\n", trace_file.c_str(),
                 validation.describe().c_str());
    if (!validation.ok) {
      for (const std::string& error : validation.errors) {
        std::fprintf(stderr, "service_bench:   error: %s\n", error.c_str());
      }
      return 1;
    }
  }

  // --- snapshot: capture / serialize / restore cost ----------------------
  // A fresh half-run service so the snapshot holds live pending state.
  svc::Service half(make_config());
  {
    util::Rng rng(11);
    double arrival = 0.0;
    for (long long tag = 0; tag < jobs / 2; ++tag) {
      half.submit(make_request(rng, tag, arrival));
      arrival += rng.exponential_mean(5.0);
    }
    half.advance_to(arrival / 2.0);
  }
  double capture_start = util::wall_seconds();
  svc::Snapshot snap = svc::snapshot(half);
  const double capture_seconds = util::wall_seconds() - capture_start;
  capture_start = util::wall_seconds();
  const std::string wire = snap.serialize();
  const double serialize_seconds = util::wall_seconds() - capture_start;
  capture_start = util::wall_seconds();
  svc::Snapshot parsed = svc::Snapshot::deserialize(wire, make_config());
  const double deserialize_seconds = util::wall_seconds() - capture_start;
  capture_start = util::wall_seconds();
  auto restored = svc::restore(parsed);
  const double restore_seconds = util::wall_seconds() - capture_start;
  std::printf(
      "{\"bench\":\"service\",\"phase\":\"snapshot\",\"submissions\":%zu,"
      "\"time\":%.1f,\"bytes\":%zu,\"capture_seconds\":%.6f,"
      "\"serialize_seconds\":%.6f,\"deserialize_seconds\":%.6f,"
      "\"restore_seconds\":%.6f,\"restored_completed\":%d}\n",
      snap.submissions.size(), snap.time, wire.size(), capture_seconds,
      serialize_seconds, deserialize_seconds, restore_seconds,
      restored->completed());

  // --- fork: baseline vs "+64 nodes" what-if latency ---------------------
  svc::WhatIf whatif;
  whatif.label = "+64 nodes";
  whatif.add_nodes = 64;
  const double fork_start = util::wall_seconds();
  const svc::ForkReport report =
      svc::fork_and_run(snap, whatif, snap.time + 4.0 * 3600);
  const double fork_seconds = util::wall_seconds() - fork_start;
  std::printf(
      "{\"bench\":\"service\",\"phase\":\"fork\",\"horizon\":%.1f,"
      "\"baseline_wall_seconds\":%.3f,\"variant_wall_seconds\":%.3f,"
      "\"fork_wall_seconds\":%.3f,\"delta_wait_p99\":%.3f,"
      "\"delta_completed\":%lld}\n",
      report.horizon, report.baseline.wall_seconds,
      report.variant.wall_seconds, fork_seconds, report.delta_wait_p99(),
      report.delta_completed());

  std::printf(
      "{\"bench\":\"service\",\"summary\":true,\"jobs\":%lld,"
      "\"jobs_per_second\":%.0f,\"snapshot_bytes\":%zu,"
      "\"snapshot_roundtrip_seconds\":%.6f,\"fork_wall_seconds\":%.3f,%s}\n",
      stream.submitted, jobs_per_second, wire.size(),
      serialize_seconds + deserialize_seconds + restore_seconds, fork_seconds,
      bench_provenance_fields(1).c_str());
  return 0;
}
