// Service mode walkthrough: stream a live job mix into the resident
// simulator, watch the sliding-window metrics feed, then freeze a
// snapshot mid-run and fork a "+64 nodes" what-if from it.
//
// The service runs an oversubscribed 64-node cluster: jobs stream in
// through the bounded submission ring faster than the machine drains
// them, so the pending queue grows and the windowed p99 wait climbs.
// At t = 2 h we capture a snapshot — (config, accepted-submission log,
// clock), complete because the discrete-event core is deterministic —
// and replay two branches to t = 8 h from the same instant:
//
//   baseline   the cluster as captured
//   +64 nodes  the same cluster after an instant 64-node growth
//
// Both branches replay the identical pending workload, so the divergent
// windowed p99 wait at the horizon is attributable to the one mutation —
// the operator's capacity question answered without touching the live
// instance.
#include <algorithm>
#include <cstdio>
#include <string>

#include "dmr/service.hpp"
#include "dmr/util.hpp"

namespace {

using namespace dmr;

// A mixed malleable/rigid stream offering ~105% of the 64-node
// cluster's capacity (8-32 node jobs, 15-30 minutes each, one per
// ~380 s): the baseline queue builds steadily, while a doubled cluster
// drains it.
svc::JobRequest make_request(util::Rng& rng, long long tag, double arrival) {
  svc::JobRequest request;
  request.tag = tag;
  request.arrival = arrival;
  request.nodes = static_cast<int>(rng.uniform_int(8, 32));
  const bool rigid = rng.bernoulli(0.25);
  request.min_nodes = rigid ? request.nodes : std::max(2, request.nodes / 4);
  request.max_nodes = rigid ? request.nodes : request.nodes * 2;
  request.runtime = rng.uniform(900.0, 1800.0);
  request.steps = 25;
  request.flexible = !rigid;
  return request;
}

constexpr double kMeanInterarrival = 380.0;

}  // namespace

int main() {
  svc::ServiceConfig config;
  config.driver.rms.nodes = 64;
  config.sample_period = 300.0;  // one sample / 5 min
  config.window = 1800.0;        // 30 min sliding window
  svc::Service service(config);

  // Produce the stream through the submission ring, the way an ingest
  // front-end would, pumping every simulated minute.
  util::Rng rng(42);
  double arrival = 0.0;
  long long tag = 0;
  const double kSnapshotTime = 2.0 * 3600;
  const double kHorizon = 8.0 * 3600;

  std::printf("== live feed (sampled every %.0f s) ==\n", config.sample_period);
  std::size_t printed = 0;
  while (service.now() < kSnapshotTime) {
    while (arrival <= service.now() + 60.0) {
      const auto result = service.queue().push(make_request(rng, tag, arrival));
      if (result == svc::PushResult::QueueFull) break;  // backpressure
      ++tag;
      arrival += rng.exponential_mean(kMeanInterarrival);
    }
    service.advance_to(service.now() + 60.0);
    const auto& samples = service.sample_records();
    for (; printed < samples.size(); ++printed) {
      std::printf("%s\n", samples[printed].to_json().c_str());
    }
  }

  // The rest of the day's schedule is already known to the ingest layer:
  // accept it now (future arrivals are legal in the submission log), so
  // the snapshot carries the *ongoing* stream and both fork branches
  // replay the same live traffic, not just a frozen backlog.
  while (arrival < kHorizon) {
    if (service.queue().push(make_request(rng, tag, arrival)) ==
        svc::PushResult::QueueFull) {
      service.pump();
      continue;
    }
    ++tag;
    arrival += rng.exponential_mean(kMeanInterarrival);
  }
  service.pump();

  std::printf("\n== snapshot at t=%.0f s ==\n", service.now());
  svc::Snapshot snap = svc::snapshot(service);
  std::printf("accepted=%lld completed=%d pending-in-log=%zu bytes=%zu\n",
              service.accepted(), service.completed(),
              snap.submissions.size() - std::size_t(service.completed()),
              snap.serialize().size());

  svc::WhatIf whatif;
  whatif.label = "+64 nodes";
  whatif.add_nodes = 64;
  std::printf("\n== fork: baseline vs %s, horizon t=%.0f s ==\n",
              whatif.describe().c_str(), kHorizon);
  svc::ForkReport report = svc::fork_and_run(snap, whatif, kHorizon);

  util::TableWriter table(
      {"branch", "wait p50 (s)", "wait p99 (s)", "util", "completed",
       "wall (s)"});
  const auto row = [&table](const svc::ForkRun& run) {
    table.add_row({run.label, util::TableWriter::cell(run.last_sample.wait_p50),
                   util::TableWriter::cell(run.last_sample.wait_p99),
                   util::TableWriter::percent(run.last_sample.utilization),
                   util::TableWriter::cell(run.last_sample.completed_total),
                   util::TableWriter::cell(run.wall_seconds, 3)});
  };
  row(report.baseline);
  row(report.variant);
  std::printf("%s", table.render().c_str());

  std::printf("\ndelta wait p99: %.1f s (%+.1f%%)\n", report.delta_wait_p99(),
              100.0 * report.delta_wait_p99() /
                  (report.baseline.last_sample.wait_p99 > 0.0
                       ? report.baseline.last_sample.wait_p99
                       : 1.0));
  std::printf("%s\n", report.to_json().c_str());

  // The live instance is untouched: it can keep running from where the
  // snapshot left it.
  service.advance_to(service.now() + 600.0);
  std::printf("\nlive instance still at work: t=%.0f s, completed=%d\n",
              service.now(), service.completed());
  return 0;
}
