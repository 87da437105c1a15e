// Outcome-digest harness shared by the calendar-queue equivalence tests.
//
// The calendar-queue engine must be *bit-identical* in outcome to the
// old priority-queue engine, not just "statistically similar".  These helpers reduce a full run to a
// text digest — every job's lifecycle timestamps at %.17g (round-trip
// exact for doubles) plus run-level counters — and hash it with FNV-1a
// so golden values captured from the pre-change engine can be embedded
// as constants and compared forever after.
//
// Three paths cover the three ways the engine gets driven:
//   - single-cluster batch (WorkloadDriver on one 20-node manager),
//   - 3-member federation (default member mix, LeastLoaded placement),
//   - resident service replay (streamed JobRequests + Lane::Sample
//     metrics cadence; the digest includes the sample JSON lines, so the
//     sampler's interleaving with state-changing events is pinned too).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "apps/models.hpp"
#include "drv/workload_driver.hpp"
#include "fed/member_mix.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"
#include "wl/feitelson.hpp"

namespace dmr::digests {

inline std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Every job's lifecycle, one line each, in federation iteration order
/// (member-major, id-ascending — deterministic).
inline std::string job_table(const fed::Federation& federation) {
  std::string digest;
  char line[192];
  for (int c = 0; c < federation.cluster_count(); ++c) {
    for (const rms::Job* job : federation.manager(c).jobs()) {
      std::snprintf(line, sizeof(line), "%llu:%d:%.17g:%.17g:%.17g:%d:%d\n",
                    static_cast<unsigned long long>(job->id),
                    static_cast<int>(job->state), job->submit_time,
                    job->start_time, job->end_time, job->expansions,
                    job->shrinks);
      digest += line;
    }
  }
  return digest;
}

inline std::string metrics_tail(const drv::WorkloadMetrics& metrics) {
  char tail[160];
  std::snprintf(tail, sizeof(tail),
                "makespan=%.17g util=%.17g expands=%lld shrinks=%lld "
                "checks=%lld\n",
                metrics.makespan, metrics.utilization,
                static_cast<long long>(metrics.expands),
                static_cast<long long>(metrics.shrinks),
                static_cast<long long>(metrics.checks));
  return tail;
}

inline std::vector<drv::JobPlan> fs_workload(std::uint64_t seed, int jobs,
                                             int max_size) {
  wl::FeitelsonParams params;
  params.jobs = jobs;
  params.max_size = max_size;
  params.mean_interarrival = 10.0;
  params.max_runtime = 300.0;
  params.seed = seed;
  std::vector<drv::JobPlan> plans;
  for (const auto& job : wl::generate_feitelson(params)) {
    drv::JobPlan plan;
    plan.arrival = job.arrival;
    plan.model = apps::fs_model(10, job.size, job.runtime / 10, max_size,
                                std::size_t(1) << 24);
    plan.submit_nodes = job.size;
    plan.flexible = true;
    plans.push_back(std::move(plan));
  }
  return plans;
}

/// Single 20-node cluster, 60 malleable Feitelson jobs.
inline std::uint64_t single_cluster_digest(std::uint64_t seed) {
  sim::Engine engine;
  drv::DriverConfig config;
  config.rms.nodes = 20;
  drv::WorkloadDriver driver(engine, config);
  for (auto& plan : fs_workload(seed, 60, 20)) {
    driver.submit_at(std::move(plan));
  }
  const drv::WorkloadMetrics metrics = driver.run();
  return fnv1a(job_table(driver.federation()) + metrics_tail(metrics));
}

/// 3-member federation (default mix: alpha/beta/gamma), LeastLoaded.
inline std::uint64_t federation_digest(std::uint64_t seed) {
  sim::Engine engine;
  drv::DriverConfig config;
  const fed::MemberMix mix = fed::parse_member_mix(fed::kDefaultMemberMix);
  for (int c = 0; c < 3; ++c) {
    config.federation.clusters.push_back(fed::member_spec(mix, c));
  }
  config.federation.placement = fed::Placement::LeastLoaded;
  drv::WorkloadDriver driver(engine, config);
  for (auto& plan : fs_workload(seed, 60, 12)) {
    driver.submit_at(std::move(plan));
  }
  const drv::WorkloadMetrics metrics = driver.run();
  return fnv1a(job_table(driver.federation()) + metrics_tail(metrics));
}

/// Resident-service replay: 40 streamed JobRequests into the 3-member
/// federation, drained on the sample cadence.  Sample JSON lines are
/// digested too — they pin the Lane::Sample interleaving.
inline std::uint64_t service_digest(std::uint64_t seed) {
  svc::ServiceConfig config;
  const fed::MemberMix mix = fed::parse_member_mix(fed::kDefaultMemberMix);
  for (int c = 0; c < 3; ++c) {
    config.driver.federation.clusters.push_back(fed::member_spec(mix, c));
  }
  config.driver.federation.placement = fed::Placement::LeastLoaded;
  config.sample_period = 40.0 + double(seed % 3) * 10.0;
  config.window = 4 * config.sample_period;
  svc::Service service(config);

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
    service.submit(request);
    arrival += rng.exponential_mean(30.0);
  }
  service.drain();

  std::string digest = job_table(service.driver().federation());
  digest += metrics_tail(service.metrics());
  for (const svc::MetricsSample& sample : service.sample_records()) {
    digest += sample.to_json();
    digest += '\n';
  }
  return fnv1a(digest);
}

}  // namespace dmr::digests
