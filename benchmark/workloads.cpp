#include "workloads.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <iterator>

#include "dmr/util.hpp"

namespace dmrbench {

using namespace dmr;

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kArchive: return "archive";
    case Workload::kFig10: return "fig10";
    case Workload::kFederation: return "federation";
    case Workload::kService: return "service";
  }
  return "?";
}

bool workload_from_name(const std::string& name, Workload& out) {
  for (const Workload workload : kAllWorkloads) {
    if (name == workload_name(workload)) {
      out = workload;
      return true;
    }
  }
  return false;
}

std::uint64_t default_seed(Workload workload) {
  switch (workload) {
    case Workload::kArchive: return 1;
    case Workload::kFig10: return 2017;
    case Workload::kFederation: return 2017;
    case Workload::kService: return 7;
  }
  return 1;
}

// --- digest ------------------------------------------------------------------

void Digest::line(const char* format, ...) {
  char text[256];
  va_list args;
  va_start(args, format);
  const int length = std::vsnprintf(text, sizeof(text), format, args);
  va_end(args);
  const std::size_t size =
      std::min(static_cast<std::size_t>(std::max(length, 0)), sizeof(text) - 1);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= static_cast<unsigned char>(text[i]);
    hash_ *= 0x100000001b3ULL;
  }
}

void Digest::jobs(const fed::Federation& federation) {
  for (int c = 0; c < federation.cluster_count(); ++c) {
    for (const rms::Job* job : federation.manager(c).jobs()) {
      line("%llu:%.17g:%.17g:%.17g\n", static_cast<unsigned long long>(job->id),
           job->submit_time, job->start_time, job->end_time);
    }
  }
}

std::string Digest::hex() const {
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(hash_));
  return text;
}

// --- archive -------------------------------------------------------------------

std::vector<Cell> archive_cells(const ArchiveSpec& spec, std::uint64_t seed,
                                SetupTimes& times) {
  Clock::time_point start = Clock::now();
  wl::FeitelsonParams params;
  params.jobs = spec.jobs;
  params.max_size = spec.max_size;
  params.seed = seed;
  params.mean_interarrival =
      wl::feitelson_balanced_interarrival(params, spec.nodes, spec.load);
  const std::vector<wl::SyntheticJob> jobs = wl::generate_feitelson(params);
  times.generate += seconds_since(start);

  // Round-trip through SWF text: the records a make_swf-produced file
  // would yield, serializer quirks included.
  start = Clock::now();
  const std::string text =
      wl::to_swf_text(wl::trace_from_feitelson(jobs, spec.nodes));
  times.swf_text += seconds_since(start);

  start = Clock::now();
  const wl::SwfTrace trace = wl::parse_swf_text(text);
  times.swf_parse += seconds_since(start);
  times.parsed_records += trace.jobs.size();

  start = Clock::now();
  wl::TraceShaper shaper;
  shaper.target_nodes = spec.nodes;
  const wl::Workload workload = shaper.shape(trace);
  times.shape += seconds_since(start);

  start = Clock::now();
  std::vector<Cell> cells(1);
  cells[0].config.rms.nodes = workload.target_nodes;
  drv::PlanShape shape;
  shape.steps = spec.steps;
  shape.flexible = false;  // archival records are rigid
  cells[0].plans = drv::plans_from_workload(workload, shape);
  times.plan += seconds_since(start);
  return cells;
}

// --- fig10 ---------------------------------------------------------------------

std::vector<Cell> fig10_cells(const Fig10Spec& spec, std::uint64_t seed,
                              SetupTimes& times) {
  const Clock::time_point start = Clock::now();
  const std::vector<apps::AppModel> classes = {
      apps::cg_model(), apps::jacobi_model(), apps::nbody_model()};
  std::vector<Cell> cells(static_cast<std::size_t>(spec.cells));
  for (int c = 0; c < spec.cells; ++c) {
    Cell& cell = cells[static_cast<std::size_t>(c)];
    cell.config.rms.nodes = spec.nodes;
    cell.config.rms.shrink_priority_boost = true;
    cell.config.rms.scheduler.backfill = true;

    // "Each workload is composed of a set of randomly-sorted jobs (with a
    // fixed seed) which instantiate one of the three real applications
    // (33% of jobs of each application class)."
    std::vector<int> class_of(static_cast<std::size_t>(spec.jobs));
    for (int i = 0; i < spec.jobs; ++i) {
      class_of[static_cast<std::size_t>(i)] = i % 3;
    }
    util::Rng rng(seed + static_cast<std::uint64_t>(c));
    rng.shuffle(class_of);
    cell.plans.reserve(static_cast<std::size_t>(spec.jobs));
    double arrival = 0.0;
    for (int i = 0; i < spec.jobs; ++i) {
      arrival += rng.exponential_mean(spec.mean_arrival);
      drv::JobPlan plan;
      plan.model = classes[static_cast<std::size_t>(
          class_of[static_cast<std::size_t>(i)])];
      plan.model.iterations = std::max(
          1, static_cast<int>(plan.model.iterations * spec.iteration_scale));
      plan.arrival = arrival;
      // Submitted at the maximum size: "the user-preferred scenario of a
      // fast execution".
      plan.submit_nodes = plan.model.request.max_procs;
      plan.flexible = true;
      cell.plans.push_back(std::move(plan));
    }
  }
  times.plan += seconds_since(start);
  return cells;
}

// --- federation ----------------------------------------------------------------

namespace {

struct DmrPolicy {
  bool flexible;
  bool asynchronous;
};

constexpr DmrPolicy kDmrPolicies[] = {
    {false, false},  // fixed
    {true, false},   // flexible
    {true, true},    // async
};

int cluster_nodes(const fed::ClusterSpec& spec) {
  if (spec.rms.partitions.empty()) return spec.rms.nodes;
  int nodes = 0;
  for (const auto& part : spec.rms.partitions) nodes += part.nodes;
  return nodes;
}

}  // namespace

std::vector<Cell> federation_cells(const FederationSpec& spec,
                                   std::uint64_t seed, SetupTimes& times) {
  Clock::time_point start = Clock::now();
  const fed::MemberMix mix = fed::parse_member_mix(fed::kDefaultMemberMix);
  std::vector<fed::ClusterSpec> members;
  int nodes = 0;
  int max_member = 0;
  for (int c = 0; c < spec.clusters; ++c) {
    fed::ClusterSpec member = fed::member_spec(mix, c);
    // The sweep's "base" variant.
    member.rms.shrink_priority_boost = true;
    member.rms.scheduler.backfill = true;
    member.rms.scheduler.alloc = rms::AllocPolicy::LowestId;
    nodes += cluster_nodes(member);
    max_member = std::max(max_member, cluster_nodes(member));
    members.push_back(std::move(member));
  }

  // The preliminary-study job shape: sizes up to 20 nodes (capped at the
  // largest member, so every job fits somewhere), 60 s per step.
  std::vector<wl::Workload> traces;
  for (int s = 0; s < spec.seeds; ++s) {
    wl::FeitelsonParams params;
    params.jobs = spec.jobs;
    params.max_size = std::min(max_member, 20);
    params.max_runtime = 60.0 * spec.steps;
    params.short_runtime_mean = 60.0;
    params.long_runtime_mean = 600.0;
    params.seed = seed + static_cast<std::uint64_t>(s);
    params.mean_interarrival =
        wl::feitelson_balanced_interarrival(params, nodes, spec.load);
    wl::MalleabilityConfig bounds;
    bounds.policy = wl::Malleability::FractionOfRequest;
    bounds.min_fraction = 0.0;
    bounds.expand_limit = params.max_size;
    traces.push_back(wl::from_feitelson(wl::generate_feitelson(params),
                                        params.max_size, bounds));
  }
  times.generate += seconds_since(start);

  start = Clock::now();
  std::vector<Cell> cells;
  for (const fed::Placement placement : fed::all_placements()) {
    for (const DmrPolicy& policy : kDmrPolicies) {
      for (const wl::Workload& trace : traces) {
        Cell cell;
        cell.config.federation.clusters = members;
        cell.config.federation.placement = placement;
        cell.config.asynchronous = policy.asynchronous;
        drv::PlanShape shape;
        shape.steps = spec.steps;
        shape.flexible = policy.flexible;
        cell.plans = drv::plans_from_workload(trace, shape);
        cells.push_back(std::move(cell));
      }
    }
  }
  times.plan += seconds_since(start);
  return cells;
}

// --- batch dispatch --------------------------------------------------------------

namespace {

ArchiveSpec archive_spec(bool smoke) {
  ArchiveSpec spec;
  if (smoke) spec.jobs = 3000;
  return spec;
}

Fig10Spec fig10_spec(bool smoke) {
  Fig10Spec spec;
  if (smoke) {
    spec.cells = 2;
    spec.iteration_scale = 0.05;
  }
  return spec;
}

FederationSpec federation_spec(bool smoke) {
  FederationSpec spec;
  if (smoke) {
    spec.jobs = 200;
    spec.seeds = 2;
  }
  return spec;
}

}  // namespace

std::vector<Cell> build_cells(Workload workload, std::uint64_t seed,
                              bool smoke, SetupTimes& times) {
  switch (workload) {
    case Workload::kArchive:
      return archive_cells(archive_spec(smoke), seed, times);
    case Workload::kFig10:
      return fig10_cells(fig10_spec(smoke), seed, times);
    case Workload::kFederation:
      return federation_cells(federation_spec(smoke), seed, times);
    case Workload::kService:
      break;
  }
  return {};
}

void digest_cell(Workload workload, Digest& digest,
                 const drv::WorkloadDriver& driver,
                 const drv::WorkloadMetrics& metrics) {
  digest.jobs(driver.federation());
  switch (workload) {
    case Workload::kArchive:
      digest.line("makespan=%.17g util=%.17g jobs=%d\n", metrics.makespan,
                  metrics.utilization, metrics.jobs);
      return;
    case Workload::kFig10:
      digest.line("makespan=%.17g expands=%lld shrinks=%lld bytes=%zu\n",
                  metrics.makespan, metrics.expands, metrics.shrinks,
                  metrics.bytes_redistributed);
      return;
    case Workload::kFederation:
    case Workload::kService:
      digest.line(
          "makespan=%.17g expands=%lld shrinks=%lld checks=%lld aborted=%lld "
          "passes=%lld bytes=%zu\n",
          metrics.makespan, metrics.expands, metrics.shrinks, metrics.checks,
          metrics.aborted_expands, metrics.schedule_passes,
          metrics.bytes_redistributed);
      return;
  }
}

// --- service -------------------------------------------------------------------

ServiceSpec service_spec(bool smoke) {
  ServiceSpec spec;
  if (smoke) {
    spec.jobs = 600;
    spec.snapshot_at = 300;
  }
  return spec;
}

std::vector<svc::JobRequest> service_requests(const ServiceSpec& spec,
                                              std::uint64_t seed) {
  // A narrow short-job stream the 64 nodes keep up with: ~16 nodes of
  // work offered, so the wall clock measures the ingest path rather than
  // a queueing collapse.
  util::Rng rng(seed);
  std::vector<svc::JobRequest> requests;
  requests.reserve(static_cast<std::size_t>(spec.jobs));
  double arrival = 0.0;
  for (long long tag = 0; tag < spec.jobs; ++tag) {
    svc::JobRequest request;
    request.tag = tag;
    request.arrival = arrival;
    request.nodes = static_cast<int>(rng.uniform_int(1, 4));
    request.min_nodes = 1;
    request.max_nodes = request.nodes * 2;
    request.runtime = rng.uniform(20.0, 60.0);
    request.steps = 5;
    request.flexible = rng.bernoulli(0.5);
    requests.push_back(std::move(request));
    arrival += rng.exponential_mean(spec.mean_interarrival);
  }
  return requests;
}

svc::ServiceConfig service_config(const ServiceSpec& spec,
                                  bool attribute_waits) {
  svc::ServiceConfig config;
  config.driver.rms.nodes = spec.nodes;
  config.sample_period = spec.sample_period;
  config.attribute_waits = attribute_waits;
  return config;
}

long long expected_jobs(Workload workload, bool smoke) {
  switch (workload) {
    case Workload::kArchive:
      return archive_spec(smoke).jobs;
    case Workload::kFig10:
      return static_cast<long long>(fig10_spec(smoke).cells) *
             fig10_spec(smoke).jobs;
    case Workload::kFederation:
      return static_cast<long long>(fed::all_placements().size() *
                                    std::size(kDmrPolicies)) *
             federation_spec(smoke).seeds * federation_spec(smoke).jobs;
    case Workload::kService:
      return service_spec(smoke).jobs;
  }
  return 0;
}

double typical_child_seconds(Workload workload) {
  switch (workload) {
    case Workload::kArchive: return 3.5;
    case Workload::kFig10: return 2.8;
    case Workload::kFederation: return 3.2;
    case Workload::kService: return 1.2;
  }
  return 3.0;
}

}  // namespace dmrbench
