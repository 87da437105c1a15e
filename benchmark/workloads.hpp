// dmrbench workload builders.
//
// Ported from bench/ (common.cpp's archive and realistic builders,
// sweep.cpp's federation grid, service_bench.cpp's request stream) so
// that an edit under bench/ cannot change what the benchmark measures.
// README.md records the one-off check that these reproduce the
// originals' outcome digests byte for byte.
//
// A batch workload (archive, fig10, federation) is a list of Cells:
// independent driver runs, each a DriverConfig plus its job plans.  The
// service workload is a request stream fed to one svc::Service.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "dmr/federation.hpp"
#include "dmr/service.hpp"
#include "dmr/simulation.hpp"
#include "dmr/workload.hpp"

namespace dmrbench {

/// Streaming FNV-1a hash of an outcome rendering.  The text is the one
/// bench::realistic_outcome_digest / archive_outcome_digest build (one
/// "id:submit:start:end" line per job at 17 significant digits plus a
/// summary line); hashing it line by line keeps a 300k-job digest out
/// of memory.
class Digest {
 public:
  void line(const char* format, ...) __attribute__((format(printf, 2, 3)));
  /// One line per user job of every member, member order.
  void jobs(const dmr::fed::Federation& federation);
  std::string hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Wall seconds of each set-up phase (0 where a workload has none).
struct SetupTimes {
  double generate = 0.0;   // synthesize jobs (Feitelson, request stream)
  double swf_text = 0.0;   // serialize to SWF text
  double swf_parse = 0.0;  // parse the SWF text back
  double shape = 0.0;      // TraceShaper onto the machine
  double plan = 0.0;       // job plans (drivers are built per cell)
  std::size_t parsed_records = 0;
};

/// One independent driver run.
struct Cell {
  dmr::drv::DriverConfig config;
  std::vector<dmr::drv::JobPlan> plans;
};

// --- archive: rigid Feitelson jobs round-tripped through SWF text --------

struct ArchiveSpec {
  int jobs = 300000;
  int nodes = 1024;
  int max_size = 128;
  double load = 0.7;
  /// Iterations per job, one engine event each (Table I FS runs 25).
  int steps = 25;
};

std::vector<Cell> archive_cells(const ArchiveSpec& spec, std::uint64_t seed,
                                SetupTimes& times);

// --- fig10: the Section IX CG / Jacobi / N-body mix on 64 nodes -------------

struct Fig10Spec {
  int jobs = 50;
  int nodes = 64;
  double mean_arrival = 60.0;
  /// Fraction of Table I iteration counts.
  double iteration_scale = 1.0;
  /// Cells run the consecutive seeds seed, seed+1, ...
  int cells = 64;
};

std::vector<Cell> fig10_cells(const Fig10Spec& spec, std::uint64_t seed,
                              SetupTimes& times);

// --- federation: the sweep's 3-member grid, placements x DMR policies ------

/// `sweep clusters=3 jobs=2500 seeds=8`: eight independent 2500-job
/// traces rather than one long one.  A trace's cost is dominated by how
/// deep the best-fit-speed backlog grows, which varies a lot between
/// seeds and costs superlinearly; over ten seeds the spread (IQR /
/// median) of the cost of 20000 jobs per cell was 14% as four 5000-job
/// traces and 8% as eight 2500-job traces, whose best-fit-speed cells
/// still queue jobs ten times longer than the other placements.
struct FederationSpec {
  int jobs = 2500;
  /// Traces seed, seed+1, ... (sweep's seeds=N).
  int seeds = 8;
  int clusters = 3;
  int steps = 25;
  double load = 0.9;
};

/// Cells in sweep order: placement, then fixed / flexible / async, then
/// trace seed.
std::vector<Cell> federation_cells(const FederationSpec& spec,
                                   std::uint64_t seed, SetupTimes& times);

/// Build the cells of a batch workload at full or smoke size.
std::vector<Cell> build_cells(Workload workload, std::uint64_t seed,
                              bool smoke, SetupTimes& times);

/// The summary line each workload's original digest appends per cell.
void digest_cell(Workload workload, Digest& digest,
                 const dmr::drv::WorkloadDriver& driver,
                 const dmr::drv::WorkloadMetrics& metrics);

// --- service: a request stream through the submission ring -----------------

struct ServiceSpec {
  int jobs = 20000;
  /// Snapshot, round trip and fork once this many requests were pushed.
  int snapshot_at = 10000;
  int nodes = 64;
  double sample_period = 300.0;
  double mean_interarrival = 5.0;
  /// The what-if fork: "+64 nodes" for 4 simulated hours.
  int fork_nodes = 64;
  double fork_seconds = 4.0 * 3600.0;
};

ServiceSpec service_spec(bool smoke);
std::vector<dmr::svc::JobRequest> service_requests(const ServiceSpec& spec,
                                                   std::uint64_t seed);
dmr::svc::ServiceConfig service_config(const ServiceSpec& spec,
                                       bool attribute_waits);

/// Jobs one child process of `workload` submits.
long long expected_jobs(Workload workload, bool smoke);

/// Wall seconds of one full-size timed child (set-up, measured section,
/// digest) on a 4-vCPU Xeon VM; sizes how many children fill a run.
double typical_child_seconds(Workload workload);

}  // namespace dmrbench
