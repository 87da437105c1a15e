// Quickstart: a minimal malleable application under the DMR framework.
//
// What happens here, end to end:
//  1. A virtual 8-node cluster is managed by dmr::Manager (the built-in
//     dmr::Rms backend, "our Slurm").
//  2. A dmr::Session submits and binds a 2-process job.
//  3. The application — an iterative loop over a distributed array —
//     calls its dmr::ReconfigPoint between iterations (the paper's
//     dmr_check_status).
//  4. The reconfiguration policy notices the empty queue and grants an
//     expansion to the job maximum; the runtime spawns the new rank set,
//     redistributes the array, and the old ranks retire.
//
// Build & run:  ./quickstart
#include <cstdio>
#include <memory>
#include <numeric>

#include "dmr/dmr.hpp"
#include "dmr/malleable.hpp"
#include "dmr/redist.hpp"

namespace {

using namespace dmr;

/// The application state: a block-distributed vector of doubles; each
/// iteration adds one to every element.  Registering the vector is all
/// the resize support the application writes — offload, reconstruction
/// and the checkpoint format are derived from the registration.
class Counters final : public AppState {
 public:
  explicit Counters(std::size_t total) : total_(total) {
    registry().add_block("counters", local_, total_);
  }

  void init(int rank, int nprocs) override {
    const BlockDistribution dist(total_, nprocs);
    local_.assign(dist.count(rank), 0.0);
    std::printf("[rank %d/%d] initialized %zu elements\n", rank, nprocs,
                local_.size());
  }

  void compute_step(const smpi::Comm& world, int step) override {
    for (double& v : local_) v += 1.0;
    // A collective, so every rank agrees on the global sum.
    const double total = world.allreduce_sum(
        std::accumulate(local_.begin(), local_.end(), 0.0));
    if (world.rank() == 0) {
      std::printf("[step %d] %d ranks, global sum = %.0f\n", step,
                  world.size(), total);
    }
  }

 protected:
  void on_layout_changed(int rank, int nprocs) override {
    std::printf("[rank %d/%d] joined after resize with %zu elements\n", rank,
                nprocs, local_.size());
  }

 private:
  std::size_t total_;
  std::vector<double> local_;
};

}  // namespace

int main() {
  // 1. The resource manager: 8 virtual nodes, EASY backfill over a FIFO
  //    queue (boosted jobs first).
  Manager manager(RmsConfig{.nodes = 8, .scheduler = {},
                            .shrink_priority_boost = true});

  // 2. A session binds the application to its job: it owns the RMS
  //    connection, the job identity and the clock.
  double virtual_clock = 0.0;
  Session session(manager, [&] { return virtual_clock; });

  JobSpec spec;
  spec.name = "quickstart";
  spec.requested_nodes = 2;
  spec.min_nodes = 1;
  spec.flexible = true;
  const JobId job = session.submit(spec);
  session.schedule();
  std::printf("job %lld started on %d nodes (cluster has %d idle)\n",
              static_cast<long long>(job), session.info().allocated,
              manager.idle_nodes());

  // 3. The reconfiguring point the application calls between steps, with
  //    the DMR request it conveys (min / max / factor).
  Request request;
  request.min_procs = 1;
  request.max_procs = 8;
  request.factor = 2;
  auto point = std::make_shared<ReconfigPoint>(session, request);

  // 4. Run the malleable loop: 6 iterations over 64 elements.
  smpi::Universe universe;
  MalleableConfig config;
  config.total_steps = 6;
  const RunReport report = run_malleable(
      universe, point, config, [] { return std::make_unique<Counters>(64); },
      /*initial_size=*/2);
  universe.await_all();

  for (const auto& failure : universe.failures()) {
    std::fprintf(stderr, "rank failure: %s\n", failure.c_str());
  }
  std::printf("\nfinished on %d ranks after %d steps; %zu resize(s):\n",
              report.final_size, report.steps_executed,
              report.resizes.size());
  for (const auto& resize : report.resizes) {
    std::printf("  step %d: %s %d -> %d (%.3f ms of non-solving time; "
                "%zu B moved in %d transfers)\n",
                resize.step, to_string(resize.action).c_str(),
                resize.old_size, resize.new_size, resize.spawn_seconds * 1e3,
                resize.bytes_redistributed, resize.redistribution_transfers);
  }
  std::printf("RMS counters: %lld expands, %lld shrinks, %lld checks\n",
              manager.counters().expands, manager.counters().shrinks,
              manager.counters().checks);
  return universe.failures().empty() ? 0 : 1;
}
