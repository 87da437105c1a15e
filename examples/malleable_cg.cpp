// Malleable Conjugate Gradient under resource-manager control.
//
// Scenario: a CG solve starts on the whole 8-node virtual cluster; a
// rigid 4-node job arrives behind it.  At the next reconfiguring point
// Algorithm 1's wide optimization shrinks the solver so the rigid job can
// start (boosting it to max priority), and CG keeps converging on the
// smaller communicator — its matrix, vectors and Krylov scalars all
// redistributed in-flight by the runtime.
#include <cstdio>
#include <memory>

#include "dmr/apps.hpp"
#include "dmr/dmr.hpp"
#include "dmr/malleable.hpp"

namespace {

using namespace dmr;

/// CG with residual reporting at a few checkpoints; the Krylov state
/// travels through the registered buffers it inherits from CgState.
class ReportingCg final : public apps::CgState {
 public:
  explicit ReportingCg(apps::CgConfig config) : CgState(config) {}
  void compute_step(const smpi::Comm& world, int step) override {
    CgState::compute_step(world, step);
    if (step % 16 == 15) {
      const double residual = residual_norm2(world);
      if (world.rank() == 0) {
        std::printf("[cg] step %3d on %d ranks: ||r||^2 = %.3e\n", step,
                    world.size(), residual);
      }
    }
  }

 protected:
  void on_layout_changed(int rank, int nprocs) override {
    CgState::on_layout_changed(rank, nprocs);
    if (rank == 0) {
      std::printf("[cg] resized to %d ranks; Krylov state transferred\n",
                  nprocs);
    }
  }
};

}  // namespace

int main() {
  Manager manager(RmsConfig{.nodes = 8, .scheduler = {},
                            .shrink_priority_boost = true});
  double clock = 0.0;

  // The solver takes the whole cluster...
  Session cg_session(manager, [&] { return clock; });
  JobSpec cg_spec;
  cg_spec.name = "cg";
  cg_spec.requested_nodes = 8;
  cg_spec.min_nodes = 1;
  cg_spec.flexible = true;
  cg_session.submit(cg_spec);
  cg_session.schedule();

  // ... and a rigid job queues up behind it, sharing the connection.
  Session rigid_session(cg_session.connection());
  JobSpec rigid;
  rigid.name = "rigid-batch";
  rigid.requested_nodes = 4;
  rigid.min_nodes = 4;
  const JobId rigid_job = rigid_session.submit(rigid);
  rigid_session.schedule();
  std::printf("cg running on %d nodes; rigid job %lld is %s\n",
              cg_session.info().allocated, static_cast<long long>(rigid_job),
              to_string(rigid_session.info().state).c_str());

  Request request;
  request.min_procs = 1;
  request.max_procs = 8;
  auto point = std::make_shared<ReconfigPoint>(cg_session, request);

  apps::CgConfig cg_config;
  cg_config.n = 64;
  smpi::Universe universe;
  MalleableConfig config;
  config.total_steps = 128;
  const auto report = run_malleable(
      universe, point, config,
      [cg_config] { return std::make_unique<ReportingCg>(cg_config); }, 8);
  universe.await_all();
  for (const auto& failure : universe.failures()) {
    std::fprintf(stderr, "rank failure: %s\n", failure.c_str());
  }

  std::printf("\ncg finished on %d ranks; rigid job is %s (waited through "
              "%zu resize(s))\n",
              report.final_size,
              to_string(rigid_session.info().state).c_str(),
              report.resizes.size());
  // Tidy the virtual cluster: the rigid job is a placeholder without a
  // process payload, so cancel it explicitly.
  if (!rigid_session.info().finished()) rigid_session.cancel();
  return universe.failures().empty() ? 0 : 1;
}
