// N-body simulation (Section VII-B4).
//
// Direct all-pairs gravitational simulation: each rank owns a block of
// particles, exchanges the full particle set every step (the paper's
// "each process exchanges its local subset with the other processes"),
// computes forces on its own block, and advances them with a leapfrog
// integrator.  The particle array — position, velocity, mass and weight,
// matching the paper's data dependency — is split or merged on resizes.
#pragma once

#include <cstddef>
#include <vector>

#include "rt/app_state.hpp"

namespace dmr::apps {

struct Particle {
  double pos[3] = {0.0, 0.0, 0.0};
  double vel[3] = {0.0, 0.0, 0.0};
  double mass = 1.0;
  double weight = 1.0;
};
static_assert(sizeof(Particle) == 8 * sizeof(double));

struct NbodyConfig {
  std::size_t particles = 64;
  double dt = 1e-3;
  double softening = 1e-2;
  std::uint64_t seed = 42;
};

/// Deterministic initial condition for particle i (a spiral shell layout
/// derived from the seed; pure function, so every rank can generate its
/// own block without communication).
Particle nbody_initial_particle(std::size_t index, const NbodyConfig& config);

/// Total momentum (conserved by the symmetric pairwise forces) and
/// kinetic energy of a particle set — the physics invariants under test.
struct NbodyDiagnostics {
  double momentum[3] = {0.0, 0.0, 0.0};
  double kinetic = 0.0;
  double mass = 0.0;
};
NbodyDiagnostics nbody_diagnostics(const std::vector<Particle>& particles);

/// Sequential reference step for oracle tests.
void nbody_reference_step(std::vector<Particle>& particles,
                          const NbodyConfig& config);

class NbodyState : public rt::AppState {
 public:
  explicit NbodyState(NbodyConfig config) : config_(config) {
    // The particle array — position, velocity, mass, weight — is the
    // single registered structure, exactly the paper's data dependency.
    registry().add_block("particles", local_, config_.particles);
  }

  void init(int rank, int nprocs) override;
  void compute_step(const smpi::Comm& world, int step) override;

  const std::vector<Particle>& local() const { return local_; }

 private:
  NbodyConfig config_;
  std::vector<Particle> local_;
};

}  // namespace dmr::apps
