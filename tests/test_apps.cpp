// Application correctness tests: each of the paper's applications must
// (a) compute the right answer in parallel, (b) survive resizes with its
// state intact, and (c) round-trip through the global checkpoint format.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <utility>

#include "apps/cg.hpp"
#include "apps/flexible_sleep.hpp"
#include "apps/jacobi.hpp"
#include "apps/models.hpp"
#include "apps/nbody.hpp"
#include "rt/malleable_app.hpp"
#include "smpi/universe.hpp"

namespace {

using namespace dmr;
using namespace dmr::apps;

// --- reference/sequential oracles -------------------------------------------

TEST(CgReference, SolvesToOnes) {
  const auto x = cg_reference_solve(32, 64);
  for (double v : x) EXPECT_NEAR(v, 1.0, 1e-8);
}

TEST(JacobiReference, ConvergesToOnes) {
  const auto x = jacobi_reference_solve(32, 200);
  for (double v : x) EXPECT_NEAR(v, 1.0, 1e-8);
}

TEST(NbodyReference, MomentumConserved) {
  NbodyConfig config;
  config.particles = 24;
  std::vector<Particle> particles;
  for (std::size_t i = 0; i < config.particles; ++i) {
    particles.push_back(nbody_initial_particle(i, config));
  }
  const auto before = nbody_diagnostics(particles);
  for (int s = 0; s < 10; ++s) nbody_reference_step(particles, config);
  const auto after = nbody_diagnostics(particles);
  for (int k = 0; k < 3; ++k) {
    EXPECT_NEAR(after.momentum[k], before.momentum[k], 1e-9)
        << "axis " << k;
  }
  EXPECT_DOUBLE_EQ(after.mass, before.mass);
}

TEST(NbodyReference, DeterministicInitialConditions) {
  NbodyConfig config;
  const Particle a = nbody_initial_particle(5, config);
  const Particle b = nbody_initial_particle(5, config);
  EXPECT_EQ(a.pos[0], b.pos[0]);
  EXPECT_EQ(a.mass, b.mass);
  const Particle c = nbody_initial_particle(6, config);
  EXPECT_NE(a.pos[0], c.pos[0]);
}

// --- helpers -----------------------------------------------------------------

/// Run `factory`-built state for `steps` steps on `nprocs` ranks with an
/// optional scripted resize, returning nothing; assertions run inside.
void run_app(int nprocs, int steps, rt::StateFactory factory,
             rt::ForcedDecision forced = nullptr) {
  smpi::Universe universe;
  rt::MalleableConfig config;
  config.total_steps = steps;
  config.forced_decision = std::move(forced);
  rt::run_malleable(universe, nullptr, config, std::move(factory), nprocs);
  universe.await_all();
  ASSERT_TRUE(universe.failures().empty()) << universe.failures()[0];
}

// --- Flexible Sleep -----------------------------------------------------------

class FsChecker final : public FlexibleSleepState {
 public:
  FsChecker(FlexibleSleepConfig config, int last_step,
            std::atomic<int>& validated)
      : FlexibleSleepState(config), config_(config), last_step_(last_step),
        validated_(validated) {}
  void compute_step(const smpi::Comm& world, int step) override {
    FlexibleSleepState::compute_step(world, step);
    if (step == last_step_) {
      const rt::BlockDistribution dist(config_.array_elements, world.size());
      int bad = 0;
      for (std::size_t i = 0; i < local().size(); ++i) {
        const double want =
            expected(dist.begin(world.rank()) + i, step + 1);
        if (local()[i] != want) ++bad;
      }
      EXPECT_EQ(world.allreduce_sum(bad), 0);
      ++validated_;
    }
  }

 private:
  FlexibleSleepConfig config_;
  int last_step_;
  std::atomic<int>& validated_;
};

TEST(FlexibleSleep, ArraySurvivesExpandShrinkChain) {
  FlexibleSleepConfig config;
  config.array_elements = 103;
  std::atomic<int> validated{0};
  run_app(4, 10,
          [&] { return std::make_unique<FsChecker>(config, 9, validated); },
          [](int step, int size) -> std::optional<dmr::ResizeDecision> {
            dmr::ResizeDecision d;
            if (step == 3 && size == 4) {
              d.action = dmr::Action::Expand;
              d.new_size = 6;
              return d;
            }
            if (step == 7 && size == 6) {
              d.action = dmr::Action::Shrink;
              d.new_size = 3;
              return d;
            }
            return std::nullopt;
          });
  EXPECT_EQ(validated.load(), 3);
}

TEST(FlexibleSleep, StepCounterTravelsWithData) {
  FlexibleSleepConfig config;
  config.array_elements = 16;
  std::atomic<int> validated{0};
  // The oracle checks base + index + steps: if steps_done were lost in
  // the resize the final values would be off by the pre-resize count.
  run_app(2, 6,
          [&] { return std::make_unique<FsChecker>(config, 5, validated); },
          [](int step, int size) -> std::optional<dmr::ResizeDecision> {
            if (step == 4 && size == 2) {
              dmr::ResizeDecision d;
              d.action = dmr::Action::Expand;
              d.new_size = 4;
              return d;
            }
            return std::nullopt;
          });
  EXPECT_EQ(validated.load(), 4);
}

// --- CG -----------------------------------------------------------------------

class CgChecker final : public CgState {
 public:
  CgChecker(CgConfig config, int last_step, std::atomic<int>& validated)
      : CgState(config), last_step_(last_step), validated_(validated) {}
  void compute_step(const smpi::Comm& world, int step) override {
    CgState::compute_step(world, step);
    if (step == last_step_) {
      // After enough iterations CG's solution is the ones vector.
      int bad = 0;
      for (double v : x()) {
        if (std::fabs(v - 1.0) > 1e-6) ++bad;
      }
      EXPECT_EQ(world.allreduce_sum(bad), 0);
      EXPECT_LT(residual_norm2(world), 1e-10);
      ++validated_;
    }
  }

 private:
  int last_step_;
  std::atomic<int>& validated_;
};

TEST(Cg, ParallelSolveMatchesOracle) {
  CgConfig config;
  config.n = 48;
  std::atomic<int> validated{0};
  run_app(4, 96,
          [&] { return std::make_unique<CgChecker>(config, 95, validated); });
  EXPECT_EQ(validated.load(), 4);
}

TEST(Cg, SolveSurvivesMidIterationResize) {
  // Resize in the middle of the Krylov iteration: x, r, p and rho must
  // all transfer coherently or CG silently diverges.
  CgConfig config;
  config.n = 48;
  std::atomic<int> validated{0};
  run_app(2, 96,
          [&] { return std::make_unique<CgChecker>(config, 95, validated); },
          [](int step, int size) -> std::optional<dmr::ResizeDecision> {
            dmr::ResizeDecision d;
            if (step == 20 && size == 2) {
              d.action = dmr::Action::Expand;
              d.new_size = 6;
              return d;
            }
            if (step == 60 && size == 6) {
              d.action = dmr::Action::Shrink;
              d.new_size = 3;
              return d;
            }
            return std::nullopt;
          });
  EXPECT_EQ(validated.load(), 3);
}

// --- Jacobi ---------------------------------------------------------------------

class JacobiChecker final : public JacobiState {
 public:
  JacobiChecker(JacobiConfig config, int last_step,
                std::atomic<int>& validated)
      : JacobiState(config), last_step_(last_step), validated_(validated) {}
  void compute_step(const smpi::Comm& world, int step) override {
    JacobiState::compute_step(world, step);
    if (step == last_step_) {
      const double err = world.allreduce(
          local_error(), [](double a, double b) { return a > b ? a : b; });
      EXPECT_LT(err, 1e-8);
      ++validated_;
    }
  }

 private:
  int last_step_;
  std::atomic<int>& validated_;
};

TEST(Jacobi, ParallelConvergesToOnes) {
  JacobiConfig config;
  config.n = 40;
  std::atomic<int> validated{0};
  run_app(4, 80, [&] {
    return std::make_unique<JacobiChecker>(config, 79, validated);
  });
  EXPECT_EQ(validated.load(), 4);
}

TEST(Jacobi, ConvergesAcrossShrink) {
  JacobiConfig config;
  config.n = 40;
  std::atomic<int> validated{0};
  run_app(4, 80,
          [&] { return std::make_unique<JacobiChecker>(config, 79, validated); },
          [](int step, int size) -> std::optional<dmr::ResizeDecision> {
            if (step == 30 && size == 4) {
              dmr::ResizeDecision d;
              d.action = dmr::Action::Shrink;
              d.new_size = 2;
              return d;
            }
            return std::nullopt;
          });
  EXPECT_EQ(validated.load(), 2);
}

// --- N-body ----------------------------------------------------------------------

class NbodyChecker final : public NbodyState {
 public:
  NbodyChecker(NbodyConfig config, int last_step,
               std::vector<Particle>* final_particles, std::mutex* mu)
      : NbodyState(config), last_step_(last_step),
        final_particles_(final_particles), mu_(mu) {}
  void compute_step(const smpi::Comm& world, int step) override {
    NbodyState::compute_step(world, step);
    if (step == last_step_) {
      const auto all = world.allgatherv(std::span<const Particle>(local()));
      if (world.rank() == 0) {
        std::lock_guard<std::mutex> lock(*mu_);
        *final_particles_ = all;
      }
    }
  }

 private:
  int last_step_;
  std::vector<Particle>* final_particles_;
  std::mutex* mu_;
};

TEST(Nbody, ParallelMatchesSequentialBitExact) {
  NbodyConfig config;
  config.particles = 20;
  // Sequential oracle.
  std::vector<Particle> oracle;
  for (std::size_t i = 0; i < config.particles; ++i) {
    oracle.push_back(nbody_initial_particle(i, config));
  }
  for (int s = 0; s < 8; ++s) nbody_reference_step(oracle, config);

  std::vector<Particle> parallel;
  std::mutex mu;
  run_app(4, 8, [&] {
    return std::make_unique<NbodyChecker>(config, 7, &parallel, &mu);
  });
  ASSERT_EQ(parallel.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    for (int k = 0; k < 3; ++k) {
      EXPECT_DOUBLE_EQ(parallel[i].pos[k], oracle[i].pos[k]) << "particle "
                                                             << i;
      EXPECT_DOUBLE_EQ(parallel[i].vel[k], oracle[i].vel[k]);
    }
  }
}

TEST(Nbody, ResizeDoesNotPerturbTrajectory) {
  // The headline property behind Fig. 1: DMR reconfiguration is exact —
  // the trajectory with a mid-run 4 -> 2 -> 6 resize chain is bit-equal
  // to the sequential one.
  NbodyConfig config;
  config.particles = 18;
  std::vector<Particle> oracle;
  for (std::size_t i = 0; i < config.particles; ++i) {
    oracle.push_back(nbody_initial_particle(i, config));
  }
  for (int s = 0; s < 10; ++s) nbody_reference_step(oracle, config);

  std::vector<Particle> parallel;
  std::mutex mu;
  run_app(4, 10,
          [&] { return std::make_unique<NbodyChecker>(config, 9, &parallel, &mu); },
          [](int step, int size) -> std::optional<dmr::ResizeDecision> {
            dmr::ResizeDecision d;
            if (step == 3 && size == 4) {
              d.action = dmr::Action::Shrink;
              d.new_size = 2;
              return d;
            }
            if (step == 6 && size == 2) {
              d.action = dmr::Action::Expand;
              d.new_size = 6;
              return d;
            }
            return std::nullopt;
          });
  ASSERT_EQ(parallel.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    for (int k = 0; k < 3; ++k) {
      EXPECT_DOUBLE_EQ(parallel[i].pos[k], oracle[i].pos[k]) << "particle "
                                                             << i;
      EXPECT_DOUBLE_EQ(parallel[i].vel[k], oracle[i].vel[k]);
    }
  }
}

// --- performance models -------------------------------------------------------

TEST(Models, CgSpeedupShape) {
  EXPECT_DOUBLE_EQ(cg_speedup(1), 1.0);
  EXPECT_GT(cg_speedup(32), cg_speedup(16));
  EXPECT_GT(cg_speedup(16), cg_speedup(8));
  // Sweet spot: < 10% per doubling past 8.
  EXPECT_LT(cg_speedup(16) / cg_speedup(8), 1.10);
  EXPECT_LT(cg_speedup(32) / cg_speedup(16), 1.10);
  // But healthy scaling below 8.
  EXPECT_GT(cg_speedup(8) / cg_speedup(4), 1.5);
}

/// cg_speedup as it was before it read a table: the log2 interpolation
/// evaluated on every call.
double cg_speedup_formula(int nprocs) {
  static constexpr struct {
    int p;
    double s;
  } kPoints[] = {{1, 1.0}, {2, 1.9}, {4, 3.6},
                 {8, 6.0}, {16, 6.55}, {32, 7.0}};
  if (nprocs <= 1) return 1.0;
  if (nprocs >= 32) return kPoints[5].s;
  for (int i = 1; i < 6; ++i) {
    if (nprocs <= kPoints[i].p) {
      const double x0 = std::log2(static_cast<double>(kPoints[i - 1].p));
      const double x1 = std::log2(static_cast<double>(kPoints[i].p));
      const double x = std::log2(static_cast<double>(nprocs));
      const double w = (x - x0) / (x1 - x0);
      return kPoints[i - 1].s * (1.0 - w) + kPoints[i].s * w;
    }
  }
  return kPoints[5].s;
}

TEST(Models, CgSpeedupTableMatchesFormulaBitForBit) {
  for (int p = -2; p <= 64; ++p) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cg_speedup(p)),
              std::bit_cast<std::uint64_t>(cg_speedup_formula(p)))
        << "p " << p;
  }
}

TEST(Models, CgAndJacobiStepTimesUnchanged) {
  // The models divide the work at 32 processes by the speedup at p.
  for (const auto& [model, step32] :
       {std::pair{cg_model(), 0.055}, std::pair{jacobi_model(), 0.050}}) {
    const double work = step32 * cg_speedup_formula(32);
    for (int p = 1; p <= 32; ++p) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(model.step_seconds(p)),
                std::bit_cast<std::uint64_t>(work / cg_speedup_formula(p)))
          << model.name << " at " << p;
    }
  }
}

TEST(Models, NbodyNearlyFlat) {
  EXPECT_DOUBLE_EQ(nbody_speedup(1), 1.0);
  EXPECT_LT(nbody_speedup(16), 1.10);           // < 10% over sequential
  EXPECT_DOUBLE_EQ(nbody_speedup(32), nbody_speedup(16));  // capped at 16
}

TEST(Models, TableOneParameters) {
  const AppModel cg = cg_model();
  EXPECT_EQ(cg.iterations, 10000);
  EXPECT_EQ(cg.request.min_procs, 2);
  EXPECT_EQ(cg.request.max_procs, 32);
  EXPECT_EQ(cg.request.preferred, 8);
  EXPECT_DOUBLE_EQ(cg.sched_period, 15.0);

  const AppModel nb = nbody_model();
  EXPECT_EQ(nb.iterations, 25);
  EXPECT_EQ(nb.request.min_procs, 1);
  EXPECT_EQ(nb.request.max_procs, 16);
  EXPECT_EQ(nb.request.preferred, 1);

  const AppModel fs = fs_model(25, 4, 10.0, 20, 1 << 30);
  EXPECT_EQ(fs.request.max_procs, 20);
  EXPECT_EQ(fs.request.preferred, 0);
}

TEST(Models, FsPerfectLinearScaling) {
  const AppModel fs = fs_model(2, 8, 30.0, 20, 1 << 20);
  EXPECT_DOUBLE_EQ(fs.step_seconds(8), 30.0);
  EXPECT_DOUBLE_EQ(fs.step_seconds(16), 15.0);
  EXPECT_DOUBLE_EQ(fs.step_seconds(4), 60.0);
}

TEST(Models, StepTimesMonotoneInProcs) {
  for (const AppModel& model : {cg_model(), jacobi_model(), nbody_model()}) {
    for (int p = 1; p < 32; p *= 2) {
      EXPECT_GE(model.step_seconds(p), model.step_seconds(p * 2))
          << model.name << " at p=" << p;
    }
  }
}

}  // namespace
