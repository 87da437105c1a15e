// Flexible Sleep (FS): the paper's synthetic malleable application.
//
// Each step "computes" for work_seconds / nprocs (perfect linear
// scalability, modeled by a sleep) and carries a distributed array of
// doubles that is redistributed on every reconfiguration — the array is
// the OmpSs data dependency of Section VII-B1.
#pragma once

#include <cstddef>
#include <vector>

#include "rt/app_state.hpp"

namespace dmr::apps {

struct FlexibleSleepConfig {
  /// Total elements of the distributed array (the preliminary study uses
  /// 1 GB = 134217728 doubles; tests use far less).
  std::size_t array_elements = 1 << 10;
  /// Aggregate work per step in seconds; a step on p ranks sleeps
  /// work_seconds / p.
  double work_seconds = 0.0;
  /// Seed value used to fill and verify the array.
  double fill_base = 1.0;
};

class FlexibleSleepState : public rt::AppState {
 public:
  explicit FlexibleSleepState(FlexibleSleepConfig config) : config_(config) {
    // The replicated step counter travels ahead of the array so a
    // restored rank can verify against expected().
    registry().add_scalar("steps", steps_done_);
    registry().add_block("array", local_, config_.array_elements);
  }

  void init(int rank, int nprocs) override;
  void compute_step(const smpi::Comm& world, int step) override;

  /// Expected value of global element i after `steps` completed steps
  /// (each step adds 1.0 to every element) — the correctness oracle.
  double expected(std::size_t index, int steps) const {
    return config_.fill_base + static_cast<double>(index) +
           static_cast<double>(steps);
  }

  const std::vector<double>& local() const { return local_; }
  int steps_done() const { return steps_done_; }

 private:
  FlexibleSleepConfig config_;
  std::vector<double> local_;
  int steps_done_ = 0;
};

}  // namespace dmr::apps
