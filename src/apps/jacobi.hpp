// Jacobi iterative solver (Section VII-B3).
//
// Same program layout as CG — a flat row-distributed matrix — but only
// two vectors (x and b); the three structures form the OmpSs data
// dependencies and travel as registered buffers on resizes.
#pragma once

#include <cstddef>
#include <vector>

#include "rt/app_state.hpp"

namespace dmr::apps {

struct JacobiConfig {
  std::size_t n = 64;
};

/// Matrix row generator (strictly diagonally dominant, so Jacobi
/// converges): 8 on the diagonal, -1 on ±1, -0.5 on ±2.
void jacobi_matrix_row(std::size_t row, std::size_t n, double* out);

/// Sequential reference iteration for oracle tests.
std::vector<double> jacobi_reference_solve(std::size_t n, int iterations);

class JacobiState : public rt::AppState {
 public:
  explicit JacobiState(JacobiConfig config);

  void init(int rank, int nprocs) override;
  void compute_step(const smpi::Comm& world, int step) override;

  const std::vector<double>& x() const { return x_; }
  /// || x - ones ||_inf over the local block (solution oracle).
  double local_error() const;

 protected:
  void on_layout_changed(int rank, int nprocs) override;

 private:
  void build_local(int rank, int nprocs);

  JacobiConfig config_;
  std::vector<double> matrix_;
  std::vector<double> x_, b_;
  int my_rank_ = 0;
  int nprocs_ = 1;
};

}  // namespace dmr::apps
