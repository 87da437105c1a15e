// Conjugate Gradient solver (Section VII-B2).
//
// Solves A x = b for a dense symmetric positive-definite matrix stored
// flat and distributed by row blocks; the four vectors (x, b, r, p) are
// distributed the same way.  These five structures plus the Krylov
// scalar rho are the OmpSs data dependencies of the paper — here they
// are registered buffers (dmr::redist), so resizes and checkpoints move
// them without any CG-specific wire code.
#pragma once

#include <cstddef>
#include <vector>

#include "rt/app_state.hpp"

namespace dmr::apps {

struct CgConfig {
  /// Matrix dimension n (the matrix holds n*n doubles).
  std::size_t n = 64;
  /// Iterations are driven by the malleable loop; this is only the
  /// convergence guard used by residual().
  double tolerance = 1e-12;
};

/// Fill one row of the benchmark matrix: symmetric, diagonally dominant
/// (value 4 on the diagonal, -1 on ±1 and ±2 off-diagonals), guaranteed
/// SPD.  Exposed for reference-solution tests.
void cg_matrix_row(std::size_t row, std::size_t n, double* out);

/// Dense reference solve via plain (sequential) CG; for oracle tests.
std::vector<double> cg_reference_solve(std::size_t n, int iterations);

class CgState : public rt::AppState {
 public:
  explicit CgState(CgConfig config);

  void init(int rank, int nprocs) override;
  void compute_step(const smpi::Comm& world, int step) override;

  /// Global residual norm^2 (collective).
  double residual_norm2(const smpi::Comm& world) const;
  const std::vector<double>& x() const { return x_; }

 protected:
  void on_layout_changed(int rank, int nprocs) override;

 private:
  void build_local(int rank, int nprocs);

  CgConfig config_;
  // Row-block local data.
  std::vector<double> matrix_;  // count(rank) x n, row-major
  std::vector<double> x_, b_, r_, p_;
  double rho_ = 0.0;
  int my_rank_ = 0;
  int nprocs_ = 1;
};

}  // namespace dmr::apps
