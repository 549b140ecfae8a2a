// Small dense linear algebra: just enough for the spectral fluid-queue
// solver (queueing/markov_fluid) — an (N+1)-state problem where N is the
// number of multiplexed on/off sources, so dimensions stay modest and a
// straightforward LU with partial pivoting is the right tool.
#pragma once

#include <cstddef>
#include <vector>

namespace lrd::numerics {

/// Row-major dense matrix.
class Matrix {
 public:
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  double& operator()(std::size_t r, std::size_t c) noexcept { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const noexcept { return data_[r * cols_ + c]; }

  std::vector<double> multiply(const std::vector<double>& x) const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
};

/// Solves A x = b by LU decomposition with partial pivoting.
/// Throws std::domain_error when A is (numerically) singular.
std::vector<double> solve_linear_system(Matrix a, std::vector<double> b);

}  // namespace lrd::numerics
