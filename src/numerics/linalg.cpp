#include "numerics/linalg.hpp"

#include <cmath>
#include <stdexcept>

namespace lrd::numerics {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  if (rows == 0 || cols == 0) throw std::invalid_argument("Matrix: zero dimension");
}

std::vector<double> Matrix::multiply(const std::vector<double>& x) const {
  if (x.size() != cols_) throw std::invalid_argument("Matrix::multiply: shape mismatch");
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out[r] += (*this)(r, c) * x[c];
  return out;
}

namespace {

/// In-place LU with partial pivoting. Returns false on singularity.
/// `perm[i]` records the pivot row chosen at step i.
bool lu_decompose(Matrix& a, std::vector<std::size_t>& perm) {
  const std::size_t n = a.rows();
  perm.resize(n);
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    double best = std::abs(a(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a(r, col)) > best) {
        best = std::abs(a(r, col));
        pivot = r;
      }
    }
    if (best < 1e-300) return false;
    perm[col] = pivot;
    if (pivot != col)
      for (std::size_t c = 0; c < n; ++c) std::swap(a(col, c), a(pivot, c));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a(r, col) / a(col, col);
      a(r, col) = factor;
      for (std::size_t c = col + 1; c < n; ++c) a(r, c) -= factor * a(col, c);
    }
  }
  return true;
}

}  // namespace

std::vector<double> solve_linear_system(Matrix a, std::vector<double> b) {
  if (a.rows() != a.cols() || a.rows() != b.size())
    throw std::invalid_argument("solve_linear_system: shape mismatch");
  const std::size_t n = a.rows();
  std::vector<std::size_t> perm;
  if (!lu_decompose(a, perm)) throw std::domain_error("solve_linear_system: singular matrix");

  for (std::size_t i = 0; i < n; ++i) std::swap(b[i], b[perm[i]]);
  // Forward substitution (unit lower-triangular L).
  for (std::size_t r = 1; r < n; ++r)
    for (std::size_t c = 0; c < r; ++c) b[r] -= a(r, c) * b[c];
  // Back substitution (U).
  for (std::size_t r = n; r-- > 0;) {
    for (std::size_t c = r + 1; c < n; ++c) b[r] -= a(r, c) * b[c];
    b[r] /= a(r, r);
  }
  return b;
}

}  // namespace lrd::numerics
