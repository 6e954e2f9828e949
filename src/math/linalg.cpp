#include "math/linalg.hpp"

#include <cmath>

namespace vbsrm::math {

namespace {

// LU decomposition with partial pivoting.  Returns false if singular.
bool lu_decompose(Matrix& a, std::vector<std::size_t>& piv) {
  const std::size_t n = a.rows();
  piv.resize(n);
  for (std::size_t i = 0; i < n; ++i) piv[i] = i;
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t p = k;
    double mx = std::abs(a(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      if (std::abs(a(i, k)) > mx) {
        mx = std::abs(a(i, k));
        p = i;
      }
    }
    if (mx == 0.0) return false;
    if (p != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a(k, j), a(p, j));
      std::swap(piv[k], piv[p]);
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      a(i, k) /= a(k, k);
      const double f = a(i, k);
      for (std::size_t j = k + 1; j < n; ++j) a(i, j) -= f * a(k, j);
    }
  }
  return true;
}

std::vector<double> lu_solve(const Matrix& lu,
                             const std::vector<std::size_t>& piv,
                             const std::vector<double>& b) {
  const std::size_t n = lu.rows();
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[piv[i]];
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) x[i] -= lu(i, j) * x[j];
  }
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::size_t j = ii + 1; j < n; ++j) x[ii] -= lu(ii, j) * x[j];
    x[ii] /= lu(ii, ii);
  }
  return x;
}

}  // namespace

Matrix inverse(const Matrix& a) {
  if (a.rows() != a.cols()) throw std::invalid_argument("inverse: not square");
  const std::size_t n = a.rows();
  Matrix lu = a;
  std::vector<std::size_t> piv;
  if (!lu_decompose(lu, piv)) throw std::domain_error("inverse: singular");
  Matrix inv(n, n);
  std::vector<double> e(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    e.assign(n, 0.0);
    e[j] = 1.0;
    const auto col = lu_solve(lu, piv, e);
    for (std::size_t i = 0; i < n; ++i) inv(i, j) = col[i];
  }
  return inv;
}

}  // namespace vbsrm::math
