// Small dense linear algebra: just enough to invert the 2x2 Hessians of
// the Laplace approximation and the ML covariance.  Row-major storage.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace vbsrm::math {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t i, std::size_t j) { return data_[i * cols_ + j]; }
  double operator()(std::size_t i, std::size_t j) const { return data_[i * cols_ + j]; }

  const std::vector<double>& data() const { return data_; }

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

/// Matrix inverse via LU with partial pivoting.  Throws on singular input.
Matrix inverse(const Matrix& a);

}  // namespace vbsrm::math
