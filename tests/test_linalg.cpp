// Small dense linear algebra: Matrix storage and the LU inverse.
#include <gtest/gtest.h>

#include <cmath>

#include "math/linalg.hpp"

namespace m = vbsrm::math;

namespace {

m::Matrix from_rows(std::initializer_list<std::initializer_list<double>> rows) {
  m::Matrix a(rows.size(), rows.begin()->size());
  std::size_t i = 0;
  for (const auto& row : rows) {
    std::size_t j = 0;
    for (double v : row) a(i, j++) = v;
    ++i;
  }
  return a;
}

m::Matrix multiply(const m::Matrix& a, const m::Matrix& b) {
  m::Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t k = 0; k < a.cols(); ++k)
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += a(i, k) * b(k, j);
  return out;
}

TEST(Matrix, IdentityAndIndexing) {
  m::Matrix i3(3, 3);
  for (std::size_t i = 0; i < 3; ++i) i3(i, i) = 1.0;
  EXPECT_EQ(i3.rows(), 3u);
  EXPECT_EQ(i3.cols(), 3u);
  EXPECT_EQ(i3(0, 0), 1.0);
  EXPECT_EQ(i3(0, 1), 0.0);
  // Row-major storage.
  EXPECT_EQ(i3.data()[4], 1.0);
  EXPECT_EQ(i3.data()[1], 0.0);
  const auto inv = m::inverse(i3);
  EXPECT_EQ(inv.data(), i3.data());
}

TEST(Inverse, TimesOriginalIsIdentity) {
  const auto a = from_rows({{3, 1, 2}, {1, 4, 1}, {2, 1, 5}});
  const auto prod = multiply(a, m::inverse(a));
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-12);
    }
  }
}

TEST(Inverse, PivotingHandlesZeroDiagonal) {
  const auto inv = m::inverse(from_rows({{0, 1}, {1, 0}}));
  EXPECT_NEAR(inv(0, 0), 0.0, 1e-14);
  EXPECT_NEAR(inv(0, 1), 1.0, 1e-14);
  EXPECT_NEAR(inv(1, 0), 1.0, 1e-14);
  EXPECT_NEAR(inv(1, 1), 0.0, 1e-14);
}

TEST(Inverse, ThrowsOnSingularOrNonSquare) {
  EXPECT_THROW(m::inverse(from_rows({{1, 2}, {2, 4}})), std::domain_error);
  EXPECT_THROW(m::inverse(m::Matrix(2, 3)), std::invalid_argument);
}

}  // namespace
