// Quadrature: polynomial exactness of Gauss-Legendre rules applied
// through their nodes and weights, and the 2-D product grid used by NINT.
#include <gtest/gtest.h>

#include <cmath>

#include "math/quadrature.hpp"
#include "math/specfun.hpp"

namespace m = vbsrm::math;

namespace {

// One application of `gl` to f over each of `panels` equal panels of [a, b].
template <typename F>
double integrate(const m::GaussLegendre& gl, F&& f, double a, double b,
                 int panels = 1) {
  const double w = (b - a) / panels;
  double s = 0.0;
  for (int p = 0; p < panels; ++p) {
    const double c = a + (p + 0.5) * w;
    const double h = 0.5 * w;
    double ps = 0.0;
    for (int i = 0; i < gl.size(); ++i) {
      ps += gl.weights()[i] * f(c + h * gl.nodes()[i]);
    }
    s += ps * h;
  }
  return s;
}

// Sum of f over the product grid's nodes, weighted by both axes' weights.
template <typename F>
double integrate_2d(const m::ProductGrid& g, F&& f) {
  double s = 0.0;
  for (std::size_t i = 0; i < g.x.size(); ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < g.y.size(); ++j) {
      row += g.wy[j] * f(g.x[i], g.y[j]);
    }
    s += g.wx[i] * row;
  }
  return s;
}

TEST(GaussLegendre, WeightsSumToTwo) {
  for (int n : {1, 2, 3, 5, 8, 16, 24, 64}) {
    const m::GaussLegendre gl(n);
    double s = 0.0;
    for (double w : gl.weights()) s += w;
    EXPECT_NEAR(s, 2.0, 1e-13) << "n=" << n;
  }
}

TEST(GaussLegendre, NodesSymmetricAndSorted) {
  const m::GaussLegendre gl(9);
  const auto& x = gl.nodes();
  for (std::size_t i = 1; i < x.size(); ++i) EXPECT_LT(x[i - 1], x[i]);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], -x[x.size() - 1 - i], 1e-14);
  }
  EXPECT_EQ(x[4], 0.0);  // exact center for odd rules
}

TEST(GaussLegendre, ExactForPolynomialsUpToDegree2nMinus1) {
  const m::GaussLegendre gl(5);  // exact through degree 9
  for (int k = 0; k <= 9; ++k) {
    const double got =
        integrate(gl, [k](double x) { return std::pow(x, k); }, -1.0, 1.0);
    const double want = (k % 2 == 1) ? 0.0 : 2.0 / (k + 1);
    EXPECT_NEAR(got, want, 1e-13) << "k=" << k;
  }
  // Degree 10 must NOT be exact (sanity that the rule order is right).
  const double got10 =
      integrate(gl, [](double x) { return std::pow(x, 10); }, -1.0, 1.0);
  EXPECT_GT(std::abs(got10 - 2.0 / 11.0), 1e-8);
}

TEST(GaussLegendre, MappedInterval) {
  const m::GaussLegendre gl(16);
  const double got =
      integrate(gl, [](double x) { return std::sin(x); }, 0.0, M_PI);
  EXPECT_NEAR(got, 2.0, 1e-12);
}

TEST(GaussLegendre, CompositeConvergesOnOscillatory) {
  const m::GaussLegendre gl(8);
  const double got = integrate(
      gl, [](double x) { return std::cos(20.0 * x); }, 0.0, 1.0, 32);
  EXPECT_NEAR(got, std::sin(20.0) / 20.0, 1e-10);
}

TEST(GaussLegendre, RejectsBadArgs) {
  EXPECT_THROW(m::GaussLegendre(0), std::invalid_argument);
  EXPECT_THROW(m::GaussLegendre(-3), std::invalid_argument);
}

TEST(ProductGrid, SeparableIntegrand) {
  const auto g = m::make_product_grid(0.0, 1.0, 0.0, 2.0, 8, 8);
  const double got =
      integrate_2d(g, [](double x, double y) { return x * y; });
  EXPECT_NEAR(got, 0.5 * 2.0, 1e-12);
}

TEST(ProductGrid, BivariateGaussianMass) {
  // N((0.5, 0.5), 0.1^2 I) over the unit square: mass is the product of
  // the two one-axis masses P(-5 < Z < 5)^2 (the 5-sigma tails are cut).
  const auto g = m::make_product_grid(0.0, 1.0, 0.0, 1.0, 32, 10);
  auto f = [](double x, double y) {
    const double zx = (x - 0.5) / 0.1, zy = (y - 0.5) / 0.1;
    return std::exp(-0.5 * (zx * zx + zy * zy)) / (2.0 * M_PI * 0.01);
  };
  const double one_axis = 1.0 - std::erfc(5.0 / std::sqrt(2.0));
  EXPECT_NEAR(integrate_2d(g, f), one_axis * one_axis, 1e-9);
}

TEST(ProductGrid, NodesAscendWithPositiveWeights) {
  const auto g = m::make_product_grid(1.0, 3.0, 10.0, 20.0, 4, 6);
  ASSERT_EQ(g.x.size(), 24u);
  ASSERT_EQ(g.y.size(), 24u);
  for (std::size_t i = 1; i < g.x.size(); ++i) EXPECT_GT(g.x[i], g.x[i - 1]);
  for (double w : g.wx) EXPECT_GT(w, 0.0);
  for (double w : g.wy) EXPECT_GT(w, 0.0);
}

// Parameterized: composite GL converges at high order on gamma-like
// integrands for a range of shapes (the NINT workhorse case).
class GammaMassSweep : public ::testing::TestWithParam<double> {};

TEST_P(GammaMassSweep, CompositeGLIntegratesToOne) {
  const double a = GetParam();
  const m::GaussLegendre gl(12);
  // Integrate the Gamma(a, 1) density over ~[0, a + 40 sqrt(a) + 40].
  auto pdf = [&](double x) {
    return std::exp((a - 1.0) * std::log(x) - x - m::log_gamma(a));
  };
  const double hi = a + 40.0 * std::sqrt(a) + 40.0;
  EXPECT_NEAR(integrate(gl, pdf, 1e-12, hi, 64), 1.0, 1e-9)
      << "a=" << a;
}

INSTANTIATE_TEST_SUITE_P(Shapes, GammaMassSweep,
                         ::testing::Values(1.0, 2.0, 10.0, 48.0, 200.0));

}  // namespace
