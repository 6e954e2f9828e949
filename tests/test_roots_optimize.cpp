// Root finding, fixed points, and optimizers.
#include <gtest/gtest.h>

#include <cmath>

#include "math/optimize.hpp"
#include "math/roots.hpp"

namespace m = vbsrm::math;

namespace {

TEST(Bisect, FindsSimpleRoot) {
  const auto r = m::bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, std::sqrt(2.0), 1e-10);
}

TEST(Bisect, ReportsFailureWithoutSignChange) {
  const auto r = m::bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0);
  EXPECT_FALSE(r.converged);
}

TEST(Bisect, ExactRootAtEndpoint) {
  const auto r = m::bisect([](double x) { return x - 1.0; }, 1.0, 2.0);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.x, 1.0);
  EXPECT_EQ(r.iterations, 0);
}

TEST(Brent, FasterThanBisectionOnSmooth) {
  int evals_brent = 0;
  auto f = [&](double x) {
    ++evals_brent;
    return std::cos(x) - x;
  };
  const auto r = m::brent(f, 0.0, 1.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 0.7390851332151607, 1e-12);
  EXPECT_LT(r.iterations, 15);
}

TEST(Brent, HandlesSteepFunctions) {
  const auto r =
      m::brent([](double x) { return std::exp(30.0 * x) - 1e6; }, 0.0, 1.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, std::log(1e6) / 30.0, 1e-10);
}

TEST(Newton, ConvergesQuadraticallyWithBracket) {
  auto f = [](double x) { return x * x * x - 8.0; };
  auto df = [](double x) { return 3.0 * x * x; };
  const auto r = m::newton(f, df, 1.0, 0.0, 10.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 2.0, 1e-12);
  EXPECT_LT(r.iterations, 12);
}

TEST(Newton, FallsBackToBisectionOnBadDerivative) {
  // f' reported as zero everywhere: Newton must still find the root via
  // the bracket midpoint fallback.
  auto f = [](double x) { return x - 0.3; };
  auto df = [](double) { return 0.0; };
  const auto r = m::newton(f, df, 0.9, 0.0, 1.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 0.3, 1e-9);
}

TEST(FixedPoint, ContractionConverges) {
  // x = cos(x) has the Dottie number as fixed point.
  const auto r = m::fixed_point([](double x) { return std::cos(x); }, 0.5);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 0.7390851332151607, 1e-11);
}

TEST(FixedPoint, DampingStabilizesOscillation) {
  // g(x) = 2.9 - x oscillates undamped around 1.45; damping converges.
  const auto r =
      m::fixed_point([](double x) { return 2.9 - x; }, 0.2, 1e-12, 500, 0.5);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 1.45, 1e-9);
}

TEST(FixedPoint, RejectsBadDamping) {
  EXPECT_THROW(m::fixed_point([](double x) { return x; }, 1.0, 1e-10, 10, 0.0),
               std::invalid_argument);
  EXPECT_THROW(m::fixed_point([](double x) { return x; }, 1.0, 1e-10, 10, 1.5),
               std::invalid_argument);
}

TEST(NelderMead, MinimizesRosenbrock) {
  auto rosen = [](const std::vector<double>& p) {
    const double a = 1.0 - p[0];
    const double b = p[1] - p[0] * p[0];
    return a * a + 100.0 * b * b;
  };
  m::NelderMeadOptions opt;
  opt.max_iter = 20000;
  opt.restarts = 3;
  const auto r = m::nelder_mead(rosen, {-1.2, 1.0}, opt);
  EXPECT_NEAR(r.x[0], 1.0, 1e-5);
  EXPECT_NEAR(r.x[1], 1.0, 1e-5);
  EXPECT_LT(r.f, 1e-9);
}

TEST(NelderMead, QuadraticBowl3D) {
  auto f = [](const std::vector<double>& p) {
    return (p[0] - 1.0) * (p[0] - 1.0) + 2.0 * (p[1] + 2.0) * (p[1] + 2.0) +
           0.5 * (p[2] - 3.0) * (p[2] - 3.0);
  };
  const auto r = m::nelder_mead(f, {0.0, 0.0, 0.0});
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
  EXPECT_NEAR(r.x[1], -2.0, 1e-6);
  EXPECT_NEAR(r.x[2], 3.0, 1e-6);
}

TEST(NelderMead, RejectsEmptyStart) {
  EXPECT_THROW(m::nelder_mead([](const std::vector<double>&) { return 0.0; },
                              {}),
               std::invalid_argument);
}

TEST(GoldenSection, FindsUnimodalMinimum) {
  const auto r = m::golden_section(
      [](double x) { return (x - 0.7) * (x - 0.7) + 3.0; }, -4.0, 5.0);
  EXPECT_NEAR(r.x[0], 0.7, 1e-6);  // golden section is sqrt(eps)-limited
  EXPECT_NEAR(r.f, 3.0, 1e-12);
}

TEST(NumericGradient, MatchesAnalytic) {
  auto f = [](const std::vector<double>& p) {
    return std::sin(p[0]) * std::exp(p[1]);
  };
  const std::vector<double> x{0.6, -0.3};
  const auto g = m::numeric_gradient(f, x);
  EXPECT_NEAR(g[0], std::cos(0.6) * std::exp(-0.3), 1e-7);
  EXPECT_NEAR(g[1], std::sin(0.6) * std::exp(-0.3), 1e-7);
}

TEST(NumericHessian, MatchesAnalyticAndIsSymmetric) {
  auto f = [](const std::vector<double>& p) {
    return p[0] * p[0] * p[1] + 3.0 * p[1] * p[1];
  };
  const std::vector<double> x{2.0, 1.5};
  const auto h = m::numeric_hessian(f, x);
  EXPECT_NEAR(h[0], 2.0 * 1.5, 1e-4);  // d2/dx2 = 2y
  EXPECT_NEAR(h[1], 2.0 * 2.0, 1e-4);  // d2/dxdy = 2x
  EXPECT_NEAR(h[3], 6.0, 1e-4);        // d2/dy2
  EXPECT_DOUBLE_EQ(h[1], h[2]);
}

}  // namespace
