// Special-function accuracy: values checked against high-precision
// references (Mathematica/Wolfram values quoted to >= 12 digits) and
// against internal identities.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "math/specfun.hpp"

namespace m = vbsrm::math;

namespace {

constexpr double kTight = 1e-12;

TEST(LogGamma, MatchesKnownValues) {
  EXPECT_NEAR(m::log_gamma(1.0), 0.0, kTight);
  EXPECT_NEAR(m::log_gamma(2.0), 0.0, kTight);
  EXPECT_NEAR(m::log_gamma(0.5), 0.5723649429247001, 1e-13);
  EXPECT_NEAR(m::log_gamma(5.0), 3.1780538303479458, 1e-13);
  EXPECT_NEAR(m::log_gamma(10.5), 13.940625219403763, 1e-12);
  EXPECT_NEAR(m::log_gamma(171.0), 706.5730622457874, 1e-9);
}

TEST(LogGamma, AgreesWithStdLgamma) {
  for (double z : {0.1, 0.3, 0.7, 1.5, 3.25, 12.0, 100.0, 1234.5}) {
    EXPECT_NEAR(m::log_gamma(z), std::lgamma(z),
                1e-12 * std::max(1.0, std::abs(std::lgamma(z))))
        << "z=" << z;
  }
}

TEST(LogGamma, RecurrenceIdentity) {
  // log Gamma(z+1) = log Gamma(z) + log z.
  for (double z = 0.2; z < 50.0; z *= 1.7) {
    EXPECT_NEAR(m::log_gamma(z + 1.0), m::log_gamma(z) + std::log(z),
                1e-11 * std::max(1.0, std::abs(m::log_gamma(z))))
        << "z=" << z;
  }
}

TEST(LogGamma, InvalidInputs) {
  EXPECT_TRUE(std::isnan(m::log_gamma(0.0)));
  EXPECT_TRUE(std::isnan(m::log_gamma(-1.5)));
}

TEST(Digamma, MatchesKnownValues) {
  // psi(1) = -gamma_E
  EXPECT_NEAR(m::digamma(1.0), -0.5772156649015329, 1e-13);
  EXPECT_NEAR(m::digamma(0.5), -1.9635100260214235, 1e-12);
  EXPECT_NEAR(m::digamma(2.0), 0.4227843350984671, 1e-13);
  EXPECT_NEAR(m::digamma(10.0), 2.2517525890667211, 1e-12);
  EXPECT_NEAR(m::digamma(100.0), 4.600161852738087, 1e-12);
}

TEST(Digamma, RecurrenceIdentity) {
  // psi(x+1) = psi(x) + 1/x.
  for (double x = 0.05; x < 200.0; x *= 2.3) {
    EXPECT_NEAR(m::digamma(x + 1.0), m::digamma(x) + 1.0 / x, 1e-11)
        << "x=" << x;
  }
}

TEST(Digamma, IsDerivativeOfLogGamma) {
  for (double x : {0.7, 1.5, 4.0, 25.0}) {
    const double h = 1e-6 * x;
    const double numeric =
        (m::log_gamma(x + h) - m::log_gamma(x - h)) / (2.0 * h);
    EXPECT_NEAR(m::digamma(x), numeric, 1e-7) << "x=" << x;
  }
}

TEST(GammaP, MatchesKnownValues) {
  // P(1, x) = 1 - e^{-x}.
  for (double x : {0.1, 1.0, 3.0, 10.0}) {
    EXPECT_NEAR(m::gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-14);
  }
  // P(0.5, x) = erf(sqrt(x)).
  for (double x : {0.25, 1.0, 4.0}) {
    EXPECT_NEAR(m::gamma_p(0.5, x), std::erf(std::sqrt(x)), 1e-13);
  }
  // Wolfram: GammaRegularized[3, 0, 2.5] = 0.45618688...
  EXPECT_NEAR(m::gamma_p(3.0, 2.5), 0.4561868841166060, 1e-12);
  EXPECT_NEAR(m::gamma_p(10.0, 10.0), 0.5420702855281478, 1e-12);
}

TEST(GammaQ, ComplementsGammaP) {
  for (double a : {0.3, 1.0, 2.0, 7.5, 40.0}) {
    for (double x : {0.01, 0.5, 1.0, 5.0, 25.0, 90.0}) {
      EXPECT_NEAR(m::gamma_p(a, x) + m::gamma_q(a, x), 1.0, 1e-13)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(GammaQ, DeepTailLogAccuracy) {
  // Q(1, x) = e^{-x}: log form must stay exact far beyond underflow.
  EXPECT_NEAR(m::log_gamma_q(1.0, 800.0), -800.0, 1e-9);
  EXPECT_NEAR(m::log_gamma_q(1.0, 5000.0), -5000.0, 1e-8);
  // Q(2, x) = (1+x) e^{-x}.
  const double x = 300.0;
  EXPECT_NEAR(m::log_gamma_q(2.0, x), -x + std::log1p(x), 1e-9);
}

TEST(GammaP, BoundaryBehaviour) {
  EXPECT_EQ(m::gamma_p(2.0, 0.0), 0.0);
  EXPECT_EQ(m::gamma_q(2.0, 0.0), 1.0);
  EXPECT_TRUE(std::isnan(m::gamma_p(-1.0, 1.0)));
  EXPECT_TRUE(std::isnan(m::gamma_p(2.0, -0.5)));
}

TEST(GammaP, MonotoneInX) {
  double prev = -1.0;
  for (double x = 0.0; x < 30.0; x += 0.37) {
    const double p = m::gamma_p(4.2, x);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(InvGammaP, RoundTripsAcrossShapes) {
  for (double a : {0.4, 1.0, 2.0, 9.77, 48.0, 500.0}) {
    for (double p : {1e-8, 0.005, 0.1, 0.5, 0.9, 0.995, 1.0 - 1e-8}) {
      const double x = m::inv_gamma_p(a, p);
      EXPECT_NEAR(m::gamma_p(a, x), p, 1e-10)
          << "a=" << a << " p=" << p << " x=" << x;
    }
  }
}

TEST(InvGammaP, Boundaries) {
  EXPECT_EQ(m::inv_gamma_p(3.0, 0.0), 0.0);
  EXPECT_TRUE(std::isinf(m::inv_gamma_p(3.0, 1.0)));
  EXPECT_TRUE(std::isnan(m::inv_gamma_p(3.0, -0.1)));
}

TEST(NormalCdf, SymmetryAndKnownValues) {
  EXPECT_NEAR(m::normal_cdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(m::normal_cdf(1.959963984540054), 0.975, 1e-12);
  EXPECT_NEAR(m::normal_cdf(-1.0) + m::normal_cdf(1.0), 1.0, 1e-14);
}

TEST(NormalQuantile, RoundTrips) {
  for (double p : {1e-10, 1e-5, 0.005, 0.025, 0.5, 0.975, 0.995, 1 - 1e-6}) {
    EXPECT_NEAR(m::normal_cdf(m::normal_quantile(p)), p,
                1e-12 * std::max(p, 1e-3))
        << "p=" << p;
  }
  EXPECT_NEAR(m::normal_quantile(0.975), 1.959963984540054, 1e-9);
}

TEST(LogSumExp, HandlesExtremeRanges) {
  const std::vector<double> v{-1000.0, -1000.0};
  EXPECT_NEAR(m::log_sum_exp(v), -1000.0 + std::log(2.0), 1e-12);
  const std::vector<double> w{0.0, -800.0};
  EXPECT_NEAR(m::log_sum_exp(w), 0.0, 1e-12);
  EXPECT_TRUE(std::isinf(m::log_sum_exp(std::vector<double>{})));
}

TEST(NormalizeLogWeights, SumsToOne) {
  std::vector<double> v{-700.0, -701.0, -705.0, -800.0};
  m::normalize_log_weights(v);
  double s = 0.0;
  for (double x : v) s += x;
  EXPECT_NEAR(s, 1.0, 1e-12);
  EXPECT_GT(v[0], v[1]);
  EXPECT_GT(v[1], v[2]);
}

TEST(Log1mExp, StableAtBothEnds) {
  // log(1 - e^{-1e-12}) ~ log(1e-12).
  EXPECT_NEAR(m::log1m_exp(-1e-12), std::log(1e-12), 1e-3);
  // log(1 - e^{-50}) ~ -e^{-50}.
  EXPECT_NEAR(m::log1m_exp(-50.0), -std::exp(-50.0), 1e-25);
  EXPECT_TRUE(std::isinf(m::log1m_exp(0.0)));
}

// Property sweep: P(a, .) is a valid CDF in x for many shapes.
class GammaPShapeSweep : public ::testing::TestWithParam<double> {};

TEST_P(GammaPShapeSweep, ValidCdf) {
  const double a = GetParam();
  double prev = 0.0;
  for (double x = 0.0; x <= 8.0 * a + 20.0; x += 0.25 * (a + 1.0)) {
    const double p = m::gamma_p(a, x);
    EXPECT_GE(p, prev - 1e-14);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
  EXPECT_GT(m::gamma_p(a, 40.0 * (a + 2.0)), 0.999);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GammaPShapeSweep,
                         ::testing::Values(0.25, 0.5, 1.0, 2.0, 5.0, 9.77,
                                           38.0, 150.0, 1000.0));

// Property sweep: inverse round trip across (shape, p) grid.
class InvGammaSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(InvGammaSweep, RoundTrip) {
  const auto [a, p] = GetParam();
  const double x = m::inv_gamma_p(a, p);
  EXPECT_NEAR(m::gamma_p(a, x), p, 5e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, InvGammaSweep,
    ::testing::Combine(::testing::Values(0.5, 1.0, 3.3, 11.0, 77.0),
                       ::testing::Values(0.001, 0.005, 0.025, 0.5, 0.975,
                                         0.995, 0.999)));

TEST(GammaPQ, PairMatchesSeparateEvaluations) {
  // The pair kernel shares one series/CF evaluation between P and Q; on
  // its native side of the x = a+1 split it reproduces gamma_p/gamma_q
  // exactly, and the complement is accurate to absolute ~1e-16 (full
  // relative accuracy wherever the complement is O(1)).
  for (double a : {0.5, 1.0, 2.0, 3.3, 11.0, 77.0, 500.0}) {
    for (double ratio : {0.05, 0.5, 0.9, 1.0, 1.1, 2.0, 5.0}) {
      const double x = a * ratio;
      const auto pq = m::gamma_pq(a, x);
      // The scalar calls go through log space, whose own relative error
      // grows with the exponent magnitude |a log x - x - lgamma(a)|
      // (~eps * magnitude, e.g. ~6e-13 at a = 500); the bound below is
      // that scalar-path error, not the pair kernel's.
      EXPECT_NEAR(pq.p, m::gamma_p(a, x), 1e-12) << "a=" << a << " x=" << x;
      EXPECT_NEAR(pq.q, m::gamma_q(a, x), 1e-12) << "a=" << a << " x=" << x;
      // The pair is a complement by construction (one rounding).
      EXPECT_DOUBLE_EQ(pq.p + pq.q, 1.0);
      // The natively computed member keeps full relative accuracy.
      if (x < a + 1.0) {
        EXPECT_NEAR(pq.p, m::gamma_p(a, x), 1e-11 * std::max(pq.p, 1e-300));
      } else {
        EXPECT_NEAR(pq.q, m::gamma_q(a, x), 1e-11 * std::max(pq.q, 1e-300));
      }
    }
  }
}

TEST(GammaPQ, CachedFormMatchesPlainForm) {
  for (double a : {1.0, 2.7, 40.0}) {
    for (double x : {0.3, 5.0, 42.0, 300.0}) {
      const auto plain = m::gamma_pq(a, x);
      const auto cached =
          m::gamma_pq_cached(a, x, std::log(x), m::log_gamma(a));
      EXPECT_EQ(plain.p, cached.p);
      EXPECT_EQ(plain.q, cached.q);
    }
  }
}

TEST(GammaPQ, EdgeCases) {
  const auto zero = m::gamma_pq(2.0, 0.0);
  EXPECT_EQ(zero.p, 0.0);
  EXPECT_EQ(zero.q, 1.0);
  const auto bad = m::gamma_pq(-1.0, 2.0);
  EXPECT_TRUE(std::isnan(bad.p));
  EXPECT_TRUE(std::isnan(bad.q));
  // Deep right tail: P saturates at 1, Q underflows linearly but stays
  // nonnegative.
  const auto tail = m::gamma_pq(1.0, 700.0);
  EXPECT_EQ(tail.p, 1.0);
  EXPECT_GE(tail.q, 0.0);
}

}  // namespace
