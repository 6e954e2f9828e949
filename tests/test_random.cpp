// RNG determinism and sampler distributional correctness (moment checks
// with generous tolerances sized to the sample counts, plus KS tests
// against exact CDFs).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "math/specfun.hpp"
#include "random/distributions.hpp"
#include "random/rng.hpp"
#include "stats/descriptive.hpp"
#include "stats/gof.hpp"

namespace r = vbsrm::random;
namespace s = vbsrm::stats;
namespace m = vbsrm::math;

namespace {

TEST(Rng, DeterministicGivenSeed) {
  r::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  r::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, DoublesInHalfOpenUnit) {
  r::Rng g(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = g.next_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NextOpenNeverZero) {
  r::Rng g(7);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(g.next_open(), 0.0);
}

TEST(Rng, NextBelowIsUnbiasedish) {
  r::Rng g(11);
  std::vector<int> counts(5, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) counts[g.next_below(5)]++;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.01);
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  r::Rng g(3);
  r::Rng h = g.split(1);
  r::Rng h2 = g.split(2);
  EXPECT_NE(h.next_u64(), h2.next_u64());
}

TEST(Normal, MomentsAndSymmetry) {
  r::Rng g(103);
  std::vector<double> x;
  for (int i = 0; i < 200000; ++i) x.push_back(r::sample_normal(g));
  EXPECT_NEAR(s::mean(x), 0.0, 0.01);
  EXPECT_NEAR(s::variance(x), 1.0, 0.02);
  EXPECT_NEAR(s::skewness(x), 0.0, 0.03);
}

TEST(Normal, KsAgainstExactCdf) {
  r::Rng g(104);
  std::vector<double> x;
  for (int i = 0; i < 5000; ++i) x.push_back(r::sample_normal(g, 1.0, 2.0));
  const auto ks =
      s::ks_test(x, [](double t) { return m::normal_cdf((t - 1.0) / 2.0); });
  EXPECT_GT(ks.p_value, 1e-3);
}

TEST(Gamma, MomentsAcrossShapes) {
  for (double shape : {0.5, 1.0, 2.0, 9.77, 50.0}) {
    r::Rng g(200 + static_cast<std::uint64_t>(shape * 10));
    const double rate = 3.0;
    std::vector<double> x;
    for (int i = 0; i < 100000; ++i) {
      x.push_back(r::sample_gamma(g, shape, rate));
    }
    EXPECT_NEAR(s::mean(x), shape / rate, 0.03 * shape / rate)
        << "shape=" << shape;
    EXPECT_NEAR(s::variance(x), shape / (rate * rate),
                0.08 * shape / (rate * rate))
        << "shape=" << shape;
  }
}

TEST(Gamma, KsAgainstIncompleteGamma) {
  r::Rng g(210);
  std::vector<double> x;
  for (int i = 0; i < 5000; ++i) x.push_back(r::sample_gamma(g, 2.5, 1.5));
  const auto ks =
      s::ks_test(x, [](double t) { return m::gamma_p(2.5, 1.5 * t); });
  EXPECT_GT(ks.p_value, 1e-3);
}

TEST(Gamma, RejectsBadParams) {
  r::Rng g(1);
  EXPECT_THROW(r::sample_gamma(g, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(r::sample_gamma(g, 1.0, -1.0), std::invalid_argument);
}

TEST(Poisson, SmallMeanMoments) {
  r::Rng g(301);
  std::vector<double> x;
  for (int i = 0; i < 200000; ++i) {
    x.push_back(static_cast<double>(r::sample_poisson(g, 3.2)));
  }
  EXPECT_NEAR(s::mean(x), 3.2, 0.02);
  EXPECT_NEAR(s::variance(x), 3.2, 0.06);
}

TEST(Poisson, LargeMeanMoments) {
  r::Rng g(302);
  std::vector<double> x;
  for (int i = 0; i < 100000; ++i) {
    x.push_back(static_cast<double>(r::sample_poisson(g, 750.0)));
  }
  EXPECT_NEAR(s::mean(x), 750.0, 1.0);
  EXPECT_NEAR(s::variance(x), 750.0, 15.0);
}

TEST(Poisson, ZeroMeanIsZero) {
  r::Rng g(1);
  EXPECT_EQ(r::sample_poisson(g, 0.0), 0u);
  EXPECT_THROW(r::sample_poisson(g, -1.0), std::invalid_argument);
}

TEST(TruncatedGamma, RespectsBoundsInterval) {
  r::Rng g(501);
  for (int i = 0; i < 20000; ++i) {
    const double x = r::sample_truncated_gamma(g, 2.0, 1.0, 1.0, 2.5);
    EXPECT_GT(x, 1.0);
    EXPECT_LE(x, 2.5);
  }
}

TEST(TruncatedGamma, RespectsBoundsTail) {
  r::Rng g(502);
  for (int i = 0; i < 20000; ++i) {
    const double x = r::sample_truncated_gamma(
        g, 1.0, 1.0, 5.0, std::numeric_limits<double>::infinity());
    EXPECT_GT(x, 5.0);
  }
}

TEST(TruncatedGamma, ExponentialTailIsMemoryless) {
  // For shape 1 (exponential), X | X > a  ==  a + Exp(rate).
  r::Rng g(503);
  std::vector<double> x;
  const double a = 3.0, rate = 2.0;
  for (int i = 0; i < 100000; ++i) {
    x.push_back(r::sample_truncated_gamma(
                    g, 1.0, rate, a, std::numeric_limits<double>::infinity()) -
                a);
  }
  EXPECT_NEAR(s::mean(x), 1.0 / rate, 0.01);
  EXPECT_NEAR(s::variance(x), 1.0 / (rate * rate), 0.02);
}

TEST(TruncatedGamma, DeepTailInversionStaysFinite) {
  // Conditioning region carries ~e^{-50} mass: must not hang or return
  // out-of-bounds values.
  r::Rng g(504);
  for (int i = 0; i < 100; ++i) {
    const double x = r::sample_truncated_gamma(
        g, 1.0, 1.0, 50.0, std::numeric_limits<double>::infinity());
    EXPECT_GT(x, 50.0);
    EXPECT_LT(x, 120.0);
    EXPECT_TRUE(std::isfinite(x));
  }
}

TEST(TruncatedGamma, MatchesConditionalMoments) {
  // E[X | a < X <= b] against the closed-form truncated mean.
  r::Rng g(505);
  const double shape = 2.0, rate = 0.7, a = 1.0, b = 4.0;
  std::vector<double> x;
  for (int i = 0; i < 200000; ++i) {
    x.push_back(r::sample_truncated_gamma(g, shape, rate, a, b));
  }
  // E[X; a<X<=b] = shape/rate * (P(shape+1, rate b) - P(shape+1, rate a)).
  const double num = (m::gamma_p(shape + 1.0, rate * b) -
                      m::gamma_p(shape + 1.0, rate * a)) *
                     shape / rate;
  const double den =
      m::gamma_p(shape, rate * b) - m::gamma_p(shape, rate * a);
  EXPECT_NEAR(s::mean(x), num / den, 0.01);
}

TEST(TruncatedGamma, RejectsBadBounds) {
  r::Rng g(1);
  EXPECT_THROW(r::sample_truncated_gamma(g, 1.0, 1.0, 2.0, 2.0),
               std::invalid_argument);
  EXPECT_THROW(r::sample_truncated_gamma(g, 1.0, 1.0, -1.0, 2.0),
               std::invalid_argument);
}

TEST(SampleGammaMany, SizeAndDeterminism) {
  r::Rng g1(9), g2(9);
  const auto a = r::sample_gamma_many(g1, 50, 2.0, 1.0);
  const auto b = r::sample_gamma_many(g2, 50, 2.0, 1.0);
  ASSERT_EQ(a.size(), 50u);
  EXPECT_EQ(a, b);
}

}  // namespace
