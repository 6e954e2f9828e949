// Descriptive statistics, quantiles, diagnostics, histograms, GOF tests.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "math/specfun.hpp"
#include "random/distributions.hpp"
#include "random/rng.hpp"
#include "stats/descriptive.hpp"
#include "stats/diagnostics.hpp"
#include "stats/gof.hpp"
#include "stats/histogram.hpp"
#include "stats/quantiles.hpp"

namespace s = vbsrm::stats;
namespace r = vbsrm::random;

namespace {

TEST(Descriptive, MeanVarCovKnown) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_DOUBLE_EQ(s::mean(x), 3.0);
  EXPECT_DOUBLE_EQ(s::variance(x), 2.5);
  EXPECT_DOUBLE_EQ(s::covariance(x, y), 5.0);
}

TEST(Descriptive, SkewnessSigns) {
  const std::vector<double> right{1, 1, 1, 2, 10};
  const std::vector<double> sym{-2, -1, 0, 1, 2};
  EXPECT_GT(s::skewness(right), 0.5);
  EXPECT_NEAR(s::skewness(sym), 0.0, 1e-12);
}

TEST(Descriptive, ErrorsOnDegenerateInput) {
  EXPECT_THROW(s::mean(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(s::variance(std::vector<double>{1.0}), std::invalid_argument);
  EXPECT_THROW(s::covariance(std::vector<double>{1.0, 2.0},
                             std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(Descriptive, SummaryFields) {
  const std::vector<double> x{3, 1, 4, 1, 5};
  const auto sm = s::summarize(x);
  EXPECT_EQ(sm.n, 5u);
  EXPECT_DOUBLE_EQ(sm.min, 1.0);
  EXPECT_DOUBLE_EQ(sm.max, 5.0);
  EXPECT_NEAR(sm.sd * sm.sd, sm.variance, 1e-14);
}

TEST(Quantiles, OrderStatisticRuleMatchesPaper) {
  // The paper: lower bound of 95% CI from 20000 samples = 500th smallest.
  std::vector<double> x(20000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<double>(i + 1);  // values 1..20000
  }
  EXPECT_DOUBLE_EQ(s::order_statistic_quantile(x, 0.025), 500.0);
  EXPECT_DOUBLE_EQ(s::order_statistic_quantile(x, 0.975), 19500.0);
  EXPECT_DOUBLE_EQ(s::order_statistic_quantile(x, 1.0), 20000.0);
}

TEST(Diagnostics, AutocorrelationOfIidIsNearZero) {
  r::Rng g(61);
  std::vector<double> x;
  for (int i = 0; i < 20000; ++i) x.push_back(r::sample_normal(g));
  const auto rho = s::autocorrelation(x, 5);
  EXPECT_DOUBLE_EQ(rho[0], 1.0);
  for (int k = 1; k <= 5; ++k) EXPECT_NEAR(rho[k], 0.0, 0.03);
}

TEST(Diagnostics, AutocorrelationOfAR1) {
  // AR(1) with phi = 0.8: rho(k) ~ 0.8^k.
  r::Rng g(62);
  std::vector<double> x{0.0};
  for (int i = 1; i < 50000; ++i) {
    x.push_back(0.8 * x.back() + r::sample_normal(g));
  }
  const auto rho = s::autocorrelation(x, 3);
  EXPECT_NEAR(rho[1], 0.8, 0.03);
  EXPECT_NEAR(rho[2], 0.64, 0.04);
}

TEST(Diagnostics, EssSmallerForCorrelatedChain) {
  r::Rng g(63);
  std::vector<double> iid, ar;
  double prev = 0.0;
  for (int i = 0; i < 20000; ++i) {
    iid.push_back(r::sample_normal(g));
    prev = 0.9 * prev + r::sample_normal(g);
    ar.push_back(prev);
  }
  EXPECT_GT(s::effective_sample_size(iid), 15000.0);
  EXPECT_LT(s::effective_sample_size(ar), 4000.0);
}

TEST(Histogram1D, CountsAndDensityNormalize) {
  s::Histogram1D h(0.0, 10.0, 10);
  for (int i = 0; i < 1000; ++i) h.add(0.01 * i);  // fills [0,10)
  EXPECT_EQ(h.total(), 1000u);
  double mass = 0.0;
  for (int b = 0; b < h.bins(); ++b) mass += h.density(b) * 1.0;
  EXPECT_NEAR(mass, 1.0, 1e-12);
}

TEST(Histogram1D, DropsOutOfRange) {
  s::Histogram1D h(0.0, 1.0, 4);
  h.add(-0.5);
  h.add(1.5);
  h.add(0.5);
  EXPECT_EQ(h.total(), 1u);
}

TEST(Histogram2D, CsvAndDensity) {
  s::Histogram2D h(0.0, 1.0, 2, 0.0, 1.0, 2);
  h.add(0.25, 0.25);
  h.add(0.75, 0.75);
  h.add(0.75, 0.80);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.count(1, 1), 2u);
  const auto csv = h.to_csv();
  EXPECT_NE(csv.find("x,y,density"), std::string::npos);
}

TEST(AsciiContour, RendersNonEmpty) {
  std::vector<std::vector<double>> grid(10, std::vector<double>(20, 0.0));
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 20; ++j) {
      const double dx = (i - 5.0) / 2.0, dy = (j - 10.0) / 4.0;
      grid[i][j] = std::exp(-0.5 * (dx * dx + dy * dy));
    }
  }
  const auto art = s::ascii_contour(grid);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 10);
  EXPECT_NE(art.find('@'), std::string::npos);
}

TEST(KsTest, AcceptsCorrectNull) {
  r::Rng g(71);
  std::vector<double> x;
  for (int i = 0; i < 2000; ++i) x.push_back(g.next_double());
  const auto ks = s::ks_test(x, [](double t) {
    return std::clamp(t, 0.0, 1.0);
  });
  EXPECT_GT(ks.p_value, 0.001);
  EXPECT_LT(ks.statistic, 0.05);
}

TEST(KsTest, RejectsWrongNull) {
  r::Rng g(72);
  std::vector<double> x;
  for (int i = 0; i < 2000; ++i) x.push_back(r::sample_gamma(g, 1.0, 1.0));
  // Claim: standard normal.  Must reject decisively.
  const auto ks = s::ks_test(x, [](double t) {
    return vbsrm::math::normal_cdf(t);
  });
  EXPECT_LT(ks.p_value, 1e-6);
}

TEST(ChiSquare, AcceptsMatchedCounts) {
  const std::vector<double> obs{48, 52, 95, 105};
  const std::vector<double> expd{50, 50, 100, 100};
  const auto c = s::chi_square_test(obs, expd);
  EXPECT_GT(c.p_value, 0.5);
}

TEST(ChiSquare, RejectsMismatchedCounts) {
  const std::vector<double> obs{10, 90, 150, 50};
  const std::vector<double> expd{75, 75, 75, 75};
  const auto c = s::chi_square_test(obs, expd);
  EXPECT_LT(c.p_value, 1e-6);
}

TEST(ChiSquare, PoolsSmallBins) {
  // Many tiny-expectation bins must be pooled, not inflate the statistic.
  std::vector<double> obs(20, 1.0), expd(20, 1.0);
  const auto c = s::chi_square_test(obs, expd, 0, 5.0);
  EXPECT_LE(c.dof, 4);
  EXPECT_GT(c.p_value, 0.5);
}

TEST(ChiSquareSf, MatchesKnownValues) {
  // P(chi2_1 > 3.841) ~ 0.05.
  EXPECT_NEAR(s::chi_square_sf(3.841458820694124, 1), 0.05, 1e-6);
  EXPECT_NEAR(s::chi_square_sf(0.0, 3), 1.0, 1e-12);
}

}  // namespace
