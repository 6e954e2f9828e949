// NINT grid estimator: validated against a conjugate case with an exact
// closed-form posterior, plus internal consistency of quantiles and
// reliability functionals.
//
// The conjugate construction: for the Goel-Okumoto model with *known*
// beta the posterior of omega is exactly Gamma(m_w + m, phi_w + G(te)).
// We cannot freeze beta inside NintEstimator, but we can make the beta
// prior extremely concentrated so the joint posterior factorizes to
// numerical precision — a strong end-to-end oracle for grid moments and
// quantiles.
#include <gtest/gtest.h>

#include <cmath>

#include "bayes/nint.hpp"
#include "data/datasets.hpp"
#include "math/specfun.hpp"

namespace b = vbsrm::bayes;
namespace d = vbsrm::data;
namespace m = vbsrm::math;

namespace {

b::PriorPair info_priors_dt() {
  return {b::GammaPrior::from_mean_sd(50.0, 15.8),
          b::GammaPrior::from_mean_sd(1e-5, 3.2e-6)};
}

TEST(Box, FromQuantilesAppliesPaperRule) {
  const auto box = b::Box::from_quantiles(30.0, 70.0, 6e-6, 1.8e-5);
  EXPECT_DOUBLE_EQ(box.omega_lo, 15.0);
  EXPECT_DOUBLE_EQ(box.omega_hi, 105.0);
  EXPECT_DOUBLE_EQ(box.beta_lo, 3e-6);
  EXPECT_DOUBLE_EQ(box.beta_hi, 2.7e-5);
}

TEST(Nint, RejectsBadBox) {
  const auto dt = d::datasets::system17_failure_times();
  b::LogPosterior post(1.0, dt, info_priors_dt());
  EXPECT_THROW(b::NintEstimator(post, {10.0, 5.0, 1e-6, 1e-5}),
               std::invalid_argument);
}

class NintConjugateOracle : public ::testing::Test {
 protected:
  void SetUp() override {
    dt_.emplace(d::datasets::system17_failure_times());
    // Nearly-degenerate beta prior at beta0: sd 0.01% of the mean.
    const double beta0 = 1.26e-5;
    priors_ = {b::GammaPrior::from_mean_sd(50.0, 15.8),
               b::GammaPrior::from_mean_sd(beta0, beta0 * 1e-4)};
    post_.emplace(1.0, *dt_, priors_);
    const double g_te = post_->exposure(beta0);
    shape_ = priors_.omega.shape + 38.0;
    rate_ = priors_.omega.rate + g_te;
    b::Box box{m::inv_gamma_p(shape_, 1e-8) / rate_,
               m::inv_gamma_p(shape_, 1.0 - 1e-8) / rate_,
               beta0 * (1.0 - 8e-4), beta0 * (1.0 + 8e-4)};
    nint_.emplace(*post_, box, b::NintOptions{64, 8});
  }

  std::optional<d::FailureTimeData> dt_;
  b::PriorPair priors_;
  std::optional<b::LogPosterior> post_;
  std::optional<b::NintEstimator> nint_;
  double shape_ = 0.0, rate_ = 0.0;
};

TEST_F(NintConjugateOracle, MomentsMatchClosedForm) {
  const auto s = nint_->summary();
  EXPECT_NEAR(s.mean_omega, shape_ / rate_, 1e-4 * shape_ / rate_);
  EXPECT_NEAR(s.var_omega, shape_ / (rate_ * rate_),
              1e-3 * shape_ / (rate_ * rate_));
  EXPECT_NEAR(s.mean_beta, 1.26e-5, 1e-8);
}

TEST_F(NintConjugateOracle, QuantilesMatchGammaQuantiles) {
  for (double p : {0.005, 0.025, 0.5, 0.975, 0.995}) {
    const double exact = m::inv_gamma_p(shape_, p) / rate_;
    EXPECT_NEAR(nint_->quantile_omega(p), exact, 2e-3 * exact) << "p=" << p;
  }
}

TEST_F(NintConjugateOracle, ReliabilityPointMatchesClosedForm) {
  // With beta pinned, E[e^{-omega h}] = (rate/(rate+h))^shape.
  const double u = 1000.0;
  const vbsrm::nhpp::GammaFailureLaw law{1.0};
  const double h = law.interval_mass(160000.0, 160000.0 + u, 1.26e-5);
  const double exact = std::pow(rate_ / (rate_ + h), shape_);
  EXPECT_NEAR(nint_->reliability_point(u), exact, 2e-4);
}

TEST_F(NintConjugateOracle, ReliabilityQuantileRoundTrips) {
  const double u = 1000.0;
  const double q = nint_->reliability_quantile(0.25, u);
  EXPECT_NEAR(nint_->reliability_cdf(q, u), 0.25, 5e-3);
  // And against the closed form: R_q solves P(omega >= -ln q / h) = ...
  const vbsrm::nhpp::GammaFailureLaw law{1.0};
  const double h = law.interval_mass(160000.0, 160000.0 + u, 1.26e-5);
  // P(R <= x) = Q(shape, rate * (-ln x)/h) = 0.25
  // => -ln x = h/rate * invQ. invQ at 0.25 == invP at 0.75.
  const double cut = m::inv_gamma_p(shape_, 0.75);
  const double exact = std::exp(-cut / rate_ * h);
  EXPECT_NEAR(q, exact, 2e-3);
}

TEST(Nint, IntervalBracketsAreOrdered) {
  const auto dt = d::datasets::system17_failure_times();
  b::LogPosterior post(1.0, dt, info_priors_dt());
  b::NintEstimator nint(post, {15.0, 110.0, 2e-6, 3e-5});
  const auto io = nint.interval_omega(0.99);
  EXPECT_LT(io.lower, io.upper);
  const auto s = nint.summary();
  EXPECT_GT(s.mean_omega, io.lower);
  EXPECT_LT(s.mean_omega, io.upper);
  const auto ib = nint.interval_beta(0.95);
  EXPECT_LT(ib.lower, s.mean_beta);
  EXPECT_GT(ib.upper, s.mean_beta);
}

TEST(Nint, MarginalsIntegrateToOne) {
  const auto dt = d::datasets::system17_failure_times();
  b::LogPosterior post(1.0, dt, info_priors_dt());
  const b::Box box{15.0, 110.0, 2e-6, 3e-5};
  b::NintEstimator nint(post, box);
  // The normalized marginals are proper distributions on the box: their
  // quantile functions rise monotonically and stay inside it.
  double prev_omega = box.omega_lo, prev_beta = box.beta_lo;
  for (const double p : {0.001, 0.25, 0.5, 0.75, 0.999}) {
    const double qo = nint.quantile_omega(p);
    const double qb = nint.quantile_beta(p);
    EXPECT_GE(qo, prev_omega) << p;
    EXPECT_GE(qb, prev_beta) << p;
    prev_omega = qo;
    prev_beta = qb;
  }
  EXPECT_LE(prev_omega, box.omega_hi);
  EXPECT_LE(prev_beta, box.beta_hi);
  EXPECT_LT(nint.quantile_omega(0.25), nint.quantile_omega(0.75));
}

TEST(Nint, JointDensityPeaksNearPosteriorMode) {
  const auto dt = d::datasets::system17_failure_times();
  b::LogPosterior post(1.0, dt, info_priors_dt());
  b::NintEstimator nint(post, {15.0, 110.0, 2e-6, 3e-5});
  const auto s = nint.summary();
  const double at_mean = nint.joint_density(s.mean_omega, s.mean_beta);
  const double far = nint.joint_density(100.0, 2.8e-5);
  EXPECT_GT(at_mean, 50.0 * far);
}

TEST(Nint, ReliabilityCdfMonotoneInX) {
  const auto dt = d::datasets::system17_failure_times();
  b::LogPosterior post(1.0, dt, info_priors_dt());
  b::NintEstimator nint(post, {15.0, 110.0, 2e-6, 3e-5});
  double prev = -1.0;
  for (double x = 0.05; x < 1.0; x += 0.05) {
    const double c = nint.reliability_cdf(x, 10000.0);
    EXPECT_GE(c, prev - 1e-9) << "x=" << x;
    prev = c;
  }
  EXPECT_DOUBLE_EQ(nint.reliability_cdf(0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(nint.reliability_cdf(1.0, 1.0), 1.0);
}

}  // namespace
