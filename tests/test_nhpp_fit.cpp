// Likelihoods and point estimation (EM vs direct MLE) on synthetic data
// with known truth and on the bundled datasets.
#include <gtest/gtest.h>

#include <cmath>

#include "data/datasets.hpp"
#include "data/simulate.hpp"
#include "nhpp/fit.hpp"
#include "nhpp/likelihood.hpp"
#include "random/rng.hpp"

namespace n = vbsrm::nhpp;
namespace d = vbsrm::data;

namespace {

TEST(Likelihood, MatchesHandComputedExponentialCase) {
  // Two failures at t=1, 2, te=3, GO(omega=5, beta=0.5):
  // ll = sum log(beta e^{-beta t}) + 2 log omega - omega (1 - e^{-1.5}).
  d::FailureTimeData ft({1.0, 2.0}, 3.0);
  const auto model = n::goel_okumoto(5.0, 0.5);
  const double expected = (std::log(0.5) - 0.5) + (std::log(0.5) - 1.0) +
                          2.0 * std::log(5.0) -
                          5.0 * (1.0 - std::exp(-1.5));
  EXPECT_NEAR(n::log_likelihood(model, ft), expected, 1e-12);
}

TEST(Likelihood, GroupedMatchesHandComputed) {
  // One interval (0, 2] with 3 failures, GO(omega=4, beta=1).
  d::GroupedData g({2.0}, {3});
  const auto model = n::goel_okumoto(4.0, 1.0);
  const double p1 = 1.0 - std::exp(-2.0);
  const double expected = 3.0 * std::log(p1) + 3.0 * std::log(4.0) -
                          std::log(6.0) - 4.0 * p1;
  EXPECT_NEAR(n::log_likelihood(model, g), expected, 1e-12);
}

TEST(Likelihood, GroupingLosesLittleWhenBinsAreFine) {
  // Finely grouped likelihood surface should rank parameters like the
  // exact one: the MLEs should be close.
  const auto dt = d::datasets::system17_failure_times();
  std::vector<double> bounds;
  for (int i = 1; i <= 320; ++i) bounds.push_back(500.0 * i);
  const auto dg = dt.to_grouped(bounds);
  const auto fit_t = n::fit_em(1.0, dt);
  const auto fit_g = n::fit_em(1.0, dg);
  EXPECT_NEAR(fit_g.omega, fit_t.omega, 0.05 * fit_t.omega);
  EXPECT_NEAR(fit_g.beta, fit_t.beta, 0.05 * fit_t.beta);
}

TEST(Likelihood, OffDomainIsMinusInfinity) {
  const auto dt = d::datasets::system17_failure_times();
  EXPECT_TRUE(std::isinf(n::log_likelihood_at(1.0, -1.0, 1e-5, dt)));
  EXPECT_TRUE(std::isinf(n::log_likelihood_at(1.0, 10.0, 0.0, dt)));
}

TEST(InformationCriteria, Formulas) {
  EXPECT_DOUBLE_EQ(n::aic(-100.0), 204.0);
}

TEST(FitEm, RecoversTruthOnLargeSample) {
  vbsrm::random::Rng rng(12);
  const auto ft = d::simulate_gamma_nhpp(rng, 600.0, 1.0, 2e-3, 3000.0);
  const auto fit = n::fit_em(1.0, ft);
  EXPECT_TRUE(fit.converged);
  EXPECT_NEAR(fit.omega, 600.0, 60.0);
  EXPECT_NEAR(fit.beta, 2e-3, 3e-4);
}

TEST(FitEm, MonotoneLikelihoodAscent) {
  const auto dt = d::datasets::system17_failure_times();
  // Run EM step by step via successively larger iteration budgets and
  // check the likelihood never decreases.
  double prev = -1e300;
  for (int iters : {1, 2, 3, 5, 10, 20, 50}) {
    n::FitOptions opt;
    opt.max_iterations = iters;
    opt.rel_tol = 0.0;  // force exactly `iters` iterations
    opt.compute_covariance = false;
    const auto fit = n::fit_em(1.0, dt, opt);
    EXPECT_GE(fit.log_likelihood, prev - 1e-9) << "iters=" << iters;
    prev = fit.log_likelihood;
  }
}

TEST(FitEm, AgreesWithDirectOptimizer) {
  const auto dt = d::datasets::system17_failure_times();
  const auto em = n::fit_em(1.0, dt);
  const auto direct = n::fit_direct(1.0, dt);
  EXPECT_NEAR(em.omega, direct.omega, 1e-3 * direct.omega);
  EXPECT_NEAR(em.beta, direct.beta, 1e-3 * direct.beta);
  EXPECT_NEAR(em.log_likelihood, direct.log_likelihood, 1e-6);
}

TEST(FitEm, GroupedAgreesWithDirectOptimizer) {
  const auto dg = d::datasets::system17_grouped();
  const auto em = n::fit_em(1.0, dg);
  const auto direct = n::fit_direct(1.0, dg);
  EXPECT_NEAR(em.omega, direct.omega, 2e-3 * direct.omega);
  EXPECT_NEAR(em.beta, direct.beta, 2e-3 * direct.beta);
}

TEST(FitEm, DelayedSShapedOnMatchingData) {
  vbsrm::random::Rng rng(13);
  const auto ft = d::simulate_gamma_nhpp(rng, 400.0, 2.0, 4e-3, 2500.0);
  const auto fit = n::fit_em(2.0, ft);
  EXPECT_TRUE(fit.converged);
  EXPECT_NEAR(fit.omega, 400.0, 60.0);
  EXPECT_NEAR(fit.beta, 4e-3, 8e-4);
}

TEST(FitEm, CovarianceIsPlausible) {
  const auto dt = d::datasets::system17_failure_times();
  const auto fit = n::fit_em(1.0, dt);
  ASSERT_TRUE(fit.covariance.has_value());
  const auto& c = *fit.covariance;
  EXPECT_GT(c(0, 0), 0.0);
  EXPECT_GT(c(1, 1), 0.0);
  // omega and beta are negatively correlated in this family.
  EXPECT_LT(c(0, 1), 0.0);
  // Correlation bounded by 1.
  EXPECT_LT(c(0, 1) * c(0, 1), c(0, 0) * c(1, 1));
}

TEST(FitEm, RejectsEmptyData) {
  d::FailureTimeData empty({}, 10.0);
  EXPECT_THROW(n::fit_em(1.0, empty), std::invalid_argument);
}

TEST(FitEm, ModelSelectionPrefersGeneratingFamily) {
  // Data from a DSS process should get a better AIC under alpha0=2 than
  // alpha0=1, and vice versa.
  vbsrm::random::Rng rng(14);
  const auto dss_data = d::simulate_gamma_nhpp(rng, 500.0, 2.0, 3e-3, 3000.0);
  const double aic_dss = n::aic(n::fit_em(2.0, dss_data).log_likelihood);
  const double aic_go = n::aic(n::fit_em(1.0, dss_data).log_likelihood);
  EXPECT_LT(aic_dss, aic_go);
}

TEST(FitDirect, StartOverrideRespected) {
  const auto dt = d::datasets::system17_failure_times();
  n::FitOptions opt;
  opt.start = {{40.0, 1.2e-5}};
  const auto fit = n::fit_direct(1.0, dt, opt);
  EXPECT_NEAR(fit.omega, 43.6, 1.0);  // same optimum from a good start
}

TEST(DefaultStart, SensibleScales) {
  const auto [omega, beta] = n::default_start(2.0, 38, 160000.0);
  EXPECT_NEAR(omega, 1.3 * 38.0, 1e-9);
  EXPECT_GT(beta, 0.0);
  EXPECT_NEAR(2.0 / beta, 0.6 * 160000.0, 1.0);
}

}  // namespace
