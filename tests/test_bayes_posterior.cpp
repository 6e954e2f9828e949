// Priors and the factorized unnormalized log posterior.
#include <gtest/gtest.h>

#include <cmath>

#include "bayes/posterior.hpp"
#include "bayes/prior.hpp"
#include "data/datasets.hpp"
#include "nhpp/likelihood.hpp"

namespace b = vbsrm::bayes;
namespace d = vbsrm::data;
namespace n = vbsrm::nhpp;

namespace {

TEST(GammaPrior, FromMeanSdMatchesMoments) {
  const auto p = b::GammaPrior::from_mean_sd(50.0, 15.8);
  EXPECT_NEAR(p.mean(), 50.0, 1e-10);
  EXPECT_NEAR(p.sd(), 15.8, 1e-10);
  // Paper's Info prior on omega: shape ~ (50/15.8)^2 ~ 10.01.
  EXPECT_NEAR(p.shape, 10.0140, 1e-3);
}

TEST(GammaPrior, LogDensityNormalizes) {
  const auto p = b::GammaPrior::from_mean_sd(2.0, 1.0);
  // Integrate exp(log_density) over a wide range by Riemann sum.
  double mass = 0.0;
  const double dx = 1e-3;
  for (double x = dx / 2; x < 40.0; x += dx) {
    mass += std::exp(p.log_density(x)) * dx;
  }
  EXPECT_NEAR(mass, 1.0, 1e-4);
}

TEST(GammaPrior, FlatBehaviour) {
  const auto f = b::GammaPrior::flat();
  EXPECT_TRUE(f.is_flat());
  EXPECT_DOUBLE_EQ(f.log_density(0.5), 0.0);
  EXPECT_DOUBLE_EQ(f.log_density(1e9), 0.0);
  EXPECT_TRUE(std::isinf(f.log_density(-1.0)));
  EXPECT_TRUE(std::isinf(f.mean()));
}

TEST(GammaPrior, RejectsBadMeanSd) {
  EXPECT_THROW(b::GammaPrior::from_mean_sd(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(b::GammaPrior::from_mean_sd(1.0, -1.0), std::invalid_argument);
}

TEST(LogPosterior, FlatPriorEqualsLogLikelihoodUpToConstant) {
  const auto dt = d::datasets::system17_failure_times();
  b::LogPosterior post(1.0, dt, b::PriorPair::flat());
  for (double omega : {30.0, 44.0, 60.0}) {
    for (double beta : {8e-6, 1.26e-5, 2e-5}) {
      EXPECT_NEAR(post(omega, beta),
                  n::log_likelihood_at(1.0, omega, beta, dt), 1e-9);
    }
  }
}

TEST(LogPosterior, InfoPriorAddsLogPriorDensities) {
  const auto dt = d::datasets::system17_failure_times();
  const b::PriorPair info{b::GammaPrior::from_mean_sd(50.0, 15.8),
                          b::GammaPrior::from_mean_sd(1e-5, 3.2e-6)};
  b::LogPosterior post(1.0, dt, info);
  const double omega = 44.0, beta = 1.2e-5;
  EXPECT_NEAR(post(omega, beta),
              n::log_likelihood_at(1.0, omega, beta, dt) +
                  info.omega.log_density(omega) + info.beta.log_density(beta),
              1e-9);
}

TEST(LogPosterior, FactorizationReassembles) {
  const auto dg = d::datasets::system17_grouped();
  const b::PriorPair info{b::GammaPrior::from_mean_sd(50.0, 15.8),
                          b::GammaPrior::from_mean_sd(3.3e-2, 1.1e-2)};
  b::LogPosterior post(1.0, dg, info);
  const double omega = 48.0, beta = 2.6e-2;
  const double assembled = info.omega.log_density(omega) +
                           info.beta.log_density(beta) +
                           post.beta_term(beta) +
                           static_cast<double>(post.failures()) *
                               std::log(omega) -
                           omega * post.exposure(beta);
  EXPECT_NEAR(post(omega, beta), assembled, 1e-10);
}

TEST(LogPosterior, GroupedMatchesLikelihoodUpToCountConstants) {
  // Eq. (5) has -sum log x_i! terms that the factorized posterior drops;
  // the difference must be constant in (omega, beta).
  const auto dg = d::datasets::system17_grouped();
  b::LogPosterior post(1.0, dg, b::PriorPair::flat());
  const double d1 = post(40.0, 2e-2) - n::log_likelihood_at(1.0, 40.0, 2e-2, dg);
  const double d2 = post(60.0, 4e-2) - n::log_likelihood_at(1.0, 60.0, 4e-2, dg);
  EXPECT_NEAR(d1, d2, 1e-9);
}

TEST(LogPosterior, OffDomainIsMinusInfinity) {
  const auto dt = d::datasets::system17_failure_times();
  b::LogPosterior post(1.0, dt, b::PriorPair::flat());
  EXPECT_TRUE(std::isinf(post(0.0, 1e-5)));
  EXPECT_TRUE(std::isinf(post(10.0, -1e-5)));
}

TEST(LogPosterior, ExposureIsFailureLawCdf) {
  const auto dt = d::datasets::system17_failure_times();
  b::LogPosterior post(2.0, dt, b::PriorPair::flat());
  const vbsrm::nhpp::GammaFailureLaw law{2.0};
  EXPECT_NEAR(post.exposure(1e-5), law.cdf(dt.observation_end(), 1e-5),
              1e-14);
  EXPECT_EQ(post.failures(), 38u);
  EXPECT_DOUBLE_EQ(post.horizon(), 160000.0);
}

}  // namespace
