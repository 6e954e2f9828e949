// MCMC: Gibbs samplers (both data schemes), chain summaries, and the
// multi-chain R-hat.  Correctness oracles: a conjugate case with known
// posterior and cross-agreement between independent samplers.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "bayes/gibbs.hpp"
#include "bayes/multichain.hpp"
#include "data/datasets.hpp"
#include "data/simulate.hpp"
#include "random/rng.hpp"
#include "math/specfun.hpp"

namespace b = vbsrm::bayes;
namespace d = vbsrm::data;

namespace {

b::PriorPair info_priors_dt() {
  return {b::GammaPrior::from_mean_sd(50.0, 15.8),
          b::GammaPrior::from_mean_sd(1e-5, 3.2e-6)};
}

b::PriorPair info_priors_dg() {
  return {b::GammaPrior::from_mean_sd(50.0, 15.8),
          b::GammaPrior::from_mean_sd(3.3e-2, 1.1e-2)};
}

b::McmcOptions fast_opts(std::uint64_t seed = 99) {
  b::McmcOptions o;
  o.burn_in = 2000;
  o.thin = 2;
  o.samples = 8000;
  o.seed = seed;
  return o;
}

TEST(ChainResult, ValidatesInput) {
  EXPECT_THROW(b::ChainResult({}, {}, 1.0, 10.0, 0), std::invalid_argument);
  EXPECT_THROW(b::ChainResult({1.0}, {1.0, 2.0}, 1.0, 10.0, 0),
               std::invalid_argument);
}

TEST(ChainResult, SummaryAndIntervalFromKnownSamples) {
  std::vector<double> omega, beta;
  for (int i = 1; i <= 1000; ++i) {
    omega.push_back(static_cast<double>(i));
    beta.push_back(1000.0 - i);
  }
  b::ChainResult c(std::move(omega), std::move(beta), 1.0, 1.0, 3000);
  EXPECT_NEAR(c.summary().mean_omega, 500.5, 1e-9);
  EXPECT_LT(c.summary().cov, 0.0);
  const auto io = c.interval_omega(0.98);
  EXPECT_DOUBLE_EQ(io.lower, 10.0);   // ceil(0.01*1000) = 10th smallest
  EXPECT_DOUBLE_EQ(io.upper, 990.0);  // ceil(0.99*1000) = 990th
  EXPECT_EQ(c.variates_generated(), 3000u);
}

TEST(GibbsFailureTimes, DeterministicGivenSeed) {
  const auto dt = d::datasets::system17_failure_times();
  const auto a = b::gibbs_failure_times(1.0, dt, info_priors_dt(),
                                        fast_opts(7));
  const auto c = b::gibbs_failure_times(1.0, dt, info_priors_dt(),
                                        fast_opts(7));
  EXPECT_EQ(a.omega(), c.omega());
  const auto diff = b::gibbs_failure_times(1.0, dt, info_priors_dt(),
                                           fast_opts(8));
  EXPECT_NE(a.omega(), diff.omega());
}

TEST(GibbsFailureTimes, ConjugateOracleWithoutCensoring) {
  // Horizon pushed far beyond all failure mass: the residual count is
  // ~always 0, so omega | data ~ Gamma(m_w + m, phi_w + 1) *exactly*
  // and beta | data ~ Gamma(m_b + m, phi_b + sum t) exactly.
  d::FailureTimeData ft({0.5, 1.2, 1.9, 2.6, 3.1, 4.0, 5.2, 6.0}, 500.0);
  const b::PriorPair priors{b::GammaPrior{2.0, 0.1}, b::GammaPrior{3.0, 2.0}};
  auto opts = fast_opts(21);
  opts.samples = 20000;
  const auto chain = b::gibbs_failure_times(1.0, ft, priors, opts);
  const double m = 8.0, sum_t = ft.total_time();
  const auto s = chain.summary();
  EXPECT_NEAR(s.mean_omega, (2.0 + m) / (0.1 + 1.0), 0.15);
  EXPECT_NEAR(s.var_omega, (2.0 + m) / (1.1 * 1.1), 0.4);
  EXPECT_NEAR(s.mean_beta, (3.0 + m) / (2.0 + sum_t), 0.01);
  // omega and beta are exactly independent here.
  EXPECT_NEAR(s.cov, 0.0, 0.01);
}

TEST(GibbsFailureTimes, VariateAccountingMatchesPaperFormula) {
  // GO + failure data: 3 variates per iteration; the paper's Table 6
  // count for burn-in 10000 + 10*20000 is 630000.
  const auto dt = d::datasets::system17_failure_times();
  b::McmcOptions opt;  // paper defaults
  opt.seed = 3;
  const auto chain = b::gibbs_failure_times(1.0, dt, info_priors_dt(), opt);
  EXPECT_EQ(chain.variates_generated(), 630000u);
  EXPECT_EQ(chain.size(), 20000u);
}

TEST(GibbsFailureTimes, MixesWell) {
  const auto dt = d::datasets::system17_failure_times();
  const auto chain =
      b::gibbs_failure_times(1.0, dt, info_priors_dt(), fast_opts());
  const auto [ess_o, ess_b] = chain.effective_sample_sizes();
  EXPECT_GT(ess_o, 1000.0);
  EXPECT_GT(ess_b, 1000.0);
}

TEST(GibbsFailureTimes, DelayedSShapedAugmentationPath) {
  // alpha0 = 2 exercises the truncated-gamma augmentation branch.
  vbsrm::random::Rng rng(31);
  const auto ft = vbsrm::data::simulate_gamma_nhpp(rng, 60.0, 2.0, 3e-3,
                                                   1500.0);
  const auto chain = b::gibbs_failure_times(
      2.0, ft, b::PriorPair::flat(), fast_opts(32));
  const auto s = chain.summary();
  EXPECT_NEAR(s.mean_omega, 60.0, 25.0);
  EXPECT_NEAR(s.mean_beta, 3e-3, 1.2e-3);
}

TEST(GibbsGrouped, AgreesWithFailureTimeChainOnFineBins) {
  // Grouping into fine bins loses little: the two Gibbs samplers target
  // nearly the same posterior.
  const auto dt = d::datasets::system17_failure_times();
  std::vector<double> bounds;
  for (int i = 1; i <= 160; ++i) bounds.push_back(1000.0 * i);
  const auto dg = dt.to_grouped(bounds);
  const auto ct = b::gibbs_failure_times(1.0, dt, info_priors_dt(),
                                         fast_opts(41));
  const auto cg = b::gibbs_grouped(1.0, dg, info_priors_dt(), fast_opts(42));
  EXPECT_NEAR(cg.summary().mean_omega, ct.summary().mean_omega, 1.0);
  EXPECT_NEAR(cg.summary().mean_beta, ct.summary().mean_beta,
              0.05 * ct.summary().mean_beta);
}

TEST(GibbsGrouped, VariateAccountingIncludesAugmentation) {
  // (3 + 38) variates per iteration for GO: paper's 8,610,000 at the
  // default configuration.
  const auto dg = d::datasets::system17_grouped();
  b::McmcOptions opt;
  opt.seed = 5;
  const auto chain = b::gibbs_grouped(1.0, dg, info_priors_dg(), opt);
  EXPECT_EQ(chain.variates_generated(), 8610000u);
}

TEST(GibbsGrouped, RejectsEmptyData) {
  d::GroupedData empty({1.0, 2.0}, {0, 0});
  EXPECT_THROW(b::gibbs_grouped(1.0, empty, b::PriorPair::flat()),
               std::invalid_argument);
}

TEST(GibbsGrouped, RejectsIterationCountThatWraps) {
  // burn_in + thin * samples = 2^53 * 2^11 = 2^64 wraps to zero
  // iterations; the samplers must say so instead of running nothing.
  b::McmcOptions opt;
  opt.burn_in = 0;
  opt.thin = std::size_t{1} << 53;
  opt.samples = 2048;
  const auto expect_overflow = [](const auto& run) {
    try {
      run();
      ADD_FAILURE() << "no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("overflows"), std::string::npos)
          << e.what();
    }
  };
  expect_overflow([&] {
    b::gibbs_grouped(1.0, d::datasets::system17_grouped(), info_priors_dg(),
                     opt);
  });
  expect_overflow([&] {
    b::gibbs_failure_times(1.0, d::datasets::system17_failure_times(),
                           info_priors_dt(), opt);
  });
}

TEST(MultiChain, RhatNearOneForWellMixedChains) {
  const auto dt = d::datasets::system17_failure_times();
  b::McmcOptions opt;
  opt.burn_in = 2000;
  opt.thin = 2;
  opt.samples = 4000;
  opt.seed = 2;
  const auto mc = b::run_chains(
      4, 1.0, dt.observation_end(), opt, [&](const b::McmcOptions& o) {
        return b::gibbs_failure_times(1.0, dt, info_priors_dt(), o);
      });
  EXPECT_EQ(mc.chains.size(), 4u);
  EXPECT_LT(mc.rhat_omega, 1.01);
  EXPECT_LT(mc.rhat_beta, 1.01);
  EXPECT_TRUE(mc.converged());
  EXPECT_EQ(mc.pooled.size(), 16000u);
  // Chains genuinely differ (independent seeds).
  EXPECT_NE(mc.chains[0].omega()[0], mc.chains[1].omega()[0]);
}

TEST(MultiChain, RhatDetectsDisagreeingChains) {
  // Two hand-built "chains" around different levels: R-hat must flag it.
  std::vector<std::vector<double>> chains(2, std::vector<double>(500));
  vbsrm::random::Rng rng(9);
  for (int c = 0; c < 2; ++c) {
    for (auto& v : chains[static_cast<std::size_t>(c)]) {
      v = (c == 0 ? 0.0 : 5.0) + rng.next_double();
    }
  }
  EXPECT_GT(b::cross_chain_rhat(chains), 2.0);
}

TEST(MultiChain, ValidatesInput) {
  EXPECT_THROW(b::cross_chain_rhat({{1.0, 2.0}}), std::invalid_argument);
  EXPECT_THROW(b::cross_chain_rhat({{1.0, 2.0}, {1.0}}),
               std::invalid_argument);
  const auto dt = d::datasets::system17_failure_times();
  EXPECT_THROW(b::run_chains(1, 1.0, dt.observation_end(), {},
                            [&](const b::McmcOptions& o) {
                              return b::gibbs_failure_times(
                                  1.0, dt, b::PriorPair::flat(), o);
                            }),
               std::invalid_argument);
}

TEST(ChainReliability, BoundsOrderedAndInUnitInterval) {
  const auto dt = d::datasets::system17_failure_times();
  const auto chain =
      b::gibbs_failure_times(1.0, dt, info_priors_dt(), fast_opts(61));
  const auto r = chain.reliability(1000.0, 0.99);
  EXPECT_GT(r.lower, 0.0);
  EXPECT_LT(r.upper, 1.0);
  EXPECT_LT(r.lower, r.point);
  EXPECT_GT(r.upper, r.point);
}

}  // namespace
