// The mixture-of-product-gammas posterior object: moments, quantiles,
// densities, sampling, and reliability functionals, validated against
// closed forms for single components and against Monte Carlo for
// multi-component mixtures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/gamma_mixture.hpp"
#include "core/vb2.hpp"
#include "data/datasets.hpp"
#include "math/quadrature.hpp"
#include "math/roots.hpp"
#include "math/specfun.hpp"
#include "nhpp/model.hpp"
#include "random/distributions.hpp"
#include "random/rng.hpp"
#include "stats/descriptive.hpp"

namespace c = vbsrm::core;
namespace m = vbsrm::math;

namespace {

c::GammaMixturePosterior one_component() {
  c::ProductGammaComponent comp;
  comp.n = 40;
  comp.weight = 1.0;
  comp.omega = {48.0, 1.2};   // mean 40, var 33.3
  comp.beta = {9.77, 9.77e5}; // mean 1e-5
  return c::GammaMixturePosterior({comp}, 1.0, 160000.0);
}

c::GammaMixturePosterior two_components() {
  c::ProductGammaComponent a, b;
  a.n = 40;
  a.weight = 3.0;  // unnormalized on purpose
  a.omega = {40.0, 1.0};
  a.beta = {10.0, 1e6};
  b.n = 60;
  b.weight = 1.0;
  b.omega = {60.0, 1.0};
  b.beta = {10.0, 0.8e6};
  return c::GammaMixturePosterior({a, b}, 1.0, 160000.0);
}

vbsrm::bayes::PriorPair info_priors_dt() {
  return {vbsrm::bayes::GammaPrior::from_mean_sd(50.0, 15.8),
          vbsrm::bayes::GammaPrior::from_mean_sd(1e-5, 3.2e-6)};
}

vbsrm::bayes::PriorPair info_priors_dg() {
  return {vbsrm::bayes::GammaPrior::from_mean_sd(50.0, 15.8),
          vbsrm::bayes::GammaPrior::from_mean_sd(3.3e-2, 1.1e-2)};
}

/// Straightforward reliability functionals to check the cached ones
/// against: per-call 8 x 24 composite Gauss-Legendre over each beta
/// marginal's [q(1e-10), q(1 - 1e-10)], GammaFailureLaw interval
/// masses, math::gamma_q, bisection quantiles, and the same 1e-12
/// component weight floor.
class ReferenceReliability {
 public:
  explicit ReferenceReliability(const c::GammaMixturePosterior& post)
      : post_(post), law_{post.alpha0()} {}

  double point(double u) const {
    double s = 0.0, skipped = 0.0;
    for (const auto& comp : post_.components()) {
      if (comp.weight < kFloor) {
        skipped += comp.weight;
        continue;
      }
      s += comp.weight * integrate_over_beta(comp, [&](double b) {
             // E[e^{-omega h}] for omega ~ Gamma(a, b_w).
             return std::pow(comp.omega.rate / (comp.omega.rate + h(b, u)),
                             comp.omega.shape);
           });
    }
    return s / (1.0 - skipped);
  }

  double cdf(double x, double u) const {
    const double neg_log_x = -std::log(x);
    double s = 0.0, kept = 0.0;
    for (const auto& comp : post_.components()) {
      if (comp.weight < kFloor) continue;
      kept += comp.weight;
      s += comp.weight * integrate_over_beta(comp, [&](double b) {
             const double hb = h(b, u);
             if (!(hb > 0.0)) return 0.0;
             // P(R <= x | beta) = P(omega >= -log x / h).
             return m::gamma_q(comp.omega.shape,
                               comp.omega.rate * neg_log_x / hb);
           });
    }
    return s / kept;
  }

  double quantile(double p, double u) const {
    return m::bisect([&](double x) { return cdf(x, u) - p; }, 1e-14,
                     1.0 - 1e-14, 1e-11, 200)
        .x;
  }

 private:
  static constexpr double kFloor = 1e-12;

  double h(double b, double u) const {
    return law_.interval_mass(post_.horizon(), post_.horizon() + u, b);
  }

  template <typename G>
  double integrate_over_beta(const c::ProductGammaComponent& comp, G&& g) const {
    static const m::GaussLegendre rule(24);
    constexpr int kPanels = 8;
    const double lo = comp.beta.quantile(1e-10);
    const double w = (comp.beta.quantile(1.0 - 1e-10) - lo) / kPanels;
    double s = 0.0;
    for (int p = 0; p < kPanels; ++p) {
      const double a = lo + p * w, b = lo + (p + 1) * w;
      const double c = 0.5 * (a + b), h = 0.5 * (b - a);
      double ps = 0.0;
      for (int i = 0; i < rule.size(); ++i) {
        const double x = c + h * rule.nodes()[i];
        ps += rule.weights()[i] * std::exp(comp.beta.log_pdf(x)) * g(x);
      }
      s += ps * h;
    }
    return s;
  }

  const c::GammaMixturePosterior& post_;
  vbsrm::nhpp::GammaFailureLaw law_;
};

TEST(GammaParams, MomentsQuantileCdfAgree) {
  const c::GammaParams g{5.0, 2.0};
  EXPECT_DOUBLE_EQ(g.mean(), 2.5);
  EXPECT_DOUBLE_EQ(g.variance(), 1.25);
  const double q = g.quantile(0.3);
  EXPECT_NEAR(g.cdf(q), 0.3, 1e-10);
  // pdf integrates against cdf: numeric derivative check.
  const double h = 1e-6;
  EXPECT_NEAR((g.cdf(q + h) - g.cdf(q - h)) / (2 * h),
              std::exp(g.log_pdf(q)), 1e-5);
}

TEST(Mixture, ValidatesComponents) {
  EXPECT_THROW(c::GammaMixturePosterior({}, 1.0, 1.0), std::invalid_argument);
  c::ProductGammaComponent bad;
  bad.weight = -1.0;
  EXPECT_THROW(c::GammaMixturePosterior({bad}, 1.0, 1.0),
               std::invalid_argument);
  c::ProductGammaComponent zero;
  zero.weight = 0.0;
  zero.omega = {1.0, 1.0};
  zero.beta = {1.0, 1.0};
  EXPECT_THROW(c::GammaMixturePosterior({zero}, 1.0, 1.0),
               std::invalid_argument);
}

TEST(Mixture, NormalizesWeights) {
  const auto mix = two_components();
  EXPECT_NEAR(mix.components()[0].weight, 0.75, 1e-12);
  EXPECT_NEAR(mix.components()[1].weight, 0.25, 1e-12);
  EXPECT_NEAR(mix.prob_total_faults(40), 0.75, 1e-12);
  EXPECT_NEAR(mix.mean_total_faults(), 0.75 * 40 + 0.25 * 60, 1e-9);
}

TEST(Mixture, SingleComponentMomentsAreGammaMoments) {
  const auto mix = one_component();
  const auto s = mix.summary();
  EXPECT_NEAR(s.mean_omega, 40.0, 1e-10);
  EXPECT_NEAR(s.var_omega, 48.0 / 1.44, 1e-9);
  EXPECT_NEAR(s.mean_beta, 1e-5, 1e-15);
  EXPECT_NEAR(s.cov, 0.0, 1e-15);  // independent within one component
}

TEST(Mixture, TwoComponentMomentsByTotalVarianceFormula) {
  const auto mix = two_components();
  const auto s = mix.summary();
  // E[omega] = .75*40 + .25*60 = 45.
  EXPECT_NEAR(s.mean_omega, 45.0, 1e-9);
  // Var = E[Var|N] + Var(E[omega|N]) = (.75*40+.25*60) + (.75*25+.25*225).
  EXPECT_NEAR(s.var_omega, 45.0 + 75.0, 1e-9);
  // Cov from component means: E[mo*mb] - E[mo]E[mb].
  const double mb_a = 10.0 / 1e6, mb_b = 10.0 / 0.8e6;
  const double eb = 0.75 * mb_a + 0.25 * mb_b;
  const double eob = 0.75 * 40.0 * mb_a + 0.25 * 60.0 * mb_b;
  EXPECT_NEAR(s.cov, eob - 45.0 * eb, 1e-15);
  EXPECT_GT(s.cov, 0.0);  // bigger N pairs with bigger beta mean here
}

TEST(Mixture, CdfQuantileRoundTrip) {
  const auto mix = two_components();
  for (double p : {0.005, 0.1, 0.5, 0.9, 0.995}) {
    EXPECT_NEAR(mix.cdf_omega(mix.quantile_omega(p)), p, 1e-9) << p;
    EXPECT_NEAR(mix.cdf_beta(mix.quantile_beta(p)), p, 1e-9) << p;
  }
  EXPECT_THROW(mix.quantile_omega(0.0), std::invalid_argument);
  EXPECT_THROW(mix.quantile_beta(1.0), std::invalid_argument);
}

// --- the marginal kernels against direct per-component sums -------------

double direct_cdf_omega(const c::GammaMixturePosterior& mix, double x) {
  double s = 0.0;
  for (const auto& comp : mix.components()) {
    s += comp.weight * m::gamma_p(comp.omega.shape, comp.omega.rate * x);
  }
  return s;
}

double direct_cdf_beta(const c::GammaMixturePosterior& mix, double x) {
  double s = 0.0;
  for (const auto& comp : mix.components()) {
    s += comp.weight * m::gamma_p(comp.beta.shape, comp.beta.rate * x);
  }
  return s;
}

/// Both marginal CDFs against the direct sums at the mixture's own
/// quantiles over the whole range, and far outside it.
void expect_kernels_match_direct(const c::GammaMixturePosterior& mix) {
  const auto s = mix.summary();
  std::vector<double> xo = {1e-3 * s.mean_omega, 1e3 * s.mean_omega};
  std::vector<double> xb = {1e-3 * s.mean_beta, 1e3 * s.mean_beta};
  for (const double p : {1e-7, 0.005, 0.1, 0.3, 0.5, 0.7, 0.9, 0.995,
                         1.0 - 1e-7}) {
    xo.push_back(mix.quantile_omega(p));
    xb.push_back(mix.quantile_beta(p));
  }
  for (const double x : xo) {
    EXPECT_NEAR(mix.cdf_omega(x), direct_cdf_omega(mix, x), 1e-13) << x;
  }
  for (const double x : xb) {
    EXPECT_NEAR(mix.cdf_beta(x), direct_cdf_beta(mix, x), 1e-13) << x;
  }
}

TEST(MixtureKernels, MatchDirectSumsAcrossALadderGap) {
  // N = 40 and N = 60: the omega ladder walks 19 absent rungs.
  expect_kernels_match_direct(two_components());
}

TEST(MixtureKernels, MatchDirectSumsOnVb2InfoFits) {
  const c::Vb2Estimator vt(1.0, vbsrm::data::datasets::system17_failure_times(),
                           info_priors_dt());
  const c::Vb2Estimator vg(2.0, vbsrm::data::datasets::system17_grouped(),
                           info_priors_dg());
  expect_kernels_match_direct(vt.posterior());
  expect_kernels_match_direct(vg.posterior());
}

TEST(MixtureKernels, MatchDirectSumsOnNoInfoFitAtNmaxLimit) {
  const c::Vb2Estimator vb(1.0, vbsrm::data::datasets::system17_failure_times(),
                           vbsrm::bayes::PriorPair::flat());
  EXPECT_GT(vb.posterior().components().size(), 8000u);
  expect_kernels_match_direct(vb.posterior());
}

TEST(MixtureKernels, OneComponentQuantilesAreGammaQuantiles) {
  const auto mix = one_component();
  const auto& comp = mix.components()[0];
  for (const double p : {1e-7, 0.005, 0.5, 0.995, 1.0 - 1e-7}) {
    EXPECT_EQ(mix.quantile_omega(p), comp.omega.quantile(p)) << p;
    // Both sides invert P(a, x) - p in double: at p = 1 - 1e-7 its
    // 1e-16 absolute resolution is ~1e-10 relative in x.
    const double qb = comp.beta.quantile(p);
    const double tol = p < 0.999 ? 1e-12 : 1e-9;
    EXPECT_NEAR(mix.quantile_beta(p), qb, tol * qb) << p;
  }
}

TEST(MixtureKernels, DeepTailQuantilesInvertTheDirectCdf) {
  const c::Vb2Estimator vt(1.0, vbsrm::data::datasets::system17_failure_times(),
                           info_priors_dt());
  for (const auto* mix : {&vt.posterior()}) {
    for (const double p : {1e-7, 1.0 - 1e-7}) {
      const double tail = std::min(p, 1.0 - p);
      EXPECT_NEAR(direct_cdf_omega(*mix, mix->quantile_omega(p)), p,
                  1e-6 * tail)
          << p;
      EXPECT_NEAR(direct_cdf_beta(*mix, mix->quantile_beta(p)), p,
                  1e-6 * tail)
          << p;
    }
  }
  const auto two = two_components();
  for (const double p : {1e-7, 1.0 - 1e-7}) {
    const double tail = std::min(p, 1.0 - p);
    EXPECT_NEAR(direct_cdf_omega(two, two.quantile_omega(p)), p, 1e-6 * tail);
    EXPECT_NEAR(direct_cdf_beta(two, two.quantile_beta(p)), p, 1e-6 * tail);
  }
}

TEST(MixtureKernels, RejectsMixturesOffTheOmegaLadder) {
  c::ProductGammaComponent a, b;
  a.n = 40;
  a.weight = 0.5;
  a.omega = {40.0, 1.0};
  a.beta = {10.0, 1e6};
  b = a;
  b.n = 41;
  b.omega = {41.0, 1.5};  // a second omega rate
  EXPECT_THROW(c::GammaMixturePosterior({a, b}, 1.0, 1.0),
               std::invalid_argument);
  b.omega = {42.0, 1.0};  // shape - n differs from a's
  EXPECT_THROW(c::GammaMixturePosterior({a, b}, 1.0, 1.0),
               std::invalid_argument);
  b.omega = {41.0, 1.0};
  EXPECT_NO_THROW(c::GammaMixturePosterior({a, b}, 1.0, 1.0));
}

TEST(Mixture, IntervalsOrdered) {
  const auto mix = two_components();
  const auto io = mix.interval_omega(0.99);
  const auto s = mix.summary();
  EXPECT_LT(io.lower, s.mean_omega);
  EXPECT_GT(io.upper, s.mean_omega);
  const auto i95 = mix.interval_omega(0.95);
  EXPECT_GT(i95.lower, io.lower);
  EXPECT_LT(i95.upper, io.upper);
}

TEST(Mixture, MarginalPdfIntegratesToOne) {
  // The omega marginal is a proper distribution: its CDF climbs
  // monotonically from 0 to 1.
  const auto mix = two_components();
  EXPECT_EQ(mix.cdf_omega(0.0), 0.0);
  double prev = 0.0;
  for (double x = 2.5; x < 150.0; x += 2.5) {
    const double f = mix.cdf_omega(x);
    EXPECT_GE(f, prev) << x;
    prev = f;
  }
  EXPECT_NEAR(prev, 1.0, 1e-6);
}

TEST(Mixture, JointDensityIsProductMixture) {
  const auto mix = one_component();
  const double o = 40.0, be = 1e-5;
  const auto& comp = mix.components()[0];
  EXPECT_NEAR(mix.joint_density(o, be),
              std::exp(comp.omega.log_pdf(o) + comp.beta.log_pdf(be)),
              1e-12);
}

TEST(Mixture, SamplingMatchesMoments) {
  const auto mix = two_components();
  vbsrm::random::Rng rng(77);
  std::vector<double> omega, beta;
  for (int i = 0; i < 200000; ++i) {
    const auto [o, b] = mix.sample(rng);
    omega.push_back(o);
    beta.push_back(b);
  }
  const auto s = mix.summary();
  EXPECT_NEAR(vbsrm::stats::mean(omega), s.mean_omega, 0.1);
  EXPECT_NEAR(vbsrm::stats::variance(omega), s.var_omega, 2.5);
  EXPECT_NEAR(vbsrm::stats::mean(beta), s.mean_beta, 1e-7);
  EXPECT_NEAR(vbsrm::stats::covariance(omega, beta), s.cov, 3e-5);
}

TEST(Vb2PerfEquivalence, BinarySearchSamplePreservesDrawSequence) {
  const c::Vb2Estimator vb(1.0, vbsrm::data::datasets::system17_grouped(),
                           info_priors_dg());
  const auto& post = vb.posterior();

  // Reference: a linear subtractive scan over the weights.
  auto linear_sample = [&](vbsrm::random::Rng& rng) {
    double u = rng.next_double();
    const c::ProductGammaComponent* pick = &post.components().back();
    for (const auto& comp : post.components()) {
      if (u < comp.weight) {
        pick = &comp;
        break;
      }
      u -= comp.weight;
    }
    return std::pair<double, double>{
        vbsrm::random::sample_gamma(rng, pick->omega.shape,
                                    pick->omega.rate),
        vbsrm::random::sample_gamma(rng, pick->beta.shape,
                                    pick->beta.rate)};
  };

  vbsrm::random::Rng r1(12345), r2(12345);
  for (int i = 0; i < 20000; ++i) {
    const auto a = post.sample(r1);
    const auto bb = linear_sample(r2);
    ASSERT_EQ(a.first, bb.first) << "draw " << i;
    ASSERT_EQ(a.second, bb.second) << "draw " << i;
  }
}

TEST(Vb2PerfEquivalence, FunctionalCacheMatchesNaiveOnTableScenarios) {
  // Point / cdf / quantile through the quadrature cache agree with the
  // naive ReferenceReliability to 1e-10 on the Table 4/5 posteriors.
  const c::Vb2Estimator vt(1.0, vbsrm::data::datasets::system17_failure_times(),
                           info_priors_dt());
  const c::Vb2Estimator vg(1.0, vbsrm::data::datasets::system17_grouped(),
                           info_priors_dg());
  for (const auto* post : {&vt.posterior(), &vg.posterior()}) {
    const ReferenceReliability ref(*post);
    for (const double u : {0.01 * post->horizon(), 0.1 * post->horizon(),
                           0.5 * post->horizon()}) {
      EXPECT_NEAR(post->reliability_point(u), ref.point(u), 1e-10);
      for (const double x : {0.2, 0.5, 0.9}) {
        EXPECT_NEAR(post->reliability_cdf(x, u), ref.cdf(x, u), 1e-10);
      }
      for (const double p : {0.05, 0.5, 0.95}) {
        EXPECT_NEAR(post->reliability_quantile(p, u), ref.quantile(p, u),
                    1e-10)
            << "p=" << p << " u=" << u;
      }
    }
  }
}

TEST(MixtureReliability, SingleComponentClosedFormInOmega) {
  // With beta essentially degenerate the reliability point estimate is
  // (b_w/(b_w+h))^{a_w} exactly.
  c::ProductGammaComponent comp;
  comp.weight = 1.0;
  comp.omega = {48.0, 1.2};
  comp.beta = {1e8, 1e8 / 1e-5};  // mean 1e-5, sd 1e-9
  c::GammaMixturePosterior mix({comp}, 1.0, 160000.0);
  const double u = 1000.0;
  const vbsrm::nhpp::GammaFailureLaw law{1.0};
  const double h = law.interval_mass(160000.0, 161000.0, 1e-5);
  const double exact = std::pow(1.2 / (1.2 + h), 48.0);
  EXPECT_NEAR(mix.reliability_point(u), exact, 1e-6);
}

TEST(MixtureReliability, AgainstMonteCarlo) {
  const auto mix = two_components();
  vbsrm::random::Rng rng(88);
  const double u = 10000.0;
  const vbsrm::nhpp::GammaFailureLaw law{1.0};
  std::vector<double> r;
  for (int i = 0; i < 200000; ++i) {
    const auto [o, b] = mix.sample(rng);
    r.push_back(std::exp(-o * law.interval_mass(160000.0, 160000.0 + u, b)));
  }
  EXPECT_NEAR(mix.reliability_point(u), vbsrm::stats::mean(r), 2e-3);
  // Cross-check the cdf at a couple of points.
  for (double x : {0.5, 0.8, 0.95}) {
    double mc = 0.0;
    for (double v : r) mc += (v <= x);
    mc /= static_cast<double>(r.size());
    EXPECT_NEAR(mix.reliability_cdf(x, u), mc, 5e-3) << "x=" << x;
  }
}

TEST(MixtureReliability, QuantileRoundTripsAndOrdering) {
  const auto mix = two_components();
  const double u = 10000.0;
  const auto r = mix.reliability(u, 0.99);
  EXPECT_GT(r.lower, 0.0);
  EXPECT_LT(r.upper, 1.0);
  EXPECT_LT(r.lower, r.point);
  EXPECT_GT(r.upper, r.point);
  EXPECT_NEAR(mix.reliability_cdf(r.lower, u), 0.005, 1e-6);
  EXPECT_NEAR(mix.reliability_cdf(r.upper, u), 0.995, 1e-6);
}

TEST(MixtureReliability, CdfBoundaries) {
  const auto mix = one_component();
  EXPECT_DOUBLE_EQ(mix.reliability_cdf(0.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(mix.reliability_cdf(1.0, 100.0), 1.0);
  EXPECT_THROW(mix.reliability_quantile(0.0, 100.0), std::invalid_argument);
}

}  // namespace
