// VB2 — the paper's contribution.  Validation strategy:
//   * the GO/failure-time closed form for xi matches the generic
//     fixed-point solver (paper Sec. 5.2's "explicitly solvable" case);
//   * the fixed point is the stationary point of the per-N variational
//     objective (so the iteration really maximizes F[Pv]);
//   * the adaptive n_max loop satisfies the paper's Step-4 criterion;
//   * the resulting posterior matches conjugate oracles in degenerate
//     regimes and carries the omega-beta correlation VB1 cannot;
//   * the sweep's lgamma ladder matches direct evaluation, and every
//     fixed-point solver lands on the same posterior.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>

#include "core/vb2.hpp"
#include "data/datasets.hpp"
#include "data/simulate.hpp"
#include "random/rng.hpp"

namespace c = vbsrm::core;
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

/// Compare two fits component-by-component (aligned on N) and on the
/// summary moments; `rel` absorbs fixed-point-tolerance differences.
void expect_posteriors_close(const c::GammaMixturePosterior& a,
                             const c::GammaMixturePosterior& bb,
                             double rel) {
  std::map<std::uint64_t, const c::ProductGammaComponent*> by_n;
  for (const auto& comp : bb.components()) by_n[comp.n] = &comp;
  for (const auto& comp : a.components()) {
    if (comp.weight < 1e-12) continue;  // pruning-boundary components
    const auto it = by_n.find(comp.n);
    ASSERT_NE(it, by_n.end()) << "missing component N=" << comp.n;
    EXPECT_NEAR(comp.weight, it->second->weight, rel + rel * comp.weight)
        << "N=" << comp.n;
    EXPECT_NEAR(comp.beta.rate, it->second->beta.rate,
                rel * comp.beta.rate)
        << "N=" << comp.n;
  }
  const auto sa = a.summary();
  const auto sb = bb.summary();
  EXPECT_NEAR(sa.mean_omega, sb.mean_omega, rel * sa.mean_omega);
  EXPECT_NEAR(sa.mean_beta, sb.mean_beta, rel * sa.mean_beta);
  EXPECT_NEAR(sa.var_omega, sb.var_omega, 100 * rel * sa.var_omega);
  EXPECT_NEAR(sa.var_beta, sb.var_beta, 100 * rel * sa.var_beta);
}

TEST(Vb2, ClosedFormMatchesFixedPointSolver) {
  const auto dt = d::datasets::system17_failure_times();
  c::Vb2Options closed, iterative;
  iterative.use_closed_form = false;
  const c::Vb2Estimator a(1.0, dt, info_priors_dt(), closed);
  const c::Vb2Estimator b2(1.0, dt, info_priors_dt(), iterative);
  const auto sa = a.posterior().summary();
  const auto sb = b2.posterior().summary();
  EXPECT_NEAR(sa.mean_omega, sb.mean_omega, 1e-8 * sa.mean_omega);
  EXPECT_NEAR(sa.var_omega, sb.var_omega, 1e-6 * sa.var_omega);
  EXPECT_NEAR(sa.mean_beta, sb.mean_beta, 1e-8 * sa.mean_beta);
}

TEST(Vb2, ClosedFormXiFormula) {
  // xi_N = (m_b + m) / (phi_b + sum t_i + (N - m) t_e)   [GO, D_T].
  const auto dt = d::datasets::system17_failure_times();
  const auto priors = info_priors_dt();
  const c::Vb2Estimator vb(1.0, dt, priors);
  for (std::uint64_t n : {38ull, 45ull, 80ull}) {
    const auto [zeta, xi] = vb.solve_component(n);
    const double expect =
        (priors.beta.shape + 38.0) /
        (priors.beta.rate + dt.total_time() +
         (static_cast<double>(n) - 38.0) * dt.observation_end());
    EXPECT_NEAR(xi, expect, 1e-12 * expect) << "n=" << n;
    // And zeta is consistent: xi == (m_b + N alpha0)/(phi_b + zeta).
    EXPECT_NEAR(xi, (priors.beta.shape + static_cast<double>(n)) /
                        (priors.beta.rate + zeta),
                1e-10 * xi);
  }
}

TEST(Vb2, FixedPointIsStationaryPointOfObjective) {
  // dF_N/dxi = 0 at the solved fixed point (failure-time and grouped).
  const auto dt = d::datasets::system17_failure_times();
  const c::Vb2Estimator vb(1.0, dt, info_priors_dt());
  for (std::uint64_t n : {40ull, 60ull}) {
    const auto [zeta, xi] = vb.solve_component(n);
    (void)zeta;
    const double h = 1e-5 * xi;
    const double up = vb.component_objective(n, xi + h);
    const double dn = vb.component_objective(n, xi - h);
    const double at = vb.component_objective(n, xi);
    EXPECT_GT(at, up - 1e-9) << "n=" << n;
    EXPECT_GT(at, dn - 1e-9) << "n=" << n;
    // Central difference ~ 0 relative to the curvature scale.
    EXPECT_NEAR((up - dn) / (2.0 * h) * xi, 0.0, 1e-4) << "n=" << n;
  }
}

TEST(Vb2, FixedPointStationaryForGroupedData) {
  const auto dg = d::datasets::system17_grouped();
  const c::Vb2Estimator vb(1.0, dg, info_priors_dg());
  const std::uint64_t n = 50;
  const auto [zeta, xi] = vb.solve_component(n);
  (void)zeta;
  const double h = 1e-5 * xi;
  const double slope = (vb.component_objective(n, xi + h) -
                        vb.component_objective(n, xi - h)) /
                       (2.0 * h);
  EXPECT_NEAR(slope * xi, 0.0, 1e-4);
}

TEST(Vb2, AdaptiveNmaxSatisfiesStepFourCriterion) {
  const auto dt = d::datasets::system17_failure_times();
  c::Vb2Options opt;
  opt.n_max = 50;  // deliberately too small: must double up
  opt.epsilon = 5e-15;
  const c::Vb2Estimator vb(1.0, dt, info_priors_dt(), opt);
  EXPECT_LT(vb.diagnostics().prob_at_n_max, 5e-15);
  EXPECT_GT(vb.diagnostics().n_max_used, 50u);
  EXPECT_GE(vb.diagnostics().n_max_doublings, 1u);
}

TEST(Vb2, FixedNmaxReportsTailMass) {
  const auto dt = d::datasets::system17_failure_times();
  c::Vb2Options opt;
  opt.n_max = 100;
  opt.adapt_n_max = false;
  const c::Vb2Estimator vb(1.0, dt, info_priors_dt(), opt);
  EXPECT_EQ(vb.diagnostics().n_max_used, 100u);
  EXPECT_GT(vb.diagnostics().prob_at_n_max, 0.0);
}

TEST(Vb2, PosteriorOfNConcentratesAboveObservedCount) {
  const auto dt = d::datasets::system17_failure_times();
  const c::Vb2Estimator vb(1.0, dt, info_priors_dt());
  const double mean_n = vb.posterior().mean_total_faults();
  EXPECT_GT(mean_n, 38.0);
  EXPECT_LT(mean_n, 80.0);
  // No mass below the observed count.
  EXPECT_DOUBLE_EQ(vb.posterior().prob_total_faults(37), 0.0);
}

TEST(Vb2, CapturesNegativeOmegaBetaCorrelation) {
  const auto dt = d::datasets::system17_failure_times();
  const c::Vb2Estimator vb(1.0, dt, info_priors_dt());
  EXPECT_LT(vb.posterior().summary().cov, 0.0);
}

TEST(Vb2, ConjugateOracleWithoutCensoring) {
  // All failure mass observed (horizon >> scale): N == m almost surely,
  // so the mixture collapses and omega | data ~ Gamma(m_w + m, phi_w+1),
  // beta | data ~ Gamma(m_b + m alpha0, phi_b + sum t) exactly.
  d::FailureTimeData ft({0.5, 1.2, 1.9, 2.6, 3.1, 4.0, 5.2, 6.0}, 400.0);
  const b::PriorPair priors{b::GammaPrior{2.0, 0.1}, b::GammaPrior{3.0, 2.0}};
  const c::Vb2Estimator vb(1.0, ft, priors);
  const auto s = vb.posterior().summary();
  EXPECT_NEAR(s.mean_omega, 10.0 / 1.1, 1e-4);
  EXPECT_NEAR(s.var_omega, 10.0 / 1.21, 1e-3);
  EXPECT_NEAR(s.mean_beta, 11.0 / (2.0 + ft.total_time()), 1e-8);
  EXPECT_NEAR(s.cov, 0.0, 1e-8);
  EXPECT_NEAR(vb.posterior().mean_total_faults(), 8.0, 1e-4);
}

TEST(Vb2, NewtonSolverMatchesSuccessiveSubstitution) {
  const auto dg = d::datasets::system17_grouped();
  c::Vb2Options ss, nw;
  ss.solver = c::FixedPointSolver::substitution;
  nw.solver = c::FixedPointSolver::newton;
  const c::Vb2Estimator a(1.0, dg, info_priors_dg(), ss);
  const c::Vb2Estimator b2(1.0, dg, info_priors_dg(), nw);
  EXPECT_NEAR(a.posterior().summary().mean_omega,
              b2.posterior().summary().mean_omega, 1e-6 * 50);
  EXPECT_NEAR(a.posterior().summary().mean_beta,
              b2.posterior().summary().mean_beta, 1e-8);
}

// The Vb2PerfEquivalence suite (here, in test_nhpp_model and in
// test_gamma_mixture) checks each hot-path shortcut against the
// straightforward computation it replaces.
TEST(Vb2PerfEquivalence, SteffensenMatchesPlainSubstitution) {
  // Acceleration changes how fast the xi fixed point is reached, never
  // which xi is accepted: both solvers stop on the same residual bound.
  const auto dg = d::datasets::system17_grouped();
  c::Vb2Options accel, plain;
  plain.solver = c::FixedPointSolver::substitution;
  const c::Vb2Estimator a(1.0, dg, info_priors_dg(), accel);
  const c::Vb2Estimator b2(1.0, dg, info_priors_dg(), plain);
  expect_posteriors_close(a.posterior(), b2.posterior(), 1e-9);
  EXPECT_LT(a.diagnostics().total_fixed_point_iterations,
            b2.diagnostics().total_fixed_point_iterations / 3);
}

TEST(Vb2PerfEquivalence, LgammaRecurrenceMatchesDirectEvaluation) {
  // The sweep advances the objective's lgamma terms by recurrence
  // between exact reseeds; component_objective evaluates them directly.
  // Rescoring every component that way must reproduce its weight.
  const auto dg = d::datasets::system17_grouped();
  for (const double alpha0 : {1.0, 2.0, 2.7}) {
    const c::Vb2Estimator vb(alpha0, dg, info_priors_dg());
    const double log_z = vb.diagnostics().log_evidence_bound;
    for (const auto& comp : vb.posterior().components()) {
      if (comp.weight < 1e-12) continue;
      const auto [zeta, xi] = vb.solve_component(comp.n);
      EXPECT_NEAR(comp.beta.rate, info_priors_dg().beta.rate + zeta,
                  1e-9 * comp.beta.rate)
          << "alpha0=" << alpha0 << " N=" << comp.n;
      EXPECT_NEAR(std::exp(vb.component_objective(comp.n, xi) - log_z),
                  comp.weight, 1e-9 * comp.weight)
          << "alpha0=" << alpha0 << " N=" << comp.n;
    }
  }
}

TEST(Vb2, GroupedAndTimeDataAgreeOnFineBins) {
  const auto dt = d::datasets::system17_failure_times();
  std::vector<double> bounds;
  for (int i = 1; i <= 320; ++i) bounds.push_back(500.0 * i);
  const auto dg = dt.to_grouped(bounds);
  const c::Vb2Estimator vt(1.0, dt, info_priors_dt());
  const c::Vb2Estimator vg(1.0, dg, info_priors_dt());
  const auto st = vt.posterior().summary();
  const auto sg = vg.posterior().summary();
  EXPECT_NEAR(sg.mean_omega, st.mean_omega, 0.02 * st.mean_omega);
  EXPECT_NEAR(sg.mean_beta, st.mean_beta, 0.02 * st.mean_beta);
  EXPECT_NEAR(sg.var_omega, st.var_omega, 0.06 * st.var_omega);
}

TEST(Vb2, DelayedSShapedRecoversSimulationTruth) {
  vbsrm::random::Rng rng(19);
  const auto ft = d::simulate_gamma_nhpp(rng, 120.0, 2.0, 2.5e-3, 2000.0);
  const c::Vb2Estimator vb(2.0, ft, b::PriorPair::flat());
  const auto s = vb.posterior().summary();
  EXPECT_NEAR(s.mean_omega, 120.0, 35.0);
  EXPECT_NEAR(s.mean_beta, 2.5e-3, 8e-4);
}

TEST(Vb2, FlatPriorsWork) {
  const auto dt = d::datasets::system17_failure_times();
  const c::Vb2Estimator vb(1.0, dt, b::PriorPair::flat());
  const auto s = vb.posterior().summary();
  EXPECT_GT(s.mean_omega, 38.0);
  EXPECT_LT(s.mean_omega, 70.0);
  EXPECT_GT(s.var_omega, 0.0);
}

TEST(Vb2, RejectsBadAlpha) {
  const auto dt = d::datasets::system17_failure_times();
  EXPECT_THROW(c::Vb2Estimator(0.0, dt, b::PriorPair::flat()),
               std::invalid_argument);
}

// Property sweep: for a grid of prior strengths the posterior mean of
// omega must move monotonically from the data-driven value towards the
// prior mean as the prior tightens.
class Vb2PriorPullSweep : public ::testing::TestWithParam<double> {};

TEST_P(Vb2PriorPullSweep, PriorTighteningPullsTowardPriorMean) {
  const double sd_scale = GetParam();
  const auto dt = d::datasets::system17_failure_times();
  const double prior_mean = 80.0;  // far above the ~44 the data implies
  const b::PriorPair loose{
      b::GammaPrior::from_mean_sd(prior_mean, prior_mean * sd_scale),
      b::GammaPrior::from_mean_sd(1e-5, 3.2e-6)};
  const b::PriorPair tight{
      b::GammaPrior::from_mean_sd(prior_mean, prior_mean * sd_scale * 0.25),
      b::GammaPrior::from_mean_sd(1e-5, 3.2e-6)};
  const c::Vb2Estimator vl(1.0, dt, loose);
  const c::Vb2Estimator vt(1.0, dt, tight);
  EXPECT_GT(vt.posterior().summary().mean_omega,
            vl.posterior().summary().mean_omega);
}

INSTANTIATE_TEST_SUITE_P(SdScales, Vb2PriorPullSweep,
                         ::testing::Values(0.5, 1.0, 2.0));

}  // namespace
