// VB2 — the paper's proposed variational Bayesian method (Sec. 5).
//
// Structured factorization Pv(T, N, mu) = Pv(T|N) Pv(mu|N) Pv(N):
// conditionally on the total fault count N, the variational posteriors
// are conjugate gammas,
//   omega | N ~ Gamma(m_w + N,        phi_w + 1)
//   beta  | N ~ Gamma(m_b + N alpha0, phi_b + zeta_N),
// where zeta_N = E[sum_i T_i | N] couples with xi_N = E[beta | N]
// through the fixed-point system of Eqs. (24)-(27):
//
//   failure-time data:
//     zeta = sum t_i + (N - m) * Etrunc(T | T > t_e; alpha0, xi)
//   grouped data:
//     zeta = sum_i x_i * Etrunc(T | s_{i-1} < T <= s_i; alpha0, xi)
//          + (N - M) * Etrunc(T | T > s_k; alpha0, xi)
//   both:
//     xi   = (m_b + N alpha0) / (phi_b + zeta)
//
// (the paper's G_Gam(t_e; ...) applied to the residual faults is the
// *survival* function; see DESIGN.md).  For the Goel-Okumoto model with
// failure-time data the system solves in closed form:
//     xi = (m_b + m) / (phi_b + sum t_i + (N - m) t_e).
//
// The mixture weight of each N is the unnormalized Pv(N) of Eq. (28),
// accumulated fully in log space:
//   log w(N) = lgam(a_w) - a_w log b_w + lgam(a_b) - a_b log b_b
//            + log C(N) - N alpha0 log xi + xi zeta,
//   log C(N) = [data-dependent observed-term at rate xi]
//            + (N - M) log Q(alpha0, xi * horizon) - lgam(N - M + 1).
//
// Steps 1-5 of the paper's algorithm adapt the truncation point n_max
// until Pv(n_max) < epsilon.
#pragma once

#include <cstdint>
#include <optional>

#include "bayes/prior.hpp"
#include "core/gamma_mixture.hpp"
#include "data/failure_data.hpp"

namespace vbsrm::nhpp {
class GroupedMassTable;
}

namespace vbsrm::core {

/// Solver for the per-component (zeta, xi) fixed point.  All three stop
/// on the same |g(xi) - xi| residual bound, so they accept the same xi
/// to solver tolerance; only the cost differs (ablation A3).
enum class FixedPointSolver {
  /// Aitken delta-squared extrapolation of the substitution map: its
  /// ~0.7-rate linear contraction becomes quadratic, cutting ~70 zeta
  /// evaluations per component to under 10.
  steffensen,
  /// The paper's plain successive substitution on Eqs. (24)-(27).
  substitution,
  /// Newton on the residual g(xi) - xi (the paper's Sec. 6 conjecture).
  newton,
};

/// Options of the VB2 fit.  The paper's algorithm has one production
/// path; the remaining switches are its tuning constants (n_max,
/// epsilon, the adaptation cap) and the ablation arms (solver,
/// use_closed_form, adapt_n_max).  The fixed-point tolerance (1e-13)
/// and iteration cap (500) are constants of vb2.cpp.
struct Vb2Options {
  std::uint64_t n_max = 200;       // initial truncation point
  double epsilon = 5e-15;          // Step-4 tolerance on Pv(n_max)
  bool adapt_n_max = true;         // double n_max until the test passes
  /// Hard cap for the adaptation.  When the data cannot identify omega
  /// (the paper's D_G-NoInfo case) Pv(N) decays sub-exponentially and
  /// the Step-4 test may never pass; the cap bounds the cost while the
  /// retained mixture already carries virtually all of VB2's own
  /// posterior mass (its tails are far lighter than MCMC's there).
  std::uint64_t n_max_limit = 8192;
  /// Use the GO closed form when available (alpha0 == 1, failure times).
  bool use_closed_form = true;
  FixedPointSolver solver = FixedPointSolver::steffensen;
};

struct Vb2Diagnostics {
  std::uint64_t n_max_used = 0;
  double prob_at_n_max = 0.0;      // Pv(n_max) after normalization
  std::uint64_t n_max_doublings = 0;
  std::uint64_t total_fixed_point_iterations = 0;
  double log_evidence_bound = 0.0;  // log sum of unnormalized Pv(N)
};

class Vb2Estimator {
 public:
  Vb2Estimator(double alpha0, const data::FailureTimeData& d,
               const bayes::PriorPair& priors, const Vb2Options& opt = {});
  Vb2Estimator(double alpha0, const data::GroupedData& d,
               const bayes::PriorPair& priors, const Vb2Options& opt = {});

  const GammaMixturePosterior& posterior() const { return *posterior_; }
  const Vb2Diagnostics& diagnostics() const { return diag_; }

  /// Per-N variational objective as a function of the rate xi: the
  /// fixed point is its stationary point (exposed for property tests
  /// and the solver ablation).
  double component_objective(std::uint64_t n, double xi) const;

  /// Solve the (zeta, xi) fixed point for a given N (exposed for tests).
  std::pair<double, double> solve_component(std::uint64_t n) const;

 private:
  void run(const Vb2Options& opt);

  /// The three lgamma terms of the per-component objective at one N,
  /// either computed directly or advanced by ladder recurrences.
  struct LadderTerms {
    double lg_aw = 0.0;    // lgamma(m_w + N)
    double lg_ab = 0.0;    // lgamma(m_b + N alpha0)
    double lg_rdp1 = 0.0;  // lgamma(N - m + 1)
  };
  struct ComponentResult {
    double zeta = 0.0;
    double xi = 0.0;
    double log_w = 0.0;
    std::uint64_t iterations = 0;
  };

  LadderTerms ladder_exact(std::uint64_t n) const;
  void ladder_advance(LadderTerms& lt, std::uint64_t n) const;  // n -> n+1

  /// Boundary table over the data's bins (grouped) or the horizon
  /// (failure times): scratch for zeta and the log-weight.
  nhpp::GroupedMassTable make_table() const;
  /// E-step expectation zeta(xi, N) through the caller's scratch table.
  double zeta_from_table(nhpp::GroupedMassTable& table, double xi,
                         double nd) const;

  /// Score component N at rate xi: zeta and the unnormalized log Pv(N)
  /// of Eq. (28), from one table evaluation and the ladder terms `lt`.
  ComponentResult score_component(std::uint64_t n, double xi,
                                  const LadderTerms& lt,
                                  nhpp::GroupedMassTable& table) const;
  /// Solve the fixed point from `warm` with the configured solver, then
  /// score the component.
  ComponentResult process_component(std::uint64_t n, double warm,
                                    const LadderTerms& lt,
                                    nhpp::GroupedMassTable& table) const;

  /// Solve + score the ladder [lo, hi] (one stage of the adaptive
  /// n_max loop), appending to the per-component arrays which are
  /// indexed by N - n_min.  `stage_warm` carries the warm-start chain
  /// across stages.  Returns the fixed-point iteration total.
  std::uint64_t sweep_stage(std::uint64_t lo, std::uint64_t hi,
                            std::uint64_t n_min, double& stage_warm,
                            std::vector<double>& log_w,
                            std::vector<double>& zetas,
                            std::vector<double>& xis) const;

  double alpha0_;
  bayes::PriorPair priors_;
  // Data in a scheme-neutral layout.
  bool grouped_ = false;
  std::uint64_t observed_ = 0;
  double horizon_ = 0.0;
  double sum_t_ = 0.0;       // failure-time data only
  double sum_log_t_ = 0.0;   // failure-time data only
  std::vector<double> bounds_;          // grouped only
  std::vector<std::size_t> counts_;     // grouped only
  Vb2Options opt_;           // as passed to the constructor
  double ft_logc_const_ = 0.0;  // (alpha0-1) sum log t - m lgamma(alpha0)

  std::optional<GammaMixturePosterior> posterior_;
  Vb2Diagnostics diag_;
};

}  // namespace vbsrm::core
