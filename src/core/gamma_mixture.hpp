// The analytically tractable posterior family produced by the VB
// algorithms:
//
//   Pv(omega, beta) = sum_N Pv(N) * Gamma(omega; a_w(N), b_w(N))
//                              * Gamma(beta;  a_b(N), b_b(N)),
//
// a finite mixture over the total fault count N of products of
// independent gamma densities (paper Sec. 5: Pv(mu) = sum_N
// Pv(mu|N) Pv(N)).  VB1's fully factorized posterior is the
// single-component special case.
//
// Everything the paper reports is computed in closed form or by 1-D
// quadrature against this object: joint moments including Cov(omega,
// beta) (omega and beta are independent only *conditionally* on N —
// the mixture carries the correlation VB1 loses), marginal quantiles,
// joint density for contour plots, posterior sampling, and software
// reliability point/interval estimates via Eqs. (31)-(32) with the
// omega-integral done analytically:
//   E[e^{-omega h} | N, beta] = (b_w / (b_w + h))^{a_w}.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "bayes/summary.hpp"
#include "random/rng.hpp"

namespace vbsrm::core {

/// Gamma(shape, rate) marginal with the operations the mixture needs.
struct GammaParams {
  double shape = 1.0;
  double rate = 1.0;

  double mean() const { return shape / rate; }
  double variance() const { return shape / (rate * rate); }
  double cdf(double x) const;
  double quantile(double p) const;
  double log_pdf(double x) const;
};

/// One mixture component: the conditional posterior given N.
struct ProductGammaComponent {
  std::uint64_t n = 0;      // total fault count this component conditions on
  double weight = 0.0;      // Pv(N), normalized over the mixture
  GammaParams omega;        // Pv(omega | N)
  GammaParams beta;         // Pv(beta | N)
};

class GammaMixturePosterior {
 public:
  /// `alpha0` and `horizon` (t_e or s_k) are retained for reliability
  /// functionals.  Weights need not be normalized on input.
  GammaMixturePosterior(std::vector<ProductGammaComponent> components,
                        double alpha0, double horizon);
  ~GammaMixturePosterior();
  GammaMixturePosterior(GammaMixturePosterior&&) noexcept;
  GammaMixturePosterior& operator=(GammaMixturePosterior&&) noexcept;

  const std::vector<ProductGammaComponent>& components() const {
    return components_;
  }
  double alpha0() const { return alpha0_; }
  double horizon() const { return horizon_; }

  bayes::PosteriorSummary summary() const;

  /// Posterior of the total fault count: mean and P(N = n) accessors.
  double mean_total_faults() const;
  double prob_total_faults(std::uint64_t n) const;

  double cdf_omega(double x) const;
  double cdf_beta(double x) const;
  double quantile_omega(double p) const;
  double quantile_beta(double p) const;
  bayes::CredibleInterval interval_omega(double level) const;
  bayes::CredibleInterval interval_beta(double level) const;

  /// Joint density (for the paper's Figure 1 contours).
  double joint_density(double omega, double beta) const;

  /// Draw (omega, beta) from the mixture.
  std::pair<double, double> sample(random::Rng& rng) const;

  /// The reliability functionals (Eqs. 31-32) integrate over each
  /// component's beta marginal with composite Gauss-Legendre (8 panels
  /// x 24 nodes over [q(1e-10), q(1 - 1e-10)]), skipping components
  /// below a 1e-12 weight floor.  The nodes and weight * pdf
  /// coefficients are built once per mixture (thread-safe, on first
  /// use), so every evaluation is a dot product, and one per-u
  /// interval-mass table is shared by the point estimate and all CDF
  /// evaluations of a quantile search.
  ///
  /// Posterior-mean software reliability R(horizon + u | horizon).
  double reliability_point(double u) const;
  /// P(R <= x) over the mixture.
  double reliability_cdf(double x, double u) const;
  double reliability_quantile(double p, double u) const;
  bayes::ReliabilityEstimate reliability(double u, double level) const;

 private:
  // Lazily built per-component quadrature cache (definitions in the
  // .cpp): nodes, pdf-weight coefficients, and omega parameters for
  // every component above the functional weight floor.
  struct FunctionalCache;
  struct CacheSlot;
  struct HTable;
  const FunctionalCache& functional_cache() const;
  /// Per-node h = Lambda-increment table for one mission length u,
  /// indexed [cached component][node], plus the derived b_w/h factors
  /// the CDF integrand needs; shared across the CDF evaluations of a
  /// quantile search and the point estimate.
  HTable make_h_table(const FunctionalCache& fc, double u) const;
  double reliability_point_from(const FunctionalCache& fc,
                                const HTable& h) const;
  double reliability_cdf_from(double x, const FunctionalCache& fc,
                              const HTable& h) const;
  double reliability_quantile_from(double p, const FunctionalCache& fc,
                                   const HTable& h) const;

  std::vector<ProductGammaComponent> components_;
  double alpha0_;
  double horizon_;
  std::vector<double> cum_weights_;  // prefix sums for sample()
  mutable std::unique_ptr<CacheSlot> cache_slot_;
};

}  // namespace vbsrm::core
