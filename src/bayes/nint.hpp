// NINT — direct numerical integration of the joint posterior (paper
// Sec. 4.1 / 6).  A composite Gauss-Legendre product grid is laid over
// a finite box in (omega, beta); the unnormalized log posterior is
// evaluated on the grid once, and every downstream functional (moments,
// marginal quantiles, reliability point estimates per Eq. 31 and
// reliability quantiles per Eq. 32) is a weighted sum over that grid.
//
// As in the paper, the integration box is best chosen from the VB2
// posterior: [q_{0.5%}/2, q_{99.5%} * 1.5] per parameter.
#pragma once

#include <vector>

#include "bayes/posterior.hpp"
#include "bayes/summary.hpp"

namespace vbsrm::bayes {

/// Finite integration box.
struct Box {
  double omega_lo = 0.0, omega_hi = 0.0;
  double beta_lo = 0.0, beta_hi = 0.0;

  /// The paper's rule: lower = q0.5% / 2, upper = q99.5% * 1.5.
  static Box from_quantiles(double omega_q005, double omega_q995,
                            double beta_q005, double beta_q995);
};

struct NintOptions {
  int panels = 48;  // panels per axis
  int order = 8;    // Gauss-Legendre points per panel
};

class NintEstimator {
 public:
  NintEstimator(LogPosterior posterior, Box box, NintOptions opt = {});

  PosteriorSummary summary() const;

  double quantile_omega(double p) const;
  double quantile_beta(double p) const;
  CredibleInterval interval_omega(double level) const;
  CredibleInterval interval_beta(double level) const;

  /// Normalized joint density at an arbitrary point (for contour plots).
  double joint_density(double omega, double beta) const;

  /// Posterior-mean software reliability R(t_e + u | t_e), Eq. (31).
  double reliability_point(double u) const;
  /// P(R <= x) for the reliability over (t_e, t_e + u].
  double reliability_cdf(double x, double u) const;
  /// Reliability quantile by bisection on the cdf, Eq. (32).
  double reliability_quantile(double p, double u) const;
  ReliabilityEstimate reliability(double u, double level) const;

 private:
  double node_weight_sum(std::size_t beta_index, double omega_cut) const;

  LogPosterior posterior_;
  std::vector<double> omega_nodes_;
  std::vector<double> beta_nodes_;
  // Normalized cell masses: mass_[i * nbeta + j] = w_i w_j post_ij / Z.
  std::vector<double> mass_;
  double log_z_ = 0.0;
};

}  // namespace vbsrm::bayes
