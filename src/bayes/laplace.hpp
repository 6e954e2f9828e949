// LAPL — Laplace approximation (paper Sec. 4.2): the joint posterior is
// approximated by a bivariate normal centered at the MAP estimate with
// covariance equal to the inverse negative Hessian of the log posterior
// at the MAP.  With flat priors this reduces to the classical
// MLE/observed-information confidence intervals (Yamada & Osaki 1985).
//
// Reliability inference uses the plug-in MAP point estimate and the
// delta method for the interval; as the paper shows, the symmetric
// normal approximation can produce bounds outside [0, 1] — these are
// reported as-is and flagged by `reliability_estimate_out_of_range`.
#pragma once

#include "bayes/posterior.hpp"
#include "bayes/summary.hpp"
#include "math/linalg.hpp"

namespace vbsrm::bayes {

class LaplaceEstimator {
 public:
  explicit LaplaceEstimator(LogPosterior posterior);

  double map_omega() const { return map_omega_; }
  double map_beta() const { return map_beta_; }
  const math::Matrix& covariance() const { return cov_; }

  /// Moments of the approximating normal (mean == MAP).
  PosteriorSummary summary() const;

  CredibleInterval interval_omega(double level) const;
  CredibleInterval interval_beta(double level) const;

  /// Normal joint density of the approximation (for contour plots).
  double joint_density(double omega, double beta) const;

  /// Plug-in reliability with delta-method interval; bounds may fall
  /// outside [0, 1] (the approximation's known defect).
  ReliabilityEstimate reliability(double u, double level) const;
  static bool reliability_estimate_out_of_range(const ReliabilityEstimate& r);

 private:
  LogPosterior posterior_;
  double map_omega_ = 0.0;
  double map_beta_ = 0.0;
  math::Matrix cov_;
};

}  // namespace vbsrm::bayes
