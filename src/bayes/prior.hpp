// Prior specifications.  The paper uses independent gamma priors for
// omega and beta (conjugate for the complete-data likelihood), with the
// "NoInfo" scenario using flat (improper, P ∝ 1) densities.
#pragma once

namespace vbsrm::bayes {

/// Gamma(shape, rate) prior; `rate == 0 && shape == 1` encodes the flat
/// improper prior P(x) ∝ 1 (log density 0 everywhere on (0, inf)).
struct GammaPrior {
  double shape = 1.0;
  double rate = 0.0;

  /// Construct from a mean/sd "good guess" (the paper's Info scenario).
  static GammaPrior from_mean_sd(double mean, double sd);

  /// Flat improper prior P(x) ∝ 1.
  static GammaPrior flat() { return {1.0, 0.0}; }

  bool is_flat() const { return rate == 0.0; }
  double mean() const;  // +inf for flat
  double sd() const;    // +inf for flat
  double log_density(double x) const;
};

/// The pair of independent priors on (omega, beta).
struct PriorPair {
  GammaPrior omega;
  GammaPrior beta;

  static PriorPair flat() { return {GammaPrior::flat(), GammaPrior::flat()}; }
};

}  // namespace vbsrm::bayes
