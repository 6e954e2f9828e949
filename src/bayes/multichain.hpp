// Multi-chain MCMC: run several independently seeded Gibbs chains,
// compute the cross-chain potential scale reduction factor (R-hat,
// Gelman-Rubin), and pool the draws.  Production users should not trust
// a single chain; this wraps the discipline up.
//
// Chain c is seeded from the base seed and its index alone, and the
// chains are pooled in index order.
#pragma once

#include <functional>
#include <vector>

#include "bayes/gibbs.hpp"

namespace vbsrm::bayes {

struct MultiChainResult {
  std::vector<ChainResult> chains;
  double rhat_omega = 0.0;
  double rhat_beta = 0.0;
  /// All chains concatenated (valid once R-hat ~ 1).
  ChainResult pooled;

  bool converged(double threshold = 1.01) const {
    return rhat_omega < threshold && rhat_beta < threshold;
  }
};

/// Cross-chain R-hat for an arbitrary selector over equal-length chains.
double cross_chain_rhat(const std::vector<std::vector<double>>& chains);

/// Run `n_chains` (>= 2) chains of `run_one`, each with `base` but its
/// own seed, and pool them.  `alpha0` and `horizon` are the model's, for
/// the pooled chain's reliability functionals.
MultiChainResult run_chains(
    int n_chains, double alpha0, double horizon, const McmcOptions& base,
    const std::function<ChainResult(const McmcOptions&)>& run_one);

}  // namespace vbsrm::bayes
