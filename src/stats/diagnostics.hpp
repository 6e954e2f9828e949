// MCMC chain diagnostics: autocorrelation and effective sample size.
#pragma once

#include <span>
#include <vector>

namespace vbsrm::stats {

/// Sample autocorrelation at the given lags (lag 0 == 1).
std::vector<double> autocorrelation(std::span<const double> x, int max_lag);

/// Effective sample size via Geyer's initial positive sequence of
/// summed autocorrelation pairs.
double effective_sample_size(std::span<const double> x);

}  // namespace vbsrm::stats
