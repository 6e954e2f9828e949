// Empirical quantiles.  The MCMC estimators derive credible intervals
// from order statistics exactly the way the paper does (e.g. the 500th
// smallest of 20000 samples for the 2.5% point).
#pragma once

#include <span>

namespace vbsrm::stats {

/// Order-statistic quantile: the ceil(p*n)-th smallest sample (1-based),
/// matching the paper's MCMC interval rule.  p in (0, 1].
double order_statistic_quantile(std::span<const double> x, double p);

}  // namespace vbsrm::stats
