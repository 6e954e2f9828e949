// NHPP sample-path generation for gamma-type (and generic mean-value)
// software reliability models.  Used by tests (recovering known truth),
// benches (ablation workloads), and the synthetic System 17 stand-in.
#pragma once

#include <functional>
#include <vector>

#include "data/failure_data.hpp"
#include "random/rng.hpp"

namespace vbsrm::data {

/// Simulate the finite-failures NHPP of the paper's Section 2 exactly:
/// draw N ~ Poisson(omega), then N i.i.d. failure times from the gamma
/// distribution with shape alpha0 and rate beta; return those <= t_e as
/// a FailureTimeData.
FailureTimeData simulate_gamma_nhpp(random::Rng& rng, double omega,
                                    double alpha0, double beta, double te);

/// Same stochastic model, but delivered as grouped counts over
/// `intervals` equal-width intervals covering (0, t_e].
GroupedData simulate_gamma_nhpp_grouped(random::Rng& rng, double omega,
                                        double alpha0, double beta, double te,
                                        std::size_t intervals);

/// Deterministic "expected path": place m points at Lambda^{-1}(i - 1/2)
/// of the mean value function, i = 1..m.  Produces a maximally regular
/// realization whose MLE lands very close to the generating parameters;
/// used to manufacture well-behaved reference datasets.
std::vector<double> expected_order_statistics(
    const std::function<double(double)>& mean_value, double te,
    std::size_t m);

}  // namespace vbsrm::data
