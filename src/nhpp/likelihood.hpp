// Log-likelihood of gamma-type NHPP models under both observation
// schemes (paper Eqs. 4 and 5), plus sufficient-statistic helpers shared
// by the MLE, EM, MAP and Bayesian estimators.
#pragma once

#include "data/failure_data.hpp"
#include "nhpp/model.hpp"

namespace vbsrm::nhpp {

/// Eq. (4):  sum_i log g(t_i) + m log omega - omega G(t_e).
double log_likelihood(const GammaTypeModel& model,
                      const data::FailureTimeData& d);

/// Eq. (5):  sum_i x_i log(G(s_i)-G(s_{i-1})) + (sum x_i) log omega
///           - sum_i log x_i! - omega G(s_k).
double log_likelihood(const GammaTypeModel& model, const data::GroupedData& d);

/// Log-likelihood as a function of (omega, beta) for fixed alpha0 —
/// the form optimizers consume.  Returns -inf off the domain.
double log_likelihood_at(double alpha0, double omega, double beta,
                         const data::FailureTimeData& d);
double log_likelihood_at(double alpha0, double omega, double beta,
                         const data::GroupedData& d);

/// Akaike information criterion for a fitted model (2 free parameters:
/// omega and beta).
double aic(double max_log_likelihood, int params = 2);

}  // namespace vbsrm::nhpp
