#include "nhpp/likelihood.hpp"

#include <cmath>
#include <limits>

#include "math/specfun.hpp"

namespace vbsrm::nhpp {

namespace m = vbsrm::math;

double log_likelihood(const GammaTypeModel& model,
                      const data::FailureTimeData& d) {
  const auto& law = model.law();
  double ll = 0.0;
  for (double t : d.times()) ll += law.log_pdf(t, model.beta());
  ll += static_cast<double>(d.count()) * std::log(model.omega());
  ll -= model.omega() * law.cdf(d.observation_end(), model.beta());
  return ll;
}

double log_likelihood(const GammaTypeModel& model,
                      const data::GroupedData& d) {
  const auto& law = model.law();
  double ll = 0.0;
  for (std::size_t i = 0; i < d.intervals(); ++i) {
    const double x = static_cast<double>(d.counts()[i]);
    if (x > 0.0) {
      ll += x * law.log_interval_mass(d.left_edge(i), d.right_edge(i),
                                      model.beta());
    }
    ll -= m::log_gamma(x + 1.0);
  }
  ll += static_cast<double>(d.total_failures()) * std::log(model.omega());
  ll -= model.omega() * law.cdf(d.observation_end(), model.beta());
  return ll;
}

namespace {

template <typename Data>
double log_likelihood_at_impl(double alpha0, double omega, double beta,
                              const Data& d) {
  if (!(omega > 0.0) || !(beta > 0.0) || !std::isfinite(omega) ||
      !std::isfinite(beta)) {
    return -std::numeric_limits<double>::infinity();
  }
  return log_likelihood(GammaTypeModel(alpha0, omega, beta), d);
}

}  // namespace

double log_likelihood_at(double alpha0, double omega, double beta,
                         const data::FailureTimeData& d) {
  return log_likelihood_at_impl(alpha0, omega, beta, d);
}

double log_likelihood_at(double alpha0, double omega, double beta,
                         const data::GroupedData& d) {
  return log_likelihood_at_impl(alpha0, omega, beta, d);
}

double aic(double max_log_likelihood, int params) {
  return 2.0 * params - 2.0 * max_log_likelihood;
}

}  // namespace vbsrm::nhpp
