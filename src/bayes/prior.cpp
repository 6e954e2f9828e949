#include "bayes/prior.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "math/specfun.hpp"

namespace vbsrm::bayes {

GammaPrior GammaPrior::from_mean_sd(double mean, double sd) {
  if (!(mean > 0.0) || !(sd > 0.0)) {
    throw std::invalid_argument("GammaPrior::from_mean_sd: need mean, sd > 0");
  }
  const double shape = (mean / sd) * (mean / sd);
  return {shape, shape / mean};
}

double GammaPrior::mean() const {
  if (is_flat()) return std::numeric_limits<double>::infinity();
  return shape / rate;
}

double GammaPrior::sd() const {
  if (is_flat()) return std::numeric_limits<double>::infinity();
  return std::sqrt(shape) / rate;
}

double GammaPrior::log_density(double x) const {
  if (!(x > 0.0)) return -std::numeric_limits<double>::infinity();
  if (is_flat()) return 0.0;
  return shape * std::log(rate) + (shape - 1.0) * std::log(x) - rate * x -
         math::log_gamma(shape);
}

}  // namespace vbsrm::bayes
