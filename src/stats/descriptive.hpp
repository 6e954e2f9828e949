// Descriptive statistics over samples.
#pragma once

#include <span>
#include <vector>

namespace vbsrm::stats {

double mean(std::span<const double> x);

/// Unbiased (n-1) sample variance.
double variance(std::span<const double> x);

/// Unbiased sample covariance of two equal-length samples.
double covariance(std::span<const double> x, std::span<const double> y);

/// Sample skewness (biased, moment estimator m3 / m2^{3/2}).
double skewness(std::span<const double> x);

/// k-th central moment (biased, 1/n normalization).
double central_moment(std::span<const double> x, int k);

struct Summary {
  double mean = 0.0;
  double variance = 0.0;
  double sd = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t n = 0;
};

Summary summarize(std::span<const double> x);

}  // namespace vbsrm::stats
