// Non-uniform random variate generation built on Rng: exponential,
// normal (Marsaglia polar), gamma (Marsaglia-Tsang with the shape<1
// boost), Poisson (inversion for small mean, PTRS-style rejection for
// large) and truncated gamma (the workhorse of the grouped-data
// Gibbs sampler).  All samplers take the Rng by reference and are
// deterministic given the seed.
#pragma once

#include <cstdint>
#include <vector>

#include "random/rng.hpp"

namespace vbsrm::random {

/// Exponential with rate lambda > 0.
double sample_exponential(Rng& rng, double lambda);

/// Standard normal.
double sample_normal(Rng& rng);

/// Normal with given mean and standard deviation (sd >= 0).
double sample_normal(Rng& rng, double mean, double sd);

/// Gamma with shape > 0 and rate > 0 (mean shape/rate).
double sample_gamma(Rng& rng, double shape, double rate);

/// Poisson with mean >= 0.
std::uint64_t sample_poisson(Rng& rng, double mean);

/// Gamma(shape, rate) conditioned on lo < X <= hi.  Either bound may be
/// 0 / +infinity.  Uses inverse-cdf sampling through the regularized
/// incomplete gamma (accurate in tails via log-scale bounds), falling
/// back to rejection when the conditioning region has large mass.
double sample_truncated_gamma(Rng& rng, double shape, double rate, double lo,
                              double hi);

/// n i.i.d. draws convenience helper.
std::vector<double> sample_gamma_many(Rng& rng, std::size_t n, double shape,
                                      double rate);

}  // namespace vbsrm::random
