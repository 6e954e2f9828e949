// Shared scaffolding for the reproduction benches: the paper's prior
// scenarios, engine requests for them, wall-clock timing, and
// fixed-width table printing with paper-vs-measured rows.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>

#include "bayes/prior.hpp"
#include "data/datasets.hpp"
#include "engine/batch.hpp"
#include "engine/registry.hpp"

namespace vbsrm::bench {

/// Registry keys in the paper's presentation order (NINT is the
/// reference and comes first), with the table row labels.
struct MethodRow {
  const char* key;
  const char* label;
};
inline const MethodRow kPaperMethods[] = {{"nint", "NINT"},
                                          {"laplace", "LAPL"},
                                          {"mcmc", "MCMC"},
                                          {"vb1", "VB1"},
                                          {"vb2", "VB2"}};

/// Engine request for a paper scenario (GO model, alpha0 = 1).
template <typename Data>
engine::EstimatorRequest paper_request(const Data& data,
                                       const bayes::PriorPair& priors,
                                       std::uint64_t mcmc_seed) {
  engine::EstimatorRequest req(1.0, data, priors);
  req.mcmc.base.seed = mcmc_seed;
  return req;
}

/// The paper's "Info" priors (Sec. 6): good guesses for the parameters.
inline bayes::PriorPair info_priors_dt() {
  return {bayes::GammaPrior::from_mean_sd(50.0, 15.8),
          bayes::GammaPrior::from_mean_sd(1.0e-5, 3.2e-6)};
}

inline bayes::PriorPair info_priors_dg() {
  return {bayes::GammaPrior::from_mean_sd(50.0, 15.8),
          bayes::GammaPrior::from_mean_sd(3.3e-2, 1.1e-2)};
}

/// The paper's "NoInfo" scenario: flat densities.
inline bayes::PriorPair noinfo_priors() { return bayes::PriorPair::flat(); }

/// Wall-clock seconds of a callable.
template <typename F>
double time_seconds(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void print_rule() {
  std::printf("%s\n", std::string(78, '-').c_str());
}

/// Relative deviation in percent, formatted like the paper's tables.
inline double rel_dev_pct(double value, double reference) {
  if (reference == 0.0) return 0.0;
  return 100.0 * (value - reference) / reference;
}

}  // namespace vbsrm::bench
