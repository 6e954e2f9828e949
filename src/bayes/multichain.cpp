#include "bayes/multichain.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "stats/descriptive.hpp"

namespace vbsrm::bayes {

double cross_chain_rhat(const std::vector<std::vector<double>>& chains) {
  if (chains.size() < 2) {
    throw std::invalid_argument("cross_chain_rhat: need >= 2 chains");
  }
  const std::size_t n = chains.front().size();
  for (const auto& c : chains) {
    if (c.size() != n || n < 2) {
      throw std::invalid_argument("cross_chain_rhat: ragged/short chains");
    }
  }
  std::vector<double> means, vars;
  for (const auto& c : chains) {
    means.push_back(stats::mean(c));
    vars.push_back(stats::variance(c));
  }
  const double w = stats::mean(vars);
  const double b = stats::variance(means) * static_cast<double>(n);
  const double var_plus =
      (static_cast<double>(n) - 1.0) / static_cast<double>(n) * w +
      b / static_cast<double>(n);
  if (w <= 0.0) return 1.0;
  return std::sqrt(var_plus / w);
}

MultiChainResult run_chains(
    int n_chains, double alpha0, double horizon, const McmcOptions& base,
    const std::function<ChainResult(const McmcOptions&)>& run_one) {
  if (n_chains < 2) {
    throw std::invalid_argument("run_chains: need >= 2 chains");
  }
  std::vector<ChainResult> runs;
  runs.reserve(static_cast<std::size_t>(n_chains));
  for (int c = 0; c < n_chains; ++c) {
    McmcOptions opt = base;
    opt.seed = base.seed + 0x9E3779B9ull * static_cast<std::uint64_t>(c + 1);
    runs.push_back(run_one(opt));
  }

  MultiChainResult out{.chains = {},
                       .rhat_omega = 0.0,
                       .rhat_beta = 0.0,
                       .pooled = ChainResult({1.0}, {1.0}, alpha0, horizon, 0)};
  std::vector<std::vector<double>> omegas, betas;
  std::vector<double> pooled_omega, pooled_beta;
  std::size_t variates = 0;
  for (ChainResult& chain : runs) {
    omegas.push_back(chain.omega());
    betas.push_back(chain.beta());
    pooled_omega.insert(pooled_omega.end(), chain.omega().begin(),
                        chain.omega().end());
    pooled_beta.insert(pooled_beta.end(), chain.beta().begin(),
                       chain.beta().end());
    variates += chain.variates_generated();
    out.chains.push_back(std::move(chain));
  }
  out.rhat_omega = cross_chain_rhat(omegas);
  out.rhat_beta = cross_chain_rhat(betas);
  out.pooled = ChainResult(std::move(pooled_omega), std::move(pooled_beta),
                           alpha0, horizon, variates);
  return out;
}

}  // namespace vbsrm::bayes
