// MCMC — Gibbs samplers for gamma-type NHPP posteriors (paper Sec. 4.3).
//
// Failure-time data (Kuo & Yang 1995/96 scheme, generalized to gamma
// priors and any fixed alpha0):
//   r      | omega, beta ~ Poisson(omega * Q(alpha0, beta t_e))
//   omega  | r           ~ Gamma(m_w + m + r, phi_w + 1)
//   beta   | ...           GO (alpha0 = 1): residual lifetimes integrate
//                          out analytically ->
//                            Gamma(m_b + m, phi_b + sum t_i + r t_e);
//                          general alpha0: augment the r unobserved
//                          failure times with truncated-gamma draws and
//                          use full conjugacy:
//                            Gamma(m_b + (m+r) alpha0, phi_b + sum all T).
//
// Grouped data (Tanner-Wong data augmentation, as the paper's Sec. 6
// implementation): the same iteration, preceded by one step that
// re-samples every observed failure's exact time from the gamma law
// truncated to its interval.  Both samplers run one iteration loop whose
// only per-scheme step is that observed total time.  This is why the
// grouped chain costs ~(3 + M) variates per iteration (Table 6:
// 8,610,000 for System 17).  Both samplers throw std::invalid_argument
// when burn_in + thin * samples does not fit in std::size_t.
#pragma once

#include "bayes/chain.hpp"
#include "bayes/prior.hpp"
#include "data/failure_data.hpp"

namespace vbsrm::bayes {

/// Run the failure-time-data Gibbs sampler.
ChainResult gibbs_failure_times(double alpha0, const data::FailureTimeData& d,
                                const PriorPair& priors,
                                const McmcOptions& opt = {});

/// Run the grouped-data Gibbs sampler with data augmentation.
ChainResult gibbs_grouped(double alpha0, const data::GroupedData& d,
                          const PriorPair& priors,
                          const McmcOptions& opt = {});

}  // namespace vbsrm::bayes
