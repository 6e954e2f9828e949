// VB1 — the earlier variational Bayes of Okamura, Sakoh & Dohi (2006),
// reconstructed for comparison (the paper's Sec. 5/6 baseline).
//
// It uses the *fully factorized* assumption Pv(U, mu) = Pv(U) Pv(mu)
// (paper Eq. 15): the unobserved data (total fault count N and latent
// failure times) are forced independent of the parameters.  The
// coordinate-ascent updates are:
//
//   q(omega) = Gamma(m_w + E[N],        phi_w + 1)
//   q(beta)  = Gamma(m_b + alpha0 E[N], phi_b + E[sum T])
//   q(N):    the residual count r = N - M is Poisson(lambda) with
//     lambda = exp(E[log omega] + alpha0 (E[log beta] - log xi))
//              * Q(alpha0, xi * horizon),         xi = E[beta],
//   and the latent times are truncated gammas at rate xi, giving
//     E[N]     = M + lambda
//     E[sum T] = (observed time mass at rate xi) + lambda * tail mean.
//
// Because q(omega) and q(beta) are a single product of gammas, VB1's
// posterior has Cov(omega, beta) == 0 by construction — exactly the
// deficiency Table 1 of the paper exhibits (underestimated Var(omega),
// too-narrow intervals).  The returned posterior is a one-component
// GammaMixturePosterior so all downstream functionals are shared.
#pragma once

#include <optional>

#include "bayes/prior.hpp"
#include "core/gamma_mixture.hpp"
#include "data/failure_data.hpp"

namespace vbsrm::core {

struct Vb1Diagnostics {
  int iterations = 0;
  bool converged = false;
  double expected_total_faults = 0.0;  // E[N] at convergence
};

class Vb1Estimator {
 public:
  Vb1Estimator(double alpha0, const data::FailureTimeData& d,
               const bayes::PriorPair& priors);
  Vb1Estimator(double alpha0, const data::GroupedData& d,
               const bayes::PriorPair& priors);

  const GammaMixturePosterior& posterior() const { return *posterior_; }
  const Vb1Diagnostics& diagnostics() const { return diag_; }

 private:
  void run(double alpha0, const bayes::PriorPair& priors, bool grouped,
           std::uint64_t observed, double horizon, double sum_t,
           const std::vector<double>& bounds,
           const std::vector<std::size_t>& counts);

  std::optional<GammaMixturePosterior> posterior_;
  Vb1Diagnostics diag_;
};

}  // namespace vbsrm::core
