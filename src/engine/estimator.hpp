// Unified estimation engine (paper Sec. 4-6 as one API).
//
// The paper's contribution is a *comparison* of five posterior
// approximations — NINT, Laplace, MCMC, VB1, VB2 — on identical data.
// This layer gives them one polymorphic face:
//
//   engine::EstimatorRequest req = ...;        // model + data + priors
//   auto est = engine::make("vb2", req);       // string-keyed registry
//   auto s   = est->summarize();
//   auto ci  = est->interval_omega(0.99);
//   auto r   = est->reliability(1000.0, 0.99);
//
// One adapter template wraps the concrete estimators in src/core and
// src/bayes without re-deriving anything; the paper's VB2 -> NINT
// integration-box seeding (box = [q0.5%/2, q99.5%*1.5] of the VB2
// posterior) lives inside the NINT factory instead of being copy-pasted
// at every call site.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <variant>

#include "bayes/chain.hpp"
#include "bayes/nint.hpp"
#include "bayes/prior.hpp"
#include "bayes/summary.hpp"
#include "core/gamma_mixture.hpp"
#include "core/vb2.hpp"
#include "data/failure_data.hpp"

namespace vbsrm::engine {

/// What a fit actually cost and used, uniformly across methods.  Fields
/// irrelevant to a method stay at their zero defaults.
struct Diagnostics {
  double wall_time_ms = 0.0;          // construction/fit wall time
  std::uint64_t iterations = 0;       // fixed-point / coordinate-ascent
  bool converged = true;              // iterative methods only
  // VB2 (and the VB2 run seeding a NINT box):
  std::uint64_t n_max_used = 0;       // truncation point actually used
  double tail_mass_at_n_max = 0.0;    // Pv(n_max) after normalization
  // NINT:
  std::uint64_t grid_points_per_axis = 0;
  // MCMC:
  std::uint64_t chain_samples = 0;    // collected (post burn-in/thin)
  std::uint64_t variates = 0;         // total random variates generated
  int chains = 0;
};

/// MCMC knobs beyond bayes::McmcOptions: how many independent chains to
/// pool (>1 enables the Gelman-Rubin check, R-hat < 1.01, in
/// `Diagnostics::converged`).
struct McmcEngineOptions {
  bayes::McmcOptions base;
  int chains = 1;
};

/// Everything needed to fit any method on any dataset: model family
/// (alpha0), observation scheme (failure-time or grouped), priors, and
/// the option blocks of the methods that have any.  A request is
/// method-agnostic; the registry picks the block the chosen adapter
/// needs.  VB1, NINT and Laplace run at their fixed settings; NINT's
/// integration box always comes from a VB2 fit with the `vb2` options.
struct EstimatorRequest {
  double alpha0 = 1.0;  // gamma-type shape: 1 = Goel-Okumoto, 2 = S-shaped
  std::variant<data::FailureTimeData, data::GroupedData> data;
  bayes::PriorPair priors;

  core::Vb2Options vb2;
  McmcEngineOptions mcmc;

  EstimatorRequest(double a0, data::FailureTimeData d, bayes::PriorPair p)
      : alpha0(a0), data(std::move(d)), priors(p) {}
  EstimatorRequest(double a0, data::GroupedData d, bayes::PriorPair p)
      : alpha0(a0), data(std::move(d)), priors(p) {}

  bool grouped() const {
    return std::holds_alternative<data::GroupedData>(data);
  }
  /// Observation horizon t_e or s_k.
  double horizon() const;
  /// Observed failure count m / M.
  std::size_t failures() const;
};

/// Polymorphic estimator: the five methods of the paper behind one
/// interface, each answering the paper's three questions — moments
/// (Table 1), credible intervals (Tables 2-3), reliability (Tables 4-5).
class Estimator {
 public:
  virtual ~Estimator() = default;

  /// Canonical registry key ("vb2", "nint", ...).
  virtual std::string_view method() const = 0;

  virtual bayes::PosteriorSummary summarize() const = 0;
  virtual bayes::CredibleInterval interval_omega(double level) const = 0;
  virtual bayes::CredibleInterval interval_beta(double level) const = 0;
  /// Software reliability R(t_e + u | t_e), point + two-sided interval.
  virtual bayes::ReliabilityEstimate reliability(double u,
                                                 double level) const = 0;

  /// The closed-form mixture posterior, when the method has one (VB1,
  /// VB2); nullptr otherwise.  Lets callers reach the predictive /
  /// residual-fault machinery without downcasting.
  virtual const core::GammaMixturePosterior* mixture() const {
    return nullptr;
  }

  const Diagnostics& diagnostics() const { return diag_; }
  /// Engine-internal: the registry stamps construction wall time here.
  void set_wall_time_ms(double ms) { diag_.wall_time_ms = ms; }

 protected:
  Diagnostics diag_;
};

/// Build the shared unnormalized log posterior for a request (used by
/// the NINT/Laplace factories and exposed for callers that need it).
bayes::LogPosterior log_posterior_for(const EstimatorRequest& req);

/// The paper's NINT box rule applied to a VB2 posterior:
/// [q0.5%/2, q99.5%*1.5] per parameter.
bayes::Box nint_box_from(const core::GammaMixturePosterior& posterior);

}  // namespace vbsrm::engine
