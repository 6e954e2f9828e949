#include "engine/adapters.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "bayes/gibbs.hpp"
#include "bayes/laplace.hpp"
#include "bayes/multichain.hpp"
#include "core/vb1.hpp"

namespace vbsrm::engine {

double EstimatorRequest::horizon() const {
  return std::visit([](const auto& d) { return d.observation_end(); }, data);
}

std::size_t EstimatorRequest::failures() const {
  if (const auto* ft = std::get_if<data::FailureTimeData>(&data)) {
    return ft->count();
  }
  return std::get<data::GroupedData>(data).total_failures();
}

bayes::LogPosterior log_posterior_for(const EstimatorRequest& req) {
  return std::visit(
      [&](const auto& d) {
        return bayes::LogPosterior(req.alpha0, d, req.priors);
      },
      req.data);
}

bayes::Box nint_box_from(const core::GammaMixturePosterior& posterior) {
  return bayes::Box::from_quantiles(
      posterior.quantile_omega(0.005), posterior.quantile_omega(0.995),
      posterior.quantile_beta(0.005), posterior.quantile_beta(0.995));
}

namespace adapters {
namespace {

/// The one Estimator over a fitted object.  Every query goes to the
/// object's posterior: VB1 and VB2 reach their gamma mixture through
/// posterior(), NINT, Laplace and the MCMC chain answer themselves.
template <typename Fitted>
class Adapter final : public Estimator {
 public:
  Adapter(std::string_view method, Fitted fitted, const Diagnostics& diag)
      : method_(method), fitted_(std::move(fitted)) {
    diag_ = diag;
  }

  std::string_view method() const override { return method_; }
  bayes::PosteriorSummary summarize() const override {
    return posterior().summary();
  }
  bayes::CredibleInterval interval_omega(double level) const override {
    return posterior().interval_omega(level);
  }
  bayes::CredibleInterval interval_beta(double level) const override {
    return posterior().interval_beta(level);
  }
  bayes::ReliabilityEstimate reliability(double u,
                                         double level) const override {
    return posterior().reliability(u, level);
  }
  const core::GammaMixturePosterior* mixture() const override {
    if constexpr (std::is_same_v<std::decay_t<decltype(posterior())>,
                                 core::GammaMixturePosterior>) {
      return &posterior();
    } else {
      return nullptr;
    }
  }

 private:
  const auto& posterior() const {
    if constexpr (requires { fitted_.posterior(); }) {
      return fitted_.posterior();
    } else {
      return fitted_;
    }
  }

  std::string_view method_;
  Fitted fitted_;
};

template <typename Fitted>
std::unique_ptr<Estimator> wrap(std::string_view method, Fitted fitted,
                                const Diagnostics& diag) {
  return std::make_unique<Adapter<Fitted>>(method, std::move(fitted), diag);
}

core::Vb2Estimator fit_vb2(const EstimatorRequest& req) {
  return std::visit(
      [&](const auto& d) {
        return core::Vb2Estimator(req.alpha0, d, req.priors, req.vb2);
      },
      req.data);
}

Diagnostics vb2_diagnostics(const core::Vb2Estimator& vb2) {
  Diagnostics diag;
  diag.iterations = vb2.diagnostics().total_fixed_point_iterations;
  diag.n_max_used = vb2.diagnostics().n_max_used;
  diag.tail_mass_at_n_max = vb2.diagnostics().prob_at_n_max;
  return diag;
}

}  // namespace

std::unique_ptr<Estimator> make_vb2(const EstimatorRequest& req) {
  core::Vb2Estimator vb2 = fit_vb2(req);
  const Diagnostics diag = vb2_diagnostics(vb2);
  return wrap("vb2", std::move(vb2), diag);
}

std::unique_ptr<Estimator> make_vb1(const EstimatorRequest& req) {
  core::Vb1Estimator vb1 = std::visit(
      [&](const auto& d) {
        return core::Vb1Estimator(req.alpha0, d, req.priors);
      },
      req.data);
  Diagnostics diag;
  diag.iterations = static_cast<std::uint64_t>(vb1.diagnostics().iterations);
  diag.converged = vb1.diagnostics().converged;
  return wrap("vb1", std::move(vb1), diag);
}

/// The paper's box-seeding dependency: run VB2 on the same request and
/// apply the quantile rule.  The diagnostics are that VB2 run's.
std::unique_ptr<Estimator> make_nint(const EstimatorRequest& req) {
  const core::Vb2Estimator vb2 = fit_vb2(req);
  Diagnostics diag = vb2_diagnostics(vb2);
  const bayes::NintOptions grid;
  diag.grid_points_per_axis = static_cast<std::uint64_t>(grid.panels) *
                              static_cast<std::uint64_t>(grid.order);
  return wrap("nint",
              bayes::NintEstimator(log_posterior_for(req),
                                   nint_box_from(vb2.posterior()), grid),
              diag);
}

std::unique_ptr<Estimator> make_laplace(const EstimatorRequest& req) {
  return wrap("laplace", bayes::LaplaceEstimator(log_posterior_for(req)),
              Diagnostics{});
}

std::unique_ptr<Estimator> make_mcmc(const EstimatorRequest& req) {
  const McmcEngineOptions& opt = req.mcmc;
  const std::function<bayes::ChainResult(const bayes::McmcOptions&)>
      run_one = [&](const bayes::McmcOptions& o) {
        return std::visit(
            [&](const auto& d) {
              if constexpr (std::is_same_v<std::decay_t<decltype(d)>,
                                           data::GroupedData>) {
                return bayes::gibbs_grouped(req.alpha0, d, req.priors, o);
              } else {
                return bayes::gibbs_failure_times(req.alpha0, d, req.priors,
                                                  o);
              }
            },
            req.data);
      };
  Diagnostics diag;
  diag.chains = std::max(opt.chains, 1);
  bayes::ChainResult chain = [&] {
    if (opt.chains <= 1) return run_one(opt.base);
    bayes::MultiChainResult multi = bayes::run_chains(
        opt.chains, req.alpha0, req.horizon(), opt.base, run_one);
    diag.converged = multi.converged();
    return std::move(multi.pooled);
  }();
  diag.chain_samples = chain.size();
  diag.variates = chain.variates_generated();
  return wrap("mcmc", std::move(chain), diag);
}

}  // namespace adapters
}  // namespace vbsrm::engine
