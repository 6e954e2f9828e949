#include "engine/adapters.hpp"

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

core::Vb2Estimator fit_vb2(const EstimatorRequest& req) {
  return std::visit(
      [&](const auto& d) {
        return core::Vb2Estimator(req.alpha0, d, req.priors, req.vb2);
      },
      req.data);
}

class Vb2Adapter final : public Estimator {
 public:
  explicit Vb2Adapter(const EstimatorRequest& req) : est_(fit_vb2(req)) {
    diag_.iterations = est_.diagnostics().total_fixed_point_iterations;
    diag_.n_max_used = est_.diagnostics().n_max_used;
    diag_.tail_mass_at_n_max = est_.diagnostics().prob_at_n_max;
  }

  std::string_view method() const override { return "vb2"; }
  bayes::PosteriorSummary summarize() const override {
    return est_.posterior().summary();
  }
  bayes::CredibleInterval interval_omega(double level) const override {
    return est_.posterior().interval_omega(level);
  }
  bayes::CredibleInterval interval_beta(double level) const override {
    return est_.posterior().interval_beta(level);
  }
  bayes::ReliabilityEstimate reliability(double u,
                                         double level) const override {
    return est_.posterior().reliability(u, level);
  }
  const core::GammaMixturePosterior* mixture() const override {
    return &est_.posterior();
  }

 private:
  core::Vb2Estimator est_;
};

class Vb1Adapter final : public Estimator {
 public:
  explicit Vb1Adapter(const EstimatorRequest& req)
      : est_(std::visit(
            [&](const auto& d) {
              return core::Vb1Estimator(req.alpha0, d, req.priors);
            },
            req.data)) {
    diag_.iterations =
        static_cast<std::uint64_t>(est_.diagnostics().iterations);
    diag_.converged = est_.diagnostics().converged;
  }

  std::string_view method() const override { return "vb1"; }
  bayes::PosteriorSummary summarize() const override {
    return est_.posterior().summary();
  }
  bayes::CredibleInterval interval_omega(double level) const override {
    return est_.posterior().interval_omega(level);
  }
  bayes::CredibleInterval interval_beta(double level) const override {
    return est_.posterior().interval_beta(level);
  }
  bayes::ReliabilityEstimate reliability(double u,
                                         double level) const override {
    return est_.posterior().reliability(u, level);
  }
  const core::GammaMixturePosterior* mixture() const override {
    return &est_.posterior();
  }

 private:
  core::Vb1Estimator est_;
};

class NintAdapter final : public Estimator {
 public:
  explicit NintAdapter(const EstimatorRequest& req)
      : est_(log_posterior_for(req), vb2_box(req, diag_)) {
    const bayes::NintOptions grid;
    diag_.grid_points_per_axis = static_cast<std::uint64_t>(grid.panels) *
                                 static_cast<std::uint64_t>(grid.order);
  }

  std::string_view method() const override { return "nint"; }
  bayes::PosteriorSummary summarize() const override { return est_.summary(); }
  bayes::CredibleInterval interval_omega(double level) const override {
    return est_.interval_omega(level);
  }
  bayes::CredibleInterval interval_beta(double level) const override {
    return est_.interval_beta(level);
  }
  bayes::ReliabilityEstimate reliability(double u,
                                         double level) const override {
    return est_.reliability(u, level);
  }

 private:
  /// The paper's box-seeding dependency: run VB2 on the same request
  /// and apply the quantile rule.
  static bayes::Box vb2_box(const EstimatorRequest& req, Diagnostics& diag) {
    const core::Vb2Estimator vb2 = fit_vb2(req);
    diag.iterations = vb2.diagnostics().total_fixed_point_iterations;
    diag.n_max_used = vb2.diagnostics().n_max_used;
    diag.tail_mass_at_n_max = vb2.diagnostics().prob_at_n_max;
    return nint_box_from(vb2.posterior());
  }

  bayes::NintEstimator est_;
};

class LaplaceAdapter final : public Estimator {
 public:
  explicit LaplaceAdapter(const EstimatorRequest& req)
      : est_(log_posterior_for(req)) {}

  std::string_view method() const override { return "laplace"; }
  bayes::PosteriorSummary summarize() const override { return est_.summary(); }
  bayes::CredibleInterval interval_omega(double level) const override {
    return est_.interval_omega(level);
  }
  bayes::CredibleInterval interval_beta(double level) const override {
    return est_.interval_beta(level);
  }
  bayes::ReliabilityEstimate reliability(double u,
                                         double level) const override {
    return est_.reliability(u, level);
  }

 private:
  bayes::LaplaceEstimator est_;
};

class McmcAdapter final : public Estimator {
 public:
  explicit McmcAdapter(const EstimatorRequest& req) {
    const McmcEngineOptions& opt = req.mcmc;
    if (opt.chains <= 1) {
      chain_ = std::visit(
          [&](const auto& d) {
            if constexpr (std::is_same_v<std::decay_t<decltype(d)>,
                                         data::GroupedData>) {
              return bayes::gibbs_grouped(req.alpha0, d, req.priors, opt.base);
            } else {
              return bayes::gibbs_failure_times(req.alpha0, d, req.priors,
                                                opt.base);
            }
          },
          req.data);
      diag_.chains = 1;
    } else {
      auto multi = std::visit(
          [&](const auto& d) {
            if constexpr (std::is_same_v<std::decay_t<decltype(d)>,
                                         data::GroupedData>) {
              return bayes::gibbs_grouped_chains(opt.chains, req.alpha0, d,
                                                 req.priors, opt.base);
            } else {
              return bayes::gibbs_failure_times_chains(
                  opt.chains, req.alpha0, d, req.priors, opt.base);
            }
          },
          req.data);
      diag_.converged = multi.converged();
      diag_.chains = opt.chains;
      chain_ = std::move(multi.pooled);
    }
    diag_.chain_samples = chain_->size();
    diag_.variates = chain_->variates_generated();
  }

  std::string_view method() const override { return "mcmc"; }
  bayes::PosteriorSummary summarize() const override {
    return chain_->summary();
  }
  bayes::CredibleInterval interval_omega(double level) const override {
    return chain_->interval_omega(level);
  }
  bayes::CredibleInterval interval_beta(double level) const override {
    return chain_->interval_beta(level);
  }
  bayes::ReliabilityEstimate reliability(double u,
                                         double level) const override {
    return chain_->reliability(u, level);
  }

 private:
  std::optional<bayes::ChainResult> chain_;
};

}  // namespace

std::unique_ptr<Estimator> make_vb2(const EstimatorRequest& req) {
  return std::make_unique<Vb2Adapter>(req);
}
std::unique_ptr<Estimator> make_vb1(const EstimatorRequest& req) {
  return std::make_unique<Vb1Adapter>(req);
}
std::unique_ptr<Estimator> make_nint(const EstimatorRequest& req) {
  return std::make_unique<NintAdapter>(req);
}
std::unique_ptr<Estimator> make_laplace(const EstimatorRequest& req) {
  return std::make_unique<LaplaceAdapter>(req);
}
std::unique_ptr<Estimator> make_mcmc(const EstimatorRequest& req) {
  return std::make_unique<McmcAdapter>(req);
}

}  // namespace adapters
}  // namespace vbsrm::engine
