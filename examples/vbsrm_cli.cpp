// vbsrm_cli — command-line front end for the library.
//
//   vbsrm_cli fit      <times.csv> <t_e> [--alpha0 A] [--prior-omega M SD]
//                                        [--prior-beta M SD] [--level L]
//                                        [--method NAME] [--json]
//   vbsrm_cli grouped  <counts.csv>      [same options]
//   vbsrm_cli predict  <times.csv> <t_e> <u> [same options]
//   vbsrm_cli methods
//   vbsrm_cli demo
//
// Estimation goes through the unified engine: --method picks any
// registered posterior approximation (vbsrm_cli methods lists them;
// default vb2).  CSV formats: `fit`/`predict` read one failure time per
// line ('#' comments allowed); `grouped` reads "boundary,count" lines.
// Without --prior-* options, flat priors are used.  Every number must
// parse whole and finite, or the usage text is printed.  --json switches
// fit/grouped/predict to the serving layer's response schema (the same
// document POST /v1/estimate returns), emitted via serve::json.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bayes/prior.hpp"
#include "core/predictive.hpp"
#include "data/datasets.hpp"
#include "data/failure_data.hpp"
#include "engine/registry.hpp"
#include "nhpp/trend.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"

using namespace vbsrm;

namespace {

struct Options {
  double alpha0 = 1.0;
  double level = 0.99;
  std::string method = "vb2";
  bool json = false;
  std::optional<std::pair<double, double>> prior_omega;
  std::optional<std::pair<double, double>> prior_beta;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: vbsrm_cli fit <times.csv> <t_e> [options]\n"
               "       vbsrm_cli grouped <counts.csv> [options]\n"
               "       vbsrm_cli predict <times.csv> <t_e> <u> [options]\n"
               "       vbsrm_cli methods\n"
               "       vbsrm_cli demo\n"
               "options: --alpha0 A --prior-omega MEAN SD --prior-beta MEAN "
               "SD --level L --method NAME --json\n");
  std::exit(2);
}

/// The whole of `text` as a finite double; usage() otherwise.
double number(const char* text) {
  const char* last = text + std::strlen(text);
  double v = 0.0;
  const auto [end, ec] = std::from_chars(text, last, v);
  if (ec != std::errc() || end != last || !std::isfinite(v)) usage();
  return v;
}

Options parse_options(int argc, char** argv, int first) {
  Options o;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    auto need = [&](int k) {
      if (i + k >= argc) usage();
    };
    if (a == "--alpha0") {
      need(1);
      o.alpha0 = number(argv[++i]);
    } else if (a == "--level") {
      need(1);
      o.level = number(argv[++i]);
    } else if (a == "--method") {
      need(1);
      o.method = argv[++i];
    } else if (a == "--json") {
      o.json = true;
    } else if (a == "--prior-omega") {
      need(2);
      const double m = number(argv[++i]);
      const double s = number(argv[++i]);
      o.prior_omega = {m, s};
    } else if (a == "--prior-beta") {
      need(2);
      const double m = number(argv[++i]);
      const double s = number(argv[++i]);
      o.prior_beta = {m, s};
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      usage();
    }
  }
  if (!(o.alpha0 > 0.0) || !(o.level > 0.0) || !(o.level < 1.0)) usage();
  if (!engine::is_registered(o.method)) {
    std::fprintf(stderr, "unknown method: %s (try: vbsrm_cli methods)\n",
                 o.method.c_str());
    std::exit(2);
  }
  return o;
}

bayes::PriorPair priors_from(const Options& o) {
  bayes::PriorPair p = bayes::PriorPair::flat();
  if (o.prior_omega) {
    p.omega = bayes::GammaPrior::from_mean_sd(o.prior_omega->first,
                                              o.prior_omega->second);
  }
  if (o.prior_beta) {
    p.beta = bayes::GammaPrior::from_mean_sd(o.prior_beta->first,
                                             o.prior_beta->second);
  }
  return p;
}

data::FailureTimeData load_times(const char* path, double te) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  return data::FailureTimeData::from_csv(in, te);
}

/// --json output: the serving layer's /v1/estimate schema, so scripted
/// consumers can treat CLI and server responses interchangeably.
int report_json(const engine::Estimator& est, const Options& o,
                std::vector<double> windows = {}) {
  const serve::EstimateQuery query{o.method, o.level, std::move(windows)};
  std::printf("%s\n",
              serve::json::write(serve::estimate_response(est, query), 2)
                  .c_str());
  return 0;
}

void report_estimator(const engine::Estimator& est, double level) {
  const auto s = est.summarize();
  const auto io = est.interval_omega(level);
  const auto ib = est.interval_beta(level);
  const double denom = std::sqrt(s.var_omega * s.var_beta);
  std::printf("method          : %s (%.2f ms)\n",
              std::string(est.method()).c_str(),
              est.diagnostics().wall_time_ms);
  std::printf("posterior means : omega = %.4g, beta = %.4g\n", s.mean_omega,
              s.mean_beta);
  std::printf("posterior sds   : omega = %.4g, beta = %.4g (corr %.3f)\n",
              std::sqrt(s.var_omega), std::sqrt(s.var_beta),
              denom > 0.0 ? s.cov / denom : 0.0);
  std::printf("%.0f%% interval   : omega in [%.4g, %.4g]\n", 100 * level,
              io.lower, io.upper);
  std::printf("%.0f%% interval   : beta  in [%.4g, %.4g]\n", 100 * level,
              ib.lower, ib.upper);
  if (const auto* mix = est.mixture()) {
    const auto res = core::ResidualFaultDistribution::from_posterior(*mix);
    std::printf("residual faults : mean %.2f, P(<=%llu) >= 90%%\n", res.mean(),
                static_cast<unsigned long long>(res.quantile(0.9)));
  }
}

int cmd_fit(int argc, char** argv) {
  if (argc < 4) usage();
  const double te = number(argv[3]);
  const auto opts = parse_options(argc, argv, 4);
  const auto dt = load_times(argv[2], te);
  const engine::EstimatorRequest req(opts.alpha0, dt, priors_from(opts));
  if (opts.json) return report_json(*engine::make(opts.method, req), opts);
  std::printf("loaded %zu failure times on (0, %g]\n", dt.count(),
              dt.observation_end());
  if (dt.count() >= 2) {
    std::printf("Laplace trend   : %.2f (negative = reliability growth)\n",
                nhpp::laplace_trend(dt));
  }
  report_estimator(*engine::make(opts.method, req), opts.level);
  return 0;
}

int cmd_grouped(int argc, char** argv) {
  if (argc < 3) usage();
  const auto opts = parse_options(argc, argv, 3);
  std::ifstream in(argv[2]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", argv[2]);
    return 1;
  }
  const auto dg = data::GroupedData::from_csv(in);
  const engine::EstimatorRequest req(opts.alpha0, dg, priors_from(opts));
  if (opts.json) return report_json(*engine::make(opts.method, req), opts);
  std::printf("loaded %zu failures over %zu intervals ending at %g\n",
              dg.total_failures(), dg.intervals(), dg.observation_end());
  report_estimator(*engine::make(opts.method, req), opts.level);
  return 0;
}

int cmd_predict(int argc, char** argv) {
  if (argc < 5) usage();
  const double te = number(argv[3]);
  const double u = number(argv[4]);
  const auto opts = parse_options(argc, argv, 5);
  const auto dt = load_times(argv[2], te);
  const engine::EstimatorRequest req(opts.alpha0, dt, priors_from(opts));
  const auto est = engine::make(opts.method, req);
  if (opts.json) return report_json(*est, opts, {u});
  const auto r = est->reliability(u, opts.level);
  std::printf("R(te+%g | te) = %.4f, %.0f%% interval [%.4f, %.4f]\n", u,
              r.point, 100 * opts.level, r.lower, r.upper);
  if (const auto* mix = est->mixture()) {
    const core::PredictiveDistribution pred(*mix, u);
    const auto [lo, hi] = pred.interval(opts.level);
    std::printf(
        "failures in window: mean %.2f, %.0f%% interval [%llu, %llu]\n",
        pred.mean(), 100 * opts.level, static_cast<unsigned long long>(lo),
        static_cast<unsigned long long>(hi));
  }
  return 0;
}

int cmd_methods() {
  for (const auto& name : engine::registered_methods()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

int cmd_demo() {
  std::printf("demo: bundled synthetic System 17 failure-time data\n\n");
  const engine::EstimatorRequest req(
      1.0, data::datasets::system17_failure_times(),
      bayes::PriorPair{bayes::GammaPrior::from_mean_sd(50.0, 15.8),
                       bayes::GammaPrior::from_mean_sd(1e-5, 3.2e-6)});
  const auto est = engine::make("vb2", req);
  report_estimator(*est, 0.99);
  const auto r = est->reliability(1000.0, 0.99);
  std::printf("R(te+1000 | te) : %.4f [%.4f, %.4f]\n", r.point, r.lower,
              r.upper);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "fit") return cmd_fit(argc, argv);
    if (cmd == "grouped") return cmd_grouped(argc, argv);
    if (cmd == "predict") return cmd_predict(argc, argv);
    if (cmd == "methods") return cmd_methods();
    if (cmd == "demo") return cmd_demo();
  } catch (const data::DataError& e) {
    std::fprintf(stderr, "vbsrm_cli: bad input data: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vbsrm_cli: %s\n", e.what());
    return 1;
  }
  usage();
}
