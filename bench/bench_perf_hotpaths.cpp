// Hot-path micro/meso benchmark: absolute wall times of VB2 fits,
// marginal credible intervals and gamma-mixture reliability functionals
// on fixed workloads, written to a machine-readable BENCH_vb2.json:
//
//   { "bench": "vb2_hotpaths", "mode": "full"|"smoke",
//     "scenarios": [ { "name", "kind": "fit"|"interval"|"functional",
//                      "seconds" } ] }
//
// Compare a run against the committed BENCH_vb2.json on the same
// hardware; the numbers themselves are frozen by tests/test_golden_core.
//
// Usage: bench_perf_hotpaths [--smoke] [--out PATH]
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/gamma_mixture.hpp"
#include "core/vb2.hpp"
#include "data/datasets.hpp"
#include "data/simulate.hpp"
#include "random/rng.hpp"

namespace c = vbsrm::core;
namespace b = vbsrm::bayes;
namespace d = vbsrm::data;
using vbsrm::bench::time_seconds;

namespace {

struct Scenario {
  std::string name;
  std::string kind;  // "fit", "interval" or "functional"
  double seconds = 0.0;
};

/// Time f(), repeating until ~0.2 s has elapsed so sub-millisecond fast
/// paths are still resolvable; returns seconds per call.
template <typename F>
double time_amortized(F&& f) {
  double total = 0.0;
  int reps = 0;
  do {
    total += time_seconds(f);
    ++reps;
  } while (total < 0.2 && reps < 1000);
  return total / reps;
}

Scenario bench_fit_grouped(bool smoke) {
  // Large-n_max grouped VB2 fit over a fixed component range.
  const auto dg = d::datasets::system17_grouped();
  const auto priors = vbsrm::bench::info_priors_dg();
  c::Vb2Options opt;
  opt.n_max = smoke ? 400 : 2000;
  opt.adapt_n_max = false;
  return {"vb2_fit_grouped_large_nmax", "fit", time_amortized([&] {
            const c::Vb2Estimator vb(1.0, dg, priors, opt);
            (void)vb.posterior().summary();
          })};
}

Scenario bench_fit_ft_alpha2(bool smoke) {
  // Failure-time fit with alpha0 = 2: no closed form, so every
  // component runs the fixed point through truncated tail means.
  vbsrm::random::Rng rng(71);
  const auto ft = d::simulate_gamma_nhpp(rng, 150.0, 2.0, 2.0e-3, 2500.0);
  const auto priors = b::PriorPair::flat();
  c::Vb2Options opt;
  opt.n_max = smoke ? 800 : 4000;
  opt.adapt_n_max = false;
  return {"vb2_fit_failure_time_alpha2_large_nmax", "fit",
          time_amortized([&] {
            const c::Vb2Estimator vb(2.0, ft, priors, opt);
            (void)vb.posterior().summary();
          })};
}

/// The 0.99 omega and beta credible intervals of one System 17 VB2 fit
/// (GO model), the pair every VB2 request computes.  The fit is untimed.
Scenario bench_interval_pair(const std::string& name, bool grouped,
                             const b::PriorPair& priors) {
  const c::Vb2Estimator vb =
      grouped ? c::Vb2Estimator(1.0, d::datasets::system17_grouped(), priors)
              : c::Vb2Estimator(1.0, d::datasets::system17_failure_times(),
                                priors);
  const auto& post = vb.posterior();
  return {name, "interval", time_amortized([&] {
            (void)post.interval_omega(0.99);
            (void)post.interval_beta(0.99);
          })};
}

/// A synthetic >= 500-component mixture shaped like a NoInfo VB2
/// posterior: geometric weights, omega/beta parameters drifting with N.
/// Tuned so beta * horizon ~ 3 and omega * h spans ~1..13: the
/// reliability distribution then spreads over (0.005, 0.5) and its
/// quantiles sit mid-range, as in the paper's Tables 4-5, rather than
/// degenerating to R ~ 1.
c::GammaMixturePosterior make_wide_mixture(int n_components) {
  std::vector<c::ProductGammaComponent> comps;
  comps.reserve(n_components);
  for (int k = 0; k < n_components; ++k) {
    c::ProductGammaComponent comp;
    comp.n = 40 + static_cast<std::uint64_t>(k);
    comp.weight = std::exp(-0.01 * k);
    const double nd = static_cast<double>(comp.n);
    comp.omega = {1.0 + nd, 1.05};
    comp.beta = {1.0 + nd, (1.0 + nd) / 3e-3};
    comps.push_back(comp);
  }
  return c::GammaMixturePosterior(std::move(comps), 1.0, 1000.0);
}

// The functional scenarios time steady-state calls: one untimed call
// first builds the mixture's quadrature cache.
Scenario bench_reliability_quantile(bool smoke) {
  const auto post = make_wide_mixture(smoke ? 500 : 600);
  const double u = 200.0;
  const std::vector<double> ps =
      smoke ? std::vector<double>{0.05} : std::vector<double>{0.05, 0.95};
  post.reliability_point(u);
  return {"reliability_quantile_600_component_mixture", "functional",
          time_amortized([&] {
            for (const double p : ps) post.reliability_quantile(p, u);
          })};
}

Scenario bench_reliability_point(bool smoke) {
  const auto post = make_wide_mixture(smoke ? 500 : 600);
  const double u = 200.0;
  post.reliability_point(u);
  return {"reliability_point_600_component_mixture", "functional",
          time_amortized([&] { post.reliability_point(u); })};
}

Scenario bench_sample(bool smoke) {
  const auto post = make_wide_mixture(smoke ? 500 : 600);
  const int draws = smoke ? 20000 : 100000;
  vbsrm::random::Rng rng(9);
  double sink = 0.0;
  Scenario s{"posterior_sample_600_component_mixture", "functional",
             time_amortized([&] {
               for (int i = 0; i < draws; ++i) sink += post.sample(rng).first;
             })};
  if (sink == 42.0) std::printf(" ");  // keep the sink live
  return s;
}

void write_json(const std::string& path, bool smoke,
                const std::vector<Scenario>& scenarios) {
  std::ofstream out(path);
  out.precision(6);
  out << "{\n  \"bench\": \"vb2_hotpaths\",\n  \"mode\": \""
      << (smoke ? "smoke" : "full") << "\",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = scenarios[i];
    out << "    {\"name\": \"" << s.name << "\", \"kind\": \"" << s.kind
        << "\", \"seconds\": " << s.seconds << "}"
        << (i + 1 < scenarios.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_vb2.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  std::vector<Scenario> scenarios;
  scenarios.push_back(bench_fit_grouped(smoke));
  scenarios.push_back(bench_fit_ft_alpha2(smoke));
  scenarios.push_back(bench_reliability_quantile(smoke));
  scenarios.push_back(bench_reliability_point(smoke));
  scenarios.push_back(bench_sample(smoke));
  scenarios.push_back(bench_interval_pair("vb2_interval_pair_dt_info", false,
                                          vbsrm::bench::info_priors_dt()));
  scenarios.push_back(bench_interval_pair("vb2_interval_pair_dg_info", true,
                                          vbsrm::bench::info_priors_dg()));
  if (!smoke) {
    // 8155 components at n_max_limit: the heaviest interval pair.
    scenarios.push_back(bench_interval_pair("vb2_interval_pair_dt_noinfo",
                                            false,
                                            vbsrm::bench::noinfo_priors()));
  }

  std::printf("%-45s %12s\n", "scenario", "seconds");
  for (const Scenario& s : scenarios) {
    std::printf("%-45s %12.6f\n", s.name.c_str(), s.seconds);
  }
  write_json(out_path, smoke, scenarios);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
