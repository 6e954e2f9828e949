// Correctness gate: the exact response bytes, recomputed in-process from
// the generated request (not from the daemon's decoder).
#include <atomic>
#include <thread>

#include "bench.hpp"
#include "engine/batch.hpp"
#include "engine/registry.hpp"
#include "serve/service.hpp"

namespace perfbench {

namespace {

json::Value interval_doc(const vbsrm::bayes::CredibleInterval& ci) {
  json::Value v = json::Value::object();
  v["lower"] = ci.lower;
  v["upper"] = ci.upper;
  return v;
}

json::Value report_doc(const Call& c, const vbsrm::engine::EstimationReport& rep) {
  json::Value r = json::Value::object();
  r["method"] = rep.method;
  r["level"] = rep.level;
  r["ok"] = rep.ok;
  if (!rep.ok) {
    r["error"] = rep.error;
    return r;
  }
  json::Value s = json::Value::object();
  s["mean_omega"] = rep.summary.mean_omega;
  s["mean_beta"] = rep.summary.mean_beta;
  s["var_omega"] = rep.summary.var_omega;
  s["var_beta"] = rep.summary.var_beta;
  s["cov"] = rep.summary.cov;
  r["summary"] = std::move(s);
  json::Value intervals = json::Value::object();
  intervals["omega"] = interval_doc(rep.omega_interval);
  intervals["beta"] = interval_doc(rep.beta_interval);
  r["intervals"] = std::move(intervals);
  json::Value rel = json::Value::array();
  for (std::size_t i = 0; i < rep.reliability.size(); ++i) {
    json::Value w = json::Value::object();
    w["window"] = c.windows[i];
    w["point"] = rep.reliability[i].point;
    w["lower"] = rep.reliability[i].lower;
    w["upper"] = rep.reliability[i].upper;
    rel.push_back(std::move(w));
  }
  r["reliability"] = std::move(rel);
  const vbsrm::engine::Diagnostics& d = rep.diagnostics;
  json::Value dj = json::Value::object();
  dj["iterations"] = d.iterations;
  dj["converged"] = d.converged;
  dj["n_max_used"] = d.n_max_used;
  dj["tail_mass_at_n_max"] = d.tail_mass_at_n_max;
  dj["grid_points_per_axis"] = d.grid_points_per_axis;
  dj["chain_samples"] = d.chain_samples;
  dj["variates"] = d.variates;
  dj["chains"] = d.chains;
  r["diagnostics"] = std::move(dj);
  return r;
}

}  // namespace

std::string batch_body(const Call& c,
                       const std::vector<vbsrm::engine::EstimationReport>& r) {
  json::Value doc = json::Value::object();
  json::Value arr = json::Value::array();
  for (const auto& rep : r) arr.push_back(report_doc(c, rep));
  doc["reports"] = std::move(arr);
  return json::write(doc) + '\n';
}

std::string expected_body(const Call& c, unsigned batch_threads) {
  if (c.batch()) {
    vbsrm::engine::BatchSpec spec;
    spec.methods = c.batch_methods;
    spec.requests.push_back(*c.request);
    spec.levels = c.batch_levels;
    spec.reliability_windows = c.windows;
    spec.mcmc_seed_base = c.mcmc_seed_base;
    return batch_body(c, vbsrm::engine::BatchRunner(batch_threads).run(spec));
  }
  const auto est = vbsrm::engine::make(c.method, *c.request);
  const vbsrm::serve::EstimateQuery q{c.method, c.level, c.windows};
  return json::write(vbsrm::serve::estimate_response(*est, q)) + '\n';
}

std::vector<std::string> expected_bodies(const std::vector<Call>& calls,
                                         const std::vector<bool>& needed,
                                         unsigned batch_threads,
                                         unsigned threads) {
  std::vector<std::string> out(calls.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < calls.size();) {
      if (!needed[i]) continue;
      try {
        out[i] = expected_body(calls[i], batch_threads);
      } catch (const std::exception& e) {
        out[i] = std::string("oracle failed: ") + e.what();  // never matches
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned k = 0; k < threads; ++k) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return out;
}

}  // namespace perfbench
