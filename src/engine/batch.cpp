#include "engine/batch.hpp"

#include <exception>
#include <thread>

#include "engine/registry.hpp"
#include "math/parallel.hpp"

namespace vbsrm::engine {

std::uint64_t derive_cell_seed(std::uint64_t base, std::uint64_t cell) {
  // splitmix64 finalizer over base + cell step; avoids low-entropy
  // consecutive seeds reaching the xoshiro state initializer directly.
  std::uint64_t z = base + (cell + 1) * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

EstimationReport build_report(const Estimator& est, double level,
                              const std::vector<double>& windows) {
  EstimationReport out;
  out.level = level;
  out.summary = est.summarize();
  out.omega_interval = est.interval_omega(level);
  out.beta_interval = est.interval_beta(level);
  out.reliability.reserve(windows.size());
  for (const double u : windows) {
    out.reliability.push_back(est.reliability(u, level));
  }
  out.diagnostics = est.diagnostics();
  out.ok = true;
  return out;
}

BatchRunner::BatchRunner(unsigned threads) : threads_(threads) {
  if (threads_ == 0) {
    threads_ = std::thread::hardware_concurrency();
    if (threads_ == 0) threads_ = 1;
  }
}

std::vector<EstimationReport> BatchRunner::run(const BatchSpec& spec) const {
  return run(spec, nullptr);
}

std::vector<EstimationReport> BatchRunner::run(
    const BatchSpec& spec, const std::atomic<bool>* cancel) const {
  const std::size_t n_methods = spec.methods.size();
  const std::size_t n_requests = spec.requests.size();
  const std::size_t n_levels = spec.levels.size();
  const std::size_t n_cells = n_methods * n_requests;

  std::vector<EstimationReport> reports(n_cells * n_levels);
  if (reports.empty()) return reports;

  // One task per (method, request) cell: fit once, query every level.
  // Slots are preassigned, so writes never race and the output order
  // does not depend on scheduling.
  auto run_cell = [&](std::size_t cell) {
    const std::size_t ri = cell % n_requests;
    const std::string& method = spec.methods[cell / n_requests];

    std::unique_ptr<Estimator> est;
    std::string error = "canceled";
    if (cancel == nullptr || !cancel->load()) {
      EstimatorRequest req = spec.requests[ri];
      if (spec.mcmc_seed_base != 0) {
        req.mcmc.base.seed = derive_cell_seed(spec.mcmc_seed_base, cell);
      }
      error = "estimator construction failed";
      try {
        est = make(method, req);
      } catch (const std::exception& e) {
        error = e.what();
      }
    }

    for (std::size_t li = 0; li < n_levels; ++li) {
      EstimationReport& out = reports[cell * n_levels + li];
      if (est) {
        try {
          out = build_report(*est, spec.levels[li], spec.reliability_windows);
        } catch (const std::exception& e) {
          out.error = e.what();
        }
      } else {
        out.error = error;
      }
      out.method = method;
      out.request_index = ri;
      out.level = spec.levels[li];
    }
  };

  // Shared work-queue pool (math/parallel.hpp); per-cell exceptions are
  // already captured into the report, so nothing propagates from here.
  math::parallel_for(n_cells, threads_, run_cell);
  return reports;
}

}  // namespace vbsrm::engine
