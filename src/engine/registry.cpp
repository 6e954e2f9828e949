#include "engine/registry.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <map>
#include <sstream>

#include "engine/adapters.hpp"
#include "math/thread_annotations.hpp"

namespace vbsrm::engine {

namespace {

std::string lowered(std::string_view name) {
  std::string out(name);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

struct Registry {
  math::Mutex mutex;
  std::map<std::string, EstimatorFactory> factories GUARDED_BY(mutex);

  Registry() NO_THREAD_SAFETY_ANALYSIS {
    factories["vb2"] = adapters::make_vb2;
    factories["vb1"] = adapters::make_vb1;
    factories["nint"] = adapters::make_nint;
    factories["laplace"] = adapters::make_laplace;
    factories["mcmc"] = adapters::make_mcmc;
  }
};

Registry& registry() {
  static Registry r;  // seeded with the paper's five methods
  return r;
}

std::vector<std::string> names_locked(const Registry& r)
    REQUIRES(r.mutex) {
  std::vector<std::string> names;
  names.reserve(r.factories.size());
  for (const auto& [name, factory] : r.factories) names.push_back(name);
  return names;  // std::map iteration is already sorted
}

}  // namespace

bool register_method(const std::string& name, EstimatorFactory factory) {
  if (name.empty() || !factory) return false;
  Registry& r = registry();
  const math::MutexLock lock(r.mutex);
  return r.factories.emplace(lowered(name), std::move(factory)).second;
}

bool is_registered(std::string_view name) {
  Registry& r = registry();
  const math::MutexLock lock(r.mutex);
  return r.factories.count(lowered(name)) != 0;
}

std::vector<std::string> registered_methods() {
  Registry& r = registry();
  const math::MutexLock lock(r.mutex);
  return names_locked(r);
}

std::unique_ptr<Estimator> make(std::string_view name,
                                const EstimatorRequest& req) {
  EstimatorFactory factory;
  {
    Registry& r = registry();
    const math::MutexLock lock(r.mutex);
    const auto it = r.factories.find(lowered(name));
    if (it == r.factories.end()) {
      std::ostringstream msg;
      msg << "engine::make: unknown method \"" << std::string(name)
          << "\"; registered:";
      for (const auto& known : names_locked(r)) msg << ' ' << known;
      throw std::invalid_argument(msg.str());
    }
    factory = it->second;
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::unique_ptr<Estimator> est = factory(req);
  const auto t1 = std::chrono::steady_clock::now();
  if (est) {
    est->set_wall_time_ms(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return est;
}

}  // namespace vbsrm::engine
