// String-keyed estimator registry/factory.  The five paper methods are
// pre-registered; new methods are one `register_method` call away:
//
//   engine::register_method("profile", [](const EstimatorRequest& r) {
//     return std::make_unique<MyProfileAdapter>(r);
//   });
//   auto est = engine::make("profile", req);
//
// Lookup is case-insensitive ("VB2" == "vb2"); unknown names raise
// std::invalid_argument listing what is registered.
#pragma once

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/estimator.hpp"

namespace vbsrm::engine {

using EstimatorFactory =
    std::function<std::unique_ptr<Estimator>(const EstimatorRequest&)>;

/// Register a method under `name` (lower-cased).  Returns false and
/// leaves the registry unchanged if the name is already taken.
bool register_method(const std::string& name, EstimatorFactory factory);

/// True if `name` resolves to a registered method.
bool is_registered(std::string_view name);

/// Registered method names, sorted ("laplace", "mcmc", "nint", "vb1",
/// "vb2" plus any user registrations).  The single source of truth for
/// method enumeration: the serving layer's GET /v1/methods and the
/// unknown-method error message of engine::make both read from here.
std::vector<std::string> registered_methods();

/// Construct-and-fit the named estimator on the request.  Construction
/// wall time is stamped into `diagnostics().wall_time_ms`.
/// Throws std::invalid_argument for unknown names.
std::unique_ptr<Estimator> make(std::string_view name,
                                const EstimatorRequest& req);

}  // namespace vbsrm::engine
