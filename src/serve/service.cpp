#include "serve/service.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <limits>
#include <variant>

#include "data/failure_data.hpp"
#include "engine/batch.hpp"
#include "engine/registry.hpp"
#include "math/parallel.hpp"

namespace vbsrm::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Longest wait a deadline asks for (about 31 years).  Any longer
/// budget means the same, and the cap keeps now + budget inside
/// Clock::time_point's range.
constexpr double kMaxBudgetMs = 1e12;
/// Most Gibbs iterations one request may ask for over all its chains,
/// chains x (burn_in + thin x samples): 47 chains at the paper's
/// 10000 + 10 x 20000.
constexpr std::uint64_t kMaxMcmcIterations = 10'000'000;

/// Request decoding failure; handle() maps it to 400 Bad Request.
struct BadRequest : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

std::string lowered(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

// --- JSON field helpers (every failure is a BadRequest) -------------------

const json::Value& need(const json::Value& obj, std::string_view key) {
  const json::Value* v = obj.find(key);
  if (!v) throw BadRequest("missing field \"" + std::string(key) + "\"");
  return *v;
}

double as_finite_number(const json::Value& v, std::string_view what) {
  if (!v.is_number() || !std::isfinite(v.as_number())) {
    throw BadRequest("\"" + std::string(what) + "\" must be a finite number");
  }
  return v.as_number();
}

double number_or(const json::Value& obj, std::string_view key, double dflt) {
  const json::Value* v = obj.find(key);
  return v ? as_finite_number(*v, key) : dflt;
}

std::uint64_t as_count(const json::Value& v, std::string_view what) {
  const double d = as_finite_number(v, what);
  if (d < 0.0 || d != std::floor(d) || d > 9.007199254740992e15) {
    throw BadRequest("\"" + std::string(what) +
                     "\" must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(d);
}

std::uint64_t count_or(const json::Value& obj, std::string_view key,
                       std::uint64_t dflt) {
  const json::Value* v = obj.find(key);
  return v ? as_count(*v, key) : dflt;
}

std::vector<double> number_array(const json::Value& v, std::string_view what) {
  if (!v.is_array()) {
    throw BadRequest("\"" + std::string(what) + "\" must be an array");
  }
  std::vector<double> out;
  out.reserve(v.size());
  for (const json::Value& item : v.items()) {
    out.push_back(as_finite_number(item, what));
  }
  return out;
}

// --- request decoding ------------------------------------------------------

bayes::GammaPrior parse_prior(const json::Value& v, std::string_view which) {
  if (v.is_null()) return bayes::GammaPrior::flat();
  if (!v.is_object()) {
    throw BadRequest("prior \"" + std::string(which) + "\" must be an object");
  }
  if (v.contains("mean") || v.contains("sd")) {
    const double mean = as_finite_number(need(v, "mean"), "mean");
    const double sd = as_finite_number(need(v, "sd"), "sd");
    if (!(mean > 0.0) || !(sd > 0.0)) {
      throw BadRequest("prior mean and sd must be > 0");
    }
    return bayes::GammaPrior::from_mean_sd(mean, sd);
  }
  const double shape = number_or(v, "shape", 1.0);
  const double rate = number_or(v, "rate", 0.0);
  if (!(shape > 0.0) || rate < 0.0) {
    throw BadRequest("prior shape must be > 0 and rate >= 0");
  }
  return bayes::GammaPrior{shape, rate};
}

bayes::PriorPair parse_priors(const json::Value& doc) {
  const json::Value* v = doc.find("priors");
  if (!v || v->is_null()) return bayes::PriorPair::flat();
  if (!v->is_object()) throw BadRequest("\"priors\" must be an object");
  bayes::PriorPair p = bayes::PriorPair::flat();
  if (const json::Value* o = v->find("omega")) p.omega = parse_prior(*o, "omega");
  if (const json::Value* b = v->find("beta")) p.beta = parse_prior(*b, "beta");
  return p;
}

using DataVariant = std::variant<data::FailureTimeData, data::GroupedData>;

DataVariant parse_data(const json::Value& doc) {
  const json::Value& v = need(doc, "data");
  if (!v.is_object()) throw BadRequest("\"data\" must be an object");
  const json::Value& type = need(v, "type");
  if (!type.is_string()) throw BadRequest("\"data.type\" must be a string");
  try {
    if (type.as_string() == "failure_times") {
      std::vector<double> times = number_array(need(v, "times"), "data.times");
      const double te =
          as_finite_number(need(v, "observation_end"), "data.observation_end");
      return data::FailureTimeData(std::move(times), te);
    }
    if (type.as_string() == "grouped") {
      std::vector<double> bounds =
          number_array(need(v, "boundaries"), "data.boundaries");
      const json::Value& cv = need(v, "counts");
      if (!cv.is_array()) throw BadRequest("\"data.counts\" must be an array");
      std::vector<std::size_t> counts;
      counts.reserve(cv.size());
      for (const json::Value& c : cv.items()) {
        counts.push_back(static_cast<std::size_t>(as_count(c, "data.counts")));
      }
      return data::GroupedData(std::move(bounds), std::move(counts));
    }
  } catch (const data::DataError& e) {
    throw BadRequest(std::string("invalid data: ") + e.what());
  }
  throw BadRequest("data.type must be \"failure_times\" or \"grouped\"");
}

/// Fields shared by /v1/estimate and /v1/batch bodies.
struct ParsedCommon {
  double alpha0 = 1.0;
  DataVariant data;
  bayes::PriorPair priors;
  std::vector<double> reliability_windows;
  bayes::McmcOptions mcmc;
  int chains = 1;

  engine::EstimatorRequest to_request() const {
    engine::EstimatorRequest req = std::visit(
        [&](const auto& d) {
          return engine::EstimatorRequest(alpha0, d, priors);
        },
        data);
    req.mcmc.base = mcmc;
    req.mcmc.chains = chains;
    return req;
  }
};

ParsedCommon parse_common(const json::Value& doc) {
  ParsedCommon out{1.0, parse_data(doc), parse_priors(doc), {}, {}, 1};
  out.alpha0 = number_or(doc, "alpha0", 1.0);
  if (!(out.alpha0 > 0.0)) throw BadRequest("\"alpha0\" must be > 0");
  if (const json::Value* w = doc.find("reliability_windows")) {
    out.reliability_windows = number_array(*w, "reliability_windows");
    for (const double u : out.reliability_windows) {
      if (!(u > 0.0)) throw BadRequest("reliability windows must be > 0");
    }
    if (out.reliability_windows.size() > 64) {
      throw BadRequest("at most 64 reliability windows per request");
    }
  }
  if (const json::Value* m = doc.find("mcmc")) {
    if (!m->is_object()) throw BadRequest("\"mcmc\" must be an object");
    out.mcmc.burn_in =
        static_cast<std::size_t>(count_or(*m, "burn_in", out.mcmc.burn_in));
    out.mcmc.thin =
        static_cast<std::size_t>(count_or(*m, "thin", out.mcmc.thin));
    out.mcmc.samples =
        static_cast<std::size_t>(count_or(*m, "samples", out.mcmc.samples));
    out.mcmc.seed = count_or(*m, "seed", out.mcmc.seed);
    const std::uint64_t chains = count_or(*m, "chains", 1);
    if (chains > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
      throw BadRequest("\"mcmc.chains\" is too large");
    }
    out.chains = static_cast<int>(chains);
    if (out.mcmc.thin == 0 || out.mcmc.samples == 0 || out.chains < 1) {
      throw BadRequest("mcmc.thin, mcmc.samples, mcmc.chains must be >= 1");
    }
    // Exact and overflow-free: thin x samples is only formed once it is
    // known to fit under the per-chain share of the limit.
    const std::uint64_t per_chain = kMaxMcmcIterations / chains;
    if (out.mcmc.thin > per_chain / out.mcmc.samples ||
        out.mcmc.burn_in > per_chain - out.mcmc.thin * out.mcmc.samples) {
      throw BadRequest(
          "mcmc.chains x (mcmc.burn_in + mcmc.thin x mcmc.samples) exceeds " +
          std::to_string(kMaxMcmcIterations) + " iterations");
    }
  }
  return out;
}

double parse_level(const json::Value& doc) {
  const double level = number_or(doc, "level", 0.99);
  if (!(level > 0.0) || !(level < 1.0)) {
    throw BadRequest("\"level\" must lie in (0, 1)");
  }
  return level;
}

/// `name` lower-cased; a BadRequest listing the registered methods when
/// the registry does not know it.
std::string registered_method(std::string_view name) {
  std::string method = lowered(name);
  if (!engine::is_registered(method)) {
    std::string msg = "unknown method \"" + method + "\"; registered:";
    for (const std::string& n : engine::registered_methods()) msg += ' ' + n;
    throw BadRequest(msg);
  }
  return method;
}

std::string parse_method(const json::Value& doc) {
  const json::Value* m = doc.find("method");
  if (m && !m->is_string()) throw BadRequest("\"method\" must be a string");
  return registered_method(m ? m->as_string() : "vb2");
}

// --- canonical serialization (the cache key) -------------------------------

json::Value data_canonical(const DataVariant& data) {
  json::Value d = json::Value::object();
  if (const auto* dt = std::get_if<data::FailureTimeData>(&data)) {
    d["type"] = "failure_times";
    json::Value times = json::Value::array();
    for (const double t : dt->times()) times.push_back(t);
    d["times"] = std::move(times);
    d["observation_end"] = dt->observation_end();
  } else {
    const auto& dg = std::get<data::GroupedData>(data);
    d["type"] = "grouped";
    json::Value bounds = json::Value::array();
    for (const double b : dg.boundaries()) bounds.push_back(b);
    d["boundaries"] = std::move(bounds);
    json::Value counts = json::Value::array();
    for (const std::size_t c : dg.counts()) counts.push_back(c);
    d["counts"] = std::move(counts);
  }
  return d;
}

json::Value prior_canonical(const bayes::GammaPrior& p) {
  json::Value v = json::Value::object();
  v["shape"] = p.shape;
  v["rate"] = p.rate;
  return v;
}

/// Normalized (dataset, method, options) document in a fixed key order;
/// its compact serialization is the content address of the result.
/// Every default is materialized, so "level omitted" and "level: 0.99"
/// collide on purpose, while anything that changes the fit changes the
/// bytes.
std::string canonical_key(const std::string& method, double level,
                          const ParsedCommon& c) {
  json::Value canon = json::Value::object();
  canon["v"] = 1;  // key-schema version, bump on layout changes
  canon["method"] = method;
  canon["alpha0"] = c.alpha0;
  canon["data"] = data_canonical(c.data);
  json::Value priors = json::Value::object();
  priors["omega"] = prior_canonical(c.priors.omega);
  priors["beta"] = prior_canonical(c.priors.beta);
  canon["priors"] = std::move(priors);
  canon["level"] = level;
  json::Value windows = json::Value::array();
  for (const double u : c.reliability_windows) windows.push_back(u);
  canon["reliability_windows"] = std::move(windows);
  json::Value mcmc = json::Value::object();
  mcmc["burn_in"] = c.mcmc.burn_in;
  mcmc["thin"] = c.mcmc.thin;
  mcmc["samples"] = c.mcmc.samples;
  mcmc["seed"] = c.mcmc.seed;
  mcmc["chains"] = c.chains;
  canon["mcmc"] = std::move(mcmc);
  return json::write(canon);
}

/// A decoded /v1/estimate body and its cache key.
struct EstimateCall {
  std::string method;
  double level = 0.99;
  ParsedCommon common;
  std::string key;
};

/// The one /v1/estimate decoder, behind handle_estimate and
/// canonical_estimate_key.  Throws json::ParseError or BadRequest.
EstimateCall decode_estimate(const std::string& body) {
  const json::Value doc = json::parse(body);
  if (!doc.is_object()) throw BadRequest("request body must be a JSON object");
  EstimateCall call{parse_method(doc), parse_level(doc), parse_common(doc), {}};
  call.key = canonical_key(call.method, call.level, call.common);
  return call;
}

// --- response documents ----------------------------------------------------

json::Value interval_json(const bayes::CredibleInterval& ci) {
  json::Value v = json::Value::object();
  v["lower"] = ci.lower;
  v["upper"] = ci.upper;
  return v;
}

json::Value summary_json(const bayes::PosteriorSummary& s) {
  json::Value v = json::Value::object();
  v["mean_omega"] = s.mean_omega;
  v["mean_beta"] = s.mean_beta;
  v["var_omega"] = s.var_omega;
  v["var_beta"] = s.var_beta;
  v["cov"] = s.cov;
  return v;
}

json::Value reliability_json(double window, const bayes::ReliabilityEstimate& r) {
  json::Value v = json::Value::object();
  v["window"] = window;
  v["point"] = r.point;
  v["lower"] = r.lower;
  v["upper"] = r.upper;
  return v;
}

json::Value diagnostics_json(const engine::Diagnostics& d) {
  // wall_time_ms is deliberately absent: it differs run to run and
  // would break the byte-identity of cached responses.
  json::Value v = json::Value::object();
  v["iterations"] = d.iterations;
  v["converged"] = d.converged;
  v["n_max_used"] = d.n_max_used;
  v["tail_mass_at_n_max"] = d.tail_mass_at_n_max;
  v["grid_points_per_axis"] = d.grid_points_per_axis;
  v["chain_samples"] = d.chain_samples;
  v["variates"] = d.variates;
  v["chains"] = d.chains;
  return v;
}

/// The result fields of one fitted cell (summary, intervals, reliability
/// per window, diagnostics), appended to `out` in one fixed order: the
/// single renderer behind /v1/estimate and every /v1/batch report.
void append_results(json::Value& out, const engine::EstimationReport& rep,
                    const std::vector<double>& windows) {
  out["summary"] = summary_json(rep.summary);
  json::Value intervals = json::Value::object();
  intervals["omega"] = interval_json(rep.omega_interval);
  intervals["beta"] = interval_json(rep.beta_interval);
  out["intervals"] = std::move(intervals);
  json::Value rel = json::Value::array();
  for (std::size_t i = 0; i < rep.reliability.size(); ++i) {
    rel.push_back(reliability_json(windows[i], rep.reliability[i]));
  }
  out["reliability"] = std::move(rel);
  out["diagnostics"] = diagnostics_json(rep.diagnostics);
}

Response json_response(int status, const json::Value& doc) {
  Response r;
  r.status = status;
  r.body = json::write(doc);
  r.body.push_back('\n');
  return r;
}

/// 503 with the Retry-After hint every rejection carries.
Response unavailable(const std::string& message) {
  Response r = error_response(503, message);
  r.headers.emplace_back("Retry-After", "1");
  return r;
}

/// Path with any query string removed.
std::string_view path_of(std::string_view target) {
  const auto q = target.find('?');
  return q == std::string_view::npos ? target : target.substr(0, q);
}

}  // namespace

Response error_response(int status, const std::string& message) {
  json::Value doc = json::Value::object();
  json::Value err = json::Value::object();
  err["status"] = status;
  err["message"] = message;
  doc["error"] = std::move(err);
  return json_response(status, doc);
}

json::Value estimate_response(const engine::Estimator& est,
                              const EstimateQuery& query) {
  const engine::EstimationReport rep =
      engine::build_report(est, query.level, query.reliability_windows);
  json::Value out = json::Value::object();
  out["method"] = std::string(est.method());
  out["level"] = query.level;
  append_results(out, rep, query.reliability_windows);
  return out;
}

// --- Service ---------------------------------------------------------------

Service::Service(ServiceOptions opt)
    : opt_(opt),
      cache_(opt.cache_capacity),
      latency_log10_(-2.0, 6.0, 32) {
  opt_.workers = math::resolve_threads(opt_.workers);
  workers_.reserve(opt_.workers);
  for (unsigned i = 0; i < opt_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Service::~Service() { shutdown(); }

void Service::shutdown() {
  {
    const math::MutexLock lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  // Serialize the join: concurrent shutdown() calls (destructor vs. a
  // signal-initiated drain) must not both call join() on one thread.
  const math::MutexLock join_lock(join_mutex_);
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

void Service::worker_loop() {
  for (;;) {
    Job job;
    {
      const math::MutexLock lock(queue_mutex_);
      queue_cv_.wait(queue_mutex_, [this]() REQUIRES(queue_mutex_) {
        return stopping_ || !queue_.empty();
      });
      if (queue_.empty()) return;  // stopping_ and fully drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    if (job.abandoned->load()) {
      // The waiter already answered 504; skip the work entirely.
      job.promise.set_value(error_response(504, "deadline exceeded"));
      continue;
    }
    ++in_flight_;
    try {
      job.promise.set_value(job.work(*job.abandoned));
    } catch (...) {
      job.promise.set_exception(std::current_exception());
    }
    --in_flight_;
  }
}

Response Service::submit_and_wait(
    std::function<Response(const std::atomic<bool>&)> work,
    double deadline_ms) {
  const double budget = std::min(
      deadline_ms > 0.0 ? deadline_ms : opt_.default_deadline_ms,
      kMaxBudgetMs);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(budget));

  Job job;
  job.work = std::move(work);
  job.abandoned = std::make_shared<std::atomic<bool>>(false);
  std::future<Response> fut = job.promise.get_future();
  const std::shared_ptr<std::atomic<bool>> abandoned = job.abandoned;
  bool queue_full = false;
  {
    const math::MutexLock lock(queue_mutex_);
    if (stopping_) return unavailable("service shutting down");
    queue_full = queue_.size() >= opt_.queue_capacity;
    if (!queue_full) queue_.push_back(std::move(job));
  }
  if (queue_full) {
    const math::MutexLock lock(metrics_mutex_);
    ++counters_.queue_full_503;
    return unavailable("estimation queue full");
  }
  queue_cv_.notify_one();

  if (fut.wait_until(deadline) == std::future_status::ready) {
    try {
      return fut.get();
    } catch (const std::exception& e) {
      return error_response(500, std::string("internal error: ") + e.what());
    }
  }
  abandoned->store(true);
  return error_response(504, "deadline exceeded");
}

Response Service::handle(const Request& req) {
  const auto t0 = Clock::now();
  Response resp;
  if (req.body.size() > opt_.max_body_bytes) {
    resp = error_response(413, "request body too large");
  } else {
    resp = route(req);
  }
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  record(req, resp, elapsed_ms);
  return resp;
}

Response Service::route(const Request& req) {
  const std::string_view path = path_of(req.target);
  const bool get = req.method == "GET";
  const bool post = req.method == "POST";

  if (path == "/healthz") {
    if (!get) return error_response(405, "use GET");
    return handle_healthz();
  }
  if (path == "/metrics") {
    if (!get) return error_response(405, "use GET");
    return handle_metrics();
  }
  if (path == "/v1/methods") {
    if (!get) return error_response(405, "use GET");
    return handle_methods();
  }
  if (path == "/v1/estimate") {
    if (!post) return error_response(405, "use POST");
    return handle_estimate(req);
  }
  if (path == "/v1/batch") {
    if (!post) return error_response(405, "use POST");
    return handle_batch(req);
  }
  return error_response(404, "no such route: " + std::string(path));
}

Response Service::handle_healthz() {
  json::Value doc = json::Value::object();
  doc["status"] = "ok";
  return json_response(200, doc);
}

Response Service::handle_methods() {
  json::Value doc = json::Value::object();
  json::Value names = json::Value::array();
  for (const std::string& n : engine::registered_methods()) names.push_back(n);
  doc["methods"] = std::move(names);
  return json_response(200, doc);
}

Response Service::handle_estimate(const Request& req) {
  std::shared_ptr<const EstimateCall> call;
  try {
    call = std::make_shared<const EstimateCall>(decode_estimate(req.body));
  } catch (const json::ParseError& e) {
    return error_response(400, std::string("invalid JSON: ") + e.what());
  } catch (const BadRequest& e) {
    return error_response(400, e.what());
  }

  if (std::optional<std::string> hit = cache_.get(call->key)) {
    Response r;
    r.body = std::move(*hit);
    r.headers.emplace_back("X-Cache", "hit");
    return r;
  }

  return submit_and_wait(
      [this, call](const std::atomic<bool>&) {
        const EstimateQuery query{call->method, call->level,
                                  call->common.reliability_windows};
        Response r;
        try {
          const std::unique_ptr<engine::Estimator> est =
              engine::make(call->method, call->common.to_request());
          r = json_response(200, estimate_response(*est, query));
        } catch (const std::exception& e) {
          return error_response(500, std::string("estimation failed: ") + e.what());
        }
        cache_.put(call->key, r.body);
        r.headers.emplace_back("X-Cache", "miss");
        return r;
      },
      req.deadline_ms);
}

Response Service::handle_batch(const Request& req) {
  engine::BatchSpec spec;
  std::shared_ptr<ParsedCommon> common;
  try {
    const json::Value doc = json::parse(req.body);
    if (!doc.is_object()) throw BadRequest("request body must be a JSON object");

    const json::Value& mv = need(doc, "methods");
    if (!mv.is_array() || mv.size() == 0) {
      throw BadRequest("\"methods\" must be a non-empty array");
    }
    for (const json::Value& m : mv.items()) {
      if (!m.is_string()) throw BadRequest("\"methods\" entries must be strings");
      spec.methods.push_back(registered_method(m.as_string()));
    }

    spec.levels.clear();
    if (const json::Value* lv = doc.find("levels")) {
      for (const double l : number_array(*lv, "levels")) {
        if (!(l > 0.0) || !(l < 1.0)) {
          throw BadRequest("\"levels\" must lie in (0, 1)");
        }
        spec.levels.push_back(l);
      }
    }
    if (spec.levels.empty()) spec.levels.push_back(0.99);

    if (spec.methods.size() * spec.levels.size() > 256) {
      throw BadRequest("batch grid too large (methods x levels > 256)");
    }

    common = std::make_shared<ParsedCommon>(parse_common(doc));
    spec.reliability_windows = common->reliability_windows;
    spec.mcmc_seed_base = count_or(doc, "mcmc_seed_base", 0);
  } catch (const json::ParseError& e) {
    return error_response(400, std::string("invalid JSON: ") + e.what());
  } catch (const BadRequest& e) {
    return error_response(400, e.what());
  }

  const auto spec_ptr = std::make_shared<engine::BatchSpec>(std::move(spec));
  return submit_and_wait(
      [this, spec_ptr, common](const std::atomic<bool>& abandoned) {
        spec_ptr->requests.push_back(common->to_request());
        const engine::BatchRunner runner(opt_.batch_threads);
        const std::vector<engine::EstimationReport> reports =
            runner.run(*spec_ptr, &abandoned);
        json::Value doc = json::Value::object();
        json::Value arr = json::Value::array();
        for (const engine::EstimationReport& rep : reports) {
          json::Value r = json::Value::object();
          r["method"] = rep.method;
          r["level"] = rep.level;
          r["ok"] = rep.ok;
          if (rep.ok) {
            append_results(r, rep, spec_ptr->reliability_windows);
          } else {
            r["error"] = rep.error;
          }
          arr.push_back(std::move(r));
        }
        doc["reports"] = std::move(arr);
        return json_response(200, doc);
      },
      req.deadline_ms);
}

Response Service::handle_metrics() {
  const MetricsSnapshot m = metrics_snapshot();
  json::Value doc = json::Value::object();

  json::Value requests = json::Value::object();
  requests["total"] = m.requests_total;
  requests["estimate"] = m.estimate_requests;
  requests["batch"] = m.batch_requests;
  requests["methods"] = m.methods_requests;
  requests["healthz"] = m.healthz_requests;
  requests["metrics"] = m.metrics_requests;
  requests["unmatched"] = m.unmatched_requests;
  doc["requests"] = std::move(requests);

  json::Value responses = json::Value::object();
  responses["2xx"] = m.responses_2xx;
  responses["4xx"] = m.responses_4xx;
  responses["5xx"] = m.responses_5xx;
  responses["queue_full_503"] = m.queue_full_503;
  responses["deadline_504"] = m.deadline_504;
  doc["responses"] = std::move(responses);

  json::Value latency = json::Value::object();
  latency["count"] = m.latency_count;
  json::Value buckets = json::Value::array();
  for (const LatencyBucket& b : m.latency) {
    json::Value bucket = json::Value::object();
    bucket["lo_ms"] = b.lo_ms;
    bucket["hi_ms"] = b.hi_ms;
    bucket["count"] = b.count;
    buckets.push_back(std::move(bucket));
  }
  latency["buckets"] = std::move(buckets);
  doc["latency_ms"] = std::move(latency);

  json::Value cache = json::Value::object();
  cache["hits"] = m.cache_hits;
  cache["misses"] = m.cache_misses;
  const std::uint64_t lookups = m.cache_hits + m.cache_misses;
  cache["hit_ratio"] =
      lookups == 0 ? 0.0
                   : static_cast<double>(m.cache_hits) /
                         static_cast<double>(lookups);
  cache["entries"] = m.cache_entries;
  cache["capacity"] = m.cache_capacity;
  doc["cache"] = std::move(cache);

  json::Value queue = json::Value::object();
  queue["depth"] = m.queue_depth;
  queue["capacity"] = m.queue_capacity;
  queue["in_flight"] = m.in_flight;
  queue["workers"] = m.workers;
  doc["queue"] = std::move(queue);

  return json_response(200, doc);
}

MetricsSnapshot Service::metrics_snapshot() const {
  MetricsSnapshot m;
  {
    const math::MutexLock lock(metrics_mutex_);
    m = counters_;
    m.latency_count = latency_log10_.total();
    const double lo = latency_log10_.lo();
    const double width =
        (latency_log10_.hi() - lo) / latency_log10_.bins();
    for (int i = 0; i < latency_log10_.bins(); ++i) {
      const std::uint64_t c = latency_log10_.count(i);
      if (c == 0) continue;
      m.latency.push_back(LatencyBucket{std::pow(10.0, lo + i * width),
                                        std::pow(10.0, lo + (i + 1) * width),
                                        c});
    }
  }
  m.queue_depth = queue_depth();
  m.queue_capacity = opt_.queue_capacity;
  m.in_flight = in_flight_.load();
  m.workers = opt_.workers;
  m.cache_hits = cache_.hits();
  m.cache_misses = cache_.misses();
  m.cache_entries = cache_.size();
  m.cache_capacity = cache_.capacity();
  return m;
}

std::size_t Service::queue_depth() const {
  const math::MutexLock lock(queue_mutex_);
  return queue_.size();
}

void Service::record(const Request& req, const Response& resp,
                     double elapsed_ms) {
  const std::string_view path = path_of(req.target);
  const math::MutexLock lock(metrics_mutex_);
  ++counters_.requests_total;
  if (path == "/v1/estimate") ++counters_.estimate_requests;
  else if (path == "/v1/batch") ++counters_.batch_requests;
  else if (path == "/v1/methods") ++counters_.methods_requests;
  else if (path == "/healthz") ++counters_.healthz_requests;
  else if (path == "/metrics") ++counters_.metrics_requests;
  else ++counters_.unmatched_requests;

  if (resp.status >= 200 && resp.status < 300) ++counters_.responses_2xx;
  else if (resp.status >= 400 && resp.status < 500) ++counters_.responses_4xx;
  else if (resp.status >= 500) ++counters_.responses_5xx;
  if (resp.status == 504) ++counters_.deadline_504;

  // Clamp into the histogram's domain so no request is ever dropped.
  const double x = std::log10(std::max(elapsed_ms, 1.1e-2));
  latency_log10_.add(std::min(std::max(x, -2.0), 6.0 - 1e-9));
}

std::string Service::canonical_estimate_key(const std::string& body) const {
  return decode_estimate(body).key;
}

}  // namespace vbsrm::serve
