// The estimation service, sockets excluded.
//
// Service::handle maps one logical request (method + target + JSON
// body) to one response; the HTTP layer in serve/http.hpp is a thin
// wire adapter around it, and the tests drive this class directly.
//
// Routes:
//   POST /v1/estimate  dataset + method + options -> moments, credible
//                      intervals, reliability (one engine::make fit)
//   POST /v1/batch     method x level grid -> engine::BatchRunner
//   GET  /v1/methods   engine::registered_methods()
//   GET  /healthz      liveness probe
//   GET  /metrics      counters, latency histogram, cache + queue state
//
// Concurrency model: handle() may be called from any number of I/O
// threads; estimation work is pushed onto a bounded queue served by a
// fixed worker pool.  A full queue answers 503 + "Retry-After: 1"
// immediately (backpressure, never unbounded blocking), and each
// request carries a deadline — when it expires while the job is still
// queued or running, the caller gets 504 and a still-queued job is
// skipped instead of burning a worker for nobody.
//
// Caching: estimate responses are stored in a sharded LRU keyed by the
// canonical serialization of (dataset, method, options); hits return
// the exact bytes the miss produced (X-Cache: hit|miss tells them
// apart, the body never differs).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/estimator.hpp"
#include "math/thread_annotations.hpp"
#include "serve/cache.hpp"
#include "serve/json.hpp"
#include "stats/histogram.hpp"

namespace vbsrm::serve {

struct ServiceOptions {
  unsigned workers = 0;              // estimation workers; 0 = hardware
  std::size_t queue_capacity = 64;   // jobs waiting beyond the workers
  std::size_t cache_capacity = 256;  // cached estimate responses
  double default_deadline_ms = 30000.0;
  unsigned batch_threads = 1;        // BatchRunner width inside one job
  std::size_t max_body_bytes = 8u << 20;
};

/// A transport-agnostic request: the HTTP layer fills this from the
/// wire, tests construct it directly.
struct Request {
  std::string method;        // "GET" / "POST"
  std::string target;        // path, query string ignored
  std::string body;
  double deadline_ms = 0.0;  // <= 0 picks ServiceOptions::default_deadline_ms
};

struct Response {
  int status = 200;
  std::string content_type = "application/json";
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
};

/// What /v1/estimate answers for one fitted estimator; shared with the
/// CLI's --json mode so both front ends emit one schema.
struct EstimateQuery {
  std::string method = "vb2";
  double level = 0.99;
  std::vector<double> reliability_windows;
};

/// Build the estimate response document (summary, intervals,
/// reliability per window, diagnostics).  Deterministic for a
/// deterministic estimator: wall-clock fields are deliberately
/// excluded so cache hits and misses are byte-identical.
json::Value estimate_response(const engine::Estimator& est,
                              const EstimateQuery& query);

/// The JSON error response every failure carries:
/// {"error":{"status":<status>,"message":<message>}}.
Response error_response(int status, const std::string& message);

struct LatencyBucket {
  double lo_ms = 0.0;
  double hi_ms = 0.0;
  std::uint64_t count = 0;
};

struct MetricsSnapshot {
  std::uint64_t requests_total = 0;
  std::uint64_t estimate_requests = 0;
  std::uint64_t batch_requests = 0;
  std::uint64_t methods_requests = 0;
  std::uint64_t healthz_requests = 0;
  std::uint64_t metrics_requests = 0;
  std::uint64_t unmatched_requests = 0;  // 404/405
  std::uint64_t responses_2xx = 0;
  std::uint64_t responses_4xx = 0;
  std::uint64_t responses_5xx = 0;
  std::uint64_t queue_full_503 = 0;
  std::uint64_t deadline_504 = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::size_t cache_entries = 0;
  std::size_t cache_capacity = 0;
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  std::size_t in_flight = 0;
  unsigned workers = 0;
  std::uint64_t latency_count = 0;
  std::vector<LatencyBucket> latency;  // non-empty bins only
};

class Service {
 public:
  explicit Service(ServiceOptions opt = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Thread-safe request dispatch.
  Response handle(const Request& req);

  MetricsSnapshot metrics_snapshot() const;
  std::size_t queue_depth() const;
  const ServiceOptions& options() const { return opt_; }

  /// Drain: stop admitting work, let the workers finish every queued
  /// job, join them.  Idempotent; handle() answers 503 afterwards.
  void shutdown();

  /// Canonical cache key for an estimate body (exposed for tests):
  /// the compact serialization of the normalized request document.
  /// Throws the same errors handle() maps to 400.
  std::string canonical_estimate_key(const std::string& body) const;

 private:
  struct Job {
    // `work` receives the job's abandoned flag so long-running work
    // (batch grids) can cancel mid-flight after the waiter gave up.
    std::function<Response(const std::atomic<bool>&)> work;
    std::promise<Response> promise;
    std::shared_ptr<std::atomic<bool>> abandoned;
  };

  Response route(const Request& req);
  Response handle_estimate(const Request& req);
  Response handle_batch(const Request& req);
  Response handle_methods();
  Response handle_healthz();
  Response handle_metrics();

  /// Queue `work` and wait for it up to the deadline.  Returns the 503
  /// (queue full / shutting down) or 504 (deadline) response when the
  /// result never arrives.
  Response submit_and_wait(
      std::function<Response(const std::atomic<bool>&)> work,
      double deadline_ms);

  void worker_loop();
  void record(const Request& req, const Response& resp, double elapsed_ms);

  ServiceOptions opt_;
  ResultCache cache_;

  mutable math::Mutex queue_mutex_;
  math::CondVar queue_cv_;
  std::deque<Job> queue_ GUARDED_BY(queue_mutex_);
  bool stopping_ GUARDED_BY(queue_mutex_) = false;
  std::atomic<std::size_t> in_flight_{0};

  // Joining is serialized by its own mutex so concurrent shutdown()
  // calls (destructor racing a signal-handler drain) never both join
  // the same std::thread.  Lock order: join_mutex_ is never taken with
  // queue_mutex_ held, and workers only ever take queue_mutex_, so no
  // cycle exists.
  mutable math::Mutex join_mutex_;
  std::vector<std::thread> workers_ GUARDED_BY(join_mutex_);

  mutable math::Mutex metrics_mutex_;
  MetricsSnapshot counters_ GUARDED_BY(metrics_mutex_);  // histogram unused
  stats::Histogram1D latency_log10_ GUARDED_BY(metrics_mutex_);  // log10(ms)
};

}  // namespace vbsrm::serve
