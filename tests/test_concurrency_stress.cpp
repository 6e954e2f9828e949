// ThreadSanitizer-targeted stress tests for every concurrent subsystem:
// math::parallel_for's contended error path, BatchRunner cancellation
// mid-grid, the serve worker pool's backpressure / deadline / drain
// paths, and sharded cache hit/miss races.  The assertions are
// deliberately structural (every response is one of the statuses the
// state machine can produce, every cache hit returns the bytes that
// were put) — the real check is TSan observing the interleavings
// race-free.  Sized to stay fast under TSan's ~10x slowdown.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bayes/prior.hpp"
#include "data/failure_data.hpp"
#include "engine/batch.hpp"
#include "engine/registry.hpp"
#include "math/parallel.hpp"
#include "serve/cache.hpp"
#include "serve/service.hpp"

using namespace vbsrm;

namespace {

// --- a cheap registered method with a tunable fit duration ---------------

std::atomic<int> g_fit_ms{0};

class StressEstimator : public engine::Estimator {
 public:
  std::string_view method() const override { return "stress"; }
  bayes::PosteriorSummary summarize() const override {
    bayes::PosteriorSummary s;
    s.mean_omega = 30.0;
    s.mean_beta = 0.02;
    s.var_omega = 4.0;
    s.var_beta = 1e-4;
    s.cov = 0.01;
    return s;
  }
  bayes::CredibleInterval interval_omega(double level) const override {
    return {20.0, 40.0, level};
  }
  bayes::CredibleInterval interval_beta(double level) const override {
    return {0.01, 0.03, level};
  }
  bayes::ReliabilityEstimate reliability(double, double level) const override {
    return {0.9, 0.8, 0.95, level};
  }
};

void ensure_stress_registered() {
  static const bool once = [] {
    engine::register_method("stress", [](const engine::EstimatorRequest&) {
      const int ms = g_fit_ms.load();
      if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      return std::make_unique<StressEstimator>();
    });
    return true;
  }();
  (void)once;
}

engine::EstimatorRequest tiny_request() {
  return engine::EstimatorRequest(
      1.0, data::FailureTimeData({5.0, 12.0, 25.0, 40.0, 60.0}, 100.0),
      bayes::PriorPair::flat());
}

serve::Request estimate_request(double deadline_ms = 0.0) {
  return serve::Request{
      "POST", "/v1/estimate",
      "{\"method\":\"stress\","
      "\"data\":{\"type\":\"failure_times\",\"times\":[5,12,25,40,60],"
      "\"observation_end\":100},\"level\":0.99}",
      deadline_ms};
}

}  // namespace

// --- math::parallel_for ----------------------------------------------------

TEST(ParallelForStress, ContendedErrorCaptureRethrowsFirstException) {
  for (int round = 0; round < 8; ++round) {
    std::atomic<int> executed{0};
    EXPECT_THROW(
        math::parallel_for(256, 8,
                           [&](std::size_t i) {
                             ++executed;
                             if (i % 7 == 0) {
                               throw std::runtime_error("task failure");
                             }
                           }),
        std::runtime_error);
    EXPECT_EQ(executed.load(), 256);  // an error never stops the sweep
  }
}

TEST(ParallelForStress, NestedParallelSweeps) {
  std::vector<int> out(64, 0);
  math::parallel_for(8, 4, [&](std::size_t outer) {
    math::parallel_for(8, 2, [&](std::size_t inner) {
      out[outer * 8 + inner] = static_cast<int>(outer * 8 + inner);
    });
  });
  for (int i = 0; i < 64; ++i) EXPECT_EQ(out[i], i);
}

// --- BatchRunner cancellation ---------------------------------------------

TEST(BatchRunnerStress, CancelMidGridLeavesOnlyOkOrCanceledCells) {
  ensure_stress_registered();
  g_fit_ms.store(2);
  engine::BatchSpec spec;
  spec.methods = {"stress"};
  for (int i = 0; i < 64; ++i) spec.requests.push_back(tiny_request());
  spec.levels = {0.99};

  std::atomic<bool> cancel{false};
  std::thread trigger([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    cancel.store(true);
  });
  const std::vector<engine::EstimationReport> reports =
      engine::BatchRunner(8).run(spec, &cancel);
  trigger.join();
  g_fit_ms.store(0);

  ASSERT_EQ(reports.size(), 64u);
  std::size_t canceled = 0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].method, "stress");
    EXPECT_EQ(reports[i].request_index, i);  // slot order is fixed
    if (reports[i].ok) {
      EXPECT_EQ(reports[i].summary.mean_omega, 30.0);
    } else {
      EXPECT_EQ(reports[i].error, "canceled");
      ++canceled;
    }
  }
  // 64 cells x 2 ms across 8 workers runs ~16 ms; the 10 ms trigger
  // lands mid-grid, so completed and canceled cells both exist.
  EXPECT_GT(canceled, 0u);
  EXPECT_LT(canceled, reports.size());
}

TEST(BatchRunnerStress, ConcurrentIndependentGrids) {
  ensure_stress_registered();
  g_fit_ms.store(0);
  engine::BatchSpec spec;
  spec.methods = {"stress"};
  for (int i = 0; i < 8; ++i) spec.requests.push_back(tiny_request());
  std::vector<std::thread> drivers;
  for (int t = 0; t < 4; ++t) {
    drivers.emplace_back([&spec] {
      const auto reports = engine::BatchRunner(4).run(spec);
      ASSERT_EQ(reports.size(), 8u);
      for (const auto& r : reports) EXPECT_TRUE(r.ok) << r.error;
    });
  }
  for (std::thread& t : drivers) t.join();
}

// --- serve::ResultCache ----------------------------------------------------

TEST(CacheStress, RacingHitsMissesAndEvictionsStayConsistent) {
  serve::ResultCache cache(32);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 400; ++i) {
        const std::string key = "key-" + std::to_string((t * 31 + i) % 50);
        if (i % 3 == 0) {
          cache.put(key, key + ":value");
        } else if (std::optional<std::string> hit = cache.get(key)) {
          // A hit must carry exactly the bytes some put stored for this
          // key — never a torn value, never another key's bytes.
          EXPECT_EQ(*hit, key + ":value");
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_LE(cache.size(), 32u);
  EXPECT_GT(cache.hits() + cache.misses(), 0u);
}

// --- serve::Service --------------------------------------------------------

TEST(ServiceStress, QueueFullAnswers503UnderContention) {
  ensure_stress_registered();
  g_fit_ms.store(30);
  serve::ServiceOptions opt;
  opt.workers = 2;
  opt.queue_capacity = 1;
  opt.cache_capacity = 0;  // every request must take the queue path
  serve::Service service(opt);

  constexpr int kClients = 12;
  std::vector<int> status(kClients, 0);
  // vector<char>, not vector<bool>: bit-packed elements share bytes and
  // concurrent writes to neighbours would be a real data race.
  std::vector<char> has_retry_after(kClients, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&service, &status, &has_retry_after, c] {
      const serve::Response r = service.handle(estimate_request());
      status[c] = r.status;
      for (const auto& [name, value] : r.headers) {
        if (name == "Retry-After") has_retry_after[c] = value.empty() ? 0 : 1;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  g_fit_ms.store(0);

  int ok = 0, rejected = 0;
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(status[c] == 200 || status[c] == 503) << status[c];
    if (status[c] == 200) ++ok;
    if (status[c] == 503) {
      ++rejected;
      EXPECT_TRUE(has_retry_after[c]);
    }
  }
  // 12 simultaneous clients against 2 workers + 1 queue slot: some are
  // served, some shed.  (>= 3 can be served as workers free up.)
  EXPECT_GE(ok, 1);
  EXPECT_GE(rejected, 1);

  const serve::MetricsSnapshot m = service.metrics_snapshot();
  EXPECT_EQ(m.requests_total, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(m.queue_full_503, static_cast<std::uint64_t>(rejected));
}

TEST(ServiceStress, DeadlineExpiryUnderContentionThenRecovers) {
  ensure_stress_registered();
  g_fit_ms.store(50);
  serve::ServiceOptions opt;
  opt.workers = 1;
  opt.queue_capacity = 8;
  opt.cache_capacity = 0;
  serve::Service service(opt);

  std::vector<int> status(4, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&service, &status, c] {
      status[c] = service.handle(estimate_request(/*deadline_ms=*/5.0)).status;
    });
  }
  for (std::thread& t : clients) t.join();

  int expired = 0;
  for (const int s : status) {
    ASSERT_TRUE(s == 200 || s == 504) << s;
    if (s == 504) ++expired;
  }
  EXPECT_GE(expired, 1);  // a 5 ms budget cannot cover 50 ms fits queued 4 deep

  // Abandoned jobs must not wedge the pool: a fresh request with the
  // default (30 s) deadline is served normally.
  g_fit_ms.store(0);
  EXPECT_EQ(service.handle(estimate_request()).status, 200);
}

TEST(ServiceStress, ConcurrentShutdownWhileClientsPost) {
  ensure_stress_registered();
  for (int round = 0; round < 4; ++round) {
    g_fit_ms.store(3);
    serve::ServiceOptions opt;
    opt.workers = 2;
    opt.queue_capacity = 16;
    opt.cache_capacity = 0;
    auto service = std::make_unique<serve::Service>(opt);

    std::vector<std::thread> clients;
    for (int c = 0; c < 6; ++c) {
      clients.emplace_back([&service] {
        for (int i = 0; i < 3; ++i) {
          const int s = service->handle(estimate_request()).status;
          // In-flight and queued jobs complete (200); requests arriving
          // after the drain began are shed (503).
          ASSERT_TRUE(s == 200 || s == 503) << s;
        }
      });
    }
    // Two racing shutdown calls model the destructor racing a
    // signal-initiated drain; the join must happen exactly once.
    std::thread stopper1([&service] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      service->shutdown();
    });
    std::thread stopper2([&service] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      service->shutdown();
    });
    for (std::thread& t : clients) t.join();
    stopper1.join();
    stopper2.join();
    service->shutdown();  // idempotent after the fact
    service.reset();      // destructor shutdown is a no-op
    g_fit_ms.store(0);
  }
}

TEST(ServiceStress, MetricsSnapshotsRaceRequestTraffic) {
  ensure_stress_registered();
  g_fit_ms.store(1);
  serve::ServiceOptions opt;
  opt.workers = 2;
  opt.cache_capacity = 0;
  serve::Service service(opt);

  std::atomic<bool> done{false};
  std::thread observer([&] {
    while (!done.load()) {
      const serve::MetricsSnapshot m = service.metrics_snapshot();
      EXPECT_LE(m.responses_2xx + m.responses_4xx + m.responses_5xx,
                m.requests_total);
      (void)service.queue_depth();
    }
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&service] {
      for (int i = 0; i < 8; ++i) {
        (void)service.handle(estimate_request());
        (void)service.handle(serve::Request{"GET", "/metrics", "", 0.0});
      }
    });
  }
  for (std::thread& t : clients) t.join();
  done.store(true);
  observer.join();
  g_fit_ms.store(0);

  const serve::MetricsSnapshot m = service.metrics_snapshot();
  EXPECT_EQ(m.requests_total, 4u * 8u * 2u);
}
