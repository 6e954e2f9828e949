// serve::Service driven in-process: routing, the estimate/batch
// pipelines, cache-hit byte-identity, backpressure (queue-full 503),
// deadline expiry (504), and concurrent-client determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bayes/prior.hpp"
#include "data/datasets.hpp"
#include "data/failure_data.hpp"
#include "engine/registry.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"

using namespace vbsrm;
namespace json = serve::json;

namespace {

std::uint64_t bits_of(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// --- a registerable test method with a controllable fit duration ----------

std::atomic<int> g_slow_ms{0};

class FakeEstimator : public engine::Estimator {
 public:
  std::string_view method() const override { return "slowtest"; }
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

void ensure_slowtest_registered() {
  static const bool once = [] {
    engine::register_method("slowtest", [](const engine::EstimatorRequest&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(g_slow_ms.load()));
      return std::make_unique<FakeEstimator>();
    });
    return true;
  }();
  (void)once;
}

// --- request helpers -------------------------------------------------------

serve::Request get(const std::string& target) {
  return serve::Request{"GET", target, "", 0.0};
}

serve::Request post(const std::string& target, const std::string& body,
                    double deadline_ms = 0.0) {
  return serve::Request{"POST", target, body, deadline_ms};
}

std::string estimate_body(const std::string& method,
                          const std::string& times = "[5,12,25,40,60]") {
  return "{\"method\":\"" + method +
         "\",\"alpha0\":1.0,"
         "\"data\":{\"type\":\"failure_times\",\"times\":" +
         times +
         ",\"observation_end\":100},"
         "\"priors\":{\"omega\":{\"mean\":20,\"sd\":10},"
         "\"beta\":{\"mean\":0.01,\"sd\":0.005}},"
         "\"level\":0.99,\"reliability_windows\":[10]}";
}

const std::string* header(const serve::Response& r, std::string_view name) {
  for (const auto& [k, v] : r.headers) {
    if (k == name) return &v;
  }
  return nullptr;
}

serve::ServiceOptions small_options() {
  serve::ServiceOptions opt;
  opt.workers = 2;
  opt.queue_capacity = 16;
  opt.cache_capacity = 32;
  return opt;
}

TEST(ServeService, RoutingBasics) {
  serve::Service svc(small_options());

  EXPECT_EQ(svc.handle(get("/healthz")).status, 200);
  EXPECT_NE(svc.handle(get("/healthz")).body.find("ok"), std::string::npos);
  EXPECT_EQ(svc.handle(post("/healthz", "")).status, 405);
  EXPECT_EQ(svc.handle(get("/v1/estimate")).status, 405);
  EXPECT_EQ(svc.handle(get("/no/such/route")).status, 404);
  // Query strings are ignored for routing.
  EXPECT_EQ(svc.handle(get("/healthz?verbose=1")).status, 200);

  const serve::MetricsSnapshot m = svc.metrics_snapshot();
  EXPECT_EQ(m.requests_total, 6u);
  EXPECT_EQ(m.healthz_requests, 4u);  // includes the 405 and the query hit
  EXPECT_EQ(m.unmatched_requests, 1u);
  EXPECT_EQ(m.latency_count, 6u);  // every request lands in the histogram
}

TEST(ServeService, OversizedBodyIs413) {
  serve::ServiceOptions opt = small_options();
  opt.max_body_bytes = 16;
  serve::Service svc(opt);
  EXPECT_EQ(svc.handle(post("/v1/estimate", std::string(64, 'x'))).status,
            413);
}

TEST(ServeService, MethodsRouteMatchesRegistry) {
  ensure_slowtest_registered();
  serve::Service svc(small_options());
  const serve::Response r = svc.handle(get("/v1/methods"));
  ASSERT_EQ(r.status, 200);

  const json::Value doc = json::parse(r.body);
  const json::Value* names = doc.find("methods");
  ASSERT_NE(names, nullptr);
  std::vector<std::string> served;
  for (const json::Value& n : names->items()) served.push_back(n.as_string());
  EXPECT_EQ(served, engine::registered_methods());
}

TEST(ServeService, EstimateMatchesDirectFitBitForBit) {
  serve::Service svc(small_options());
  const serve::Response r =
      svc.handle(post("/v1/estimate", estimate_body("vb2")));
  ASSERT_EQ(r.status, 200) << r.body;

  // The same fit, made directly against the engine.
  const data::FailureTimeData dt({5, 12, 25, 40, 60}, 100.0);
  const bayes::PriorPair priors{bayes::GammaPrior::from_mean_sd(20.0, 10.0),
                                bayes::GammaPrior::from_mean_sd(0.01, 0.005)};
  const engine::EstimatorRequest req(1.0, dt, priors);
  const auto est = engine::make("vb2", req);

  const json::Value doc = json::parse(r.body);
  const json::Value* summary = doc.find("summary");
  ASSERT_NE(summary, nullptr);
  const auto s = est->summarize();
  EXPECT_EQ(bits_of(summary->find("mean_omega")->as_number()),
            bits_of(s.mean_omega));
  EXPECT_EQ(bits_of(summary->find("mean_beta")->as_number()),
            bits_of(s.mean_beta));
  EXPECT_EQ(bits_of(summary->find("var_omega")->as_number()),
            bits_of(s.var_omega));
  EXPECT_EQ(bits_of(summary->find("var_beta")->as_number()),
            bits_of(s.var_beta));
  EXPECT_EQ(bits_of(summary->find("cov")->as_number()), bits_of(s.cov));

  const json::Value* intervals = doc.find("intervals");
  ASSERT_NE(intervals, nullptr);
  const auto io = est->interval_omega(0.99);
  const auto ib = est->interval_beta(0.99);
  EXPECT_EQ(
      bits_of(intervals->find("omega")->find("lower")->as_number()),
      bits_of(io.lower));
  EXPECT_EQ(
      bits_of(intervals->find("omega")->find("upper")->as_number()),
      bits_of(io.upper));
  EXPECT_EQ(bits_of(intervals->find("beta")->find("lower")->as_number()),
            bits_of(ib.lower));
  EXPECT_EQ(bits_of(intervals->find("beta")->find("upper")->as_number()),
            bits_of(ib.upper));

  const json::Value* rel = doc.find("reliability");
  ASSERT_NE(rel, nullptr);
  ASSERT_EQ(rel->size(), 1u);
  const auto re = est->reliability(10.0, 0.99);
  const json::Value& entry = rel->items()[0];
  EXPECT_EQ(bits_of(entry.find("window")->as_number()), bits_of(10.0));
  EXPECT_EQ(bits_of(entry.find("point")->as_number()), bits_of(re.point));
  EXPECT_EQ(bits_of(entry.find("lower")->as_number()), bits_of(re.lower));
  EXPECT_EQ(bits_of(entry.find("upper")->as_number()), bits_of(re.upper));
}

// The daemon's defaults (flat priors) with a window of 3 t_e on System
// 17: the lower endpoint sits below the x-space search floor, and the
// answer must still order lower <= point <= upper.
TEST(ServeService, LongWindowWithFlatPriorsKeepsEndpointsAroundThePoint) {
  serve::Service svc(small_options());
  const auto dt = data::datasets::system17_failure_times();
  std::string times = "[";
  for (const double t : dt.times()) {
    if (times.size() > 1) times += ',';
    times += json::write_number(t);
  }
  times += ']';
  const std::string te = json::write_number(dt.observation_end());
  const std::string u = json::write_number(3.0 * dt.observation_end());
  const std::string body =
      "{\"method\":\"vb2\",\"data\":{\"type\":\"failure_times\","
      "\"times\":" + times + ",\"observation_end\":" + te +
      "},\"level\":0.99,\"reliability_windows\":[" + u + "]}";
  // 8155 mixture components: give sanitizer builds room.
  const serve::Response r =
      svc.handle(post("/v1/estimate", body, 600000.0));
  ASSERT_EQ(r.status, 200) << r.body;
  const json::Value doc = json::parse(r.body);
  const json::Value* rel = doc.find("reliability");
  ASSERT_NE(rel, nullptr);
  ASSERT_EQ(rel->size(), 1u);
  const json::Value& entry = rel->items()[0];
  const double lower = entry.find("lower")->as_number();
  const double point = entry.find("point")->as_number();
  const double upper = entry.find("upper")->as_number();
  EXPECT_GE(lower, 0.0);
  EXPECT_LE(lower, point);
  EXPECT_LE(point, upper);
}

TEST(ServeService, CacheHitIsByteIdentical) {
  serve::Service svc(small_options());
  const std::string body = estimate_body("vb2");

  const serve::Response first = svc.handle(post("/v1/estimate", body));
  ASSERT_EQ(first.status, 200) << first.body;
  ASSERT_NE(header(first, "X-Cache"), nullptr);
  EXPECT_EQ(*header(first, "X-Cache"), "miss");

  const serve::Response second = svc.handle(post("/v1/estimate", body));
  ASSERT_EQ(second.status, 200);
  ASSERT_NE(header(second, "X-Cache"), nullptr);
  EXPECT_EQ(*header(second, "X-Cache"), "hit");
  EXPECT_EQ(second.body, first.body);

  const serve::MetricsSnapshot m = svc.metrics_snapshot();
  EXPECT_EQ(m.cache_hits, 1u);
  EXPECT_EQ(m.cache_misses, 1u);
  EXPECT_EQ(m.cache_entries, 1u);
}

TEST(ServeService, CanonicalKeyMaterializesDefaults) {
  serve::Service svc(small_options());
  // Minimal body: everything defaulted.
  const std::string minimal =
      R"({"data":{"type":"failure_times","times":[1,2,3],)"
      R"("observation_end":10}})";
  // Same request with every default spelled out (and the method name
  // upper-cased — lookup is case-insensitive).
  const std::string explicit_body =
      R"({"method":"VB2","alpha0":1.0,"level":0.99,)"
      R"("data":{"type":"failure_times","times":[1,2,3],)"
      R"("observation_end":10},)"
      R"("priors":{"omega":{"shape":1,"rate":0},)"
      R"("beta":{"shape":1,"rate":0}},"reliability_windows":[]})";
  EXPECT_EQ(svc.canonical_estimate_key(minimal),
            svc.canonical_estimate_key(explicit_body));

  // Anything that changes the fit changes the key.
  const std::string other_level =
      R"({"level":0.95,"data":{"type":"failure_times","times":[1,2,3],)"
      R"("observation_end":10}})";
  EXPECT_NE(svc.canonical_estimate_key(minimal),
            svc.canonical_estimate_key(other_level));
}

TEST(ServeService, BadRequestsGet400) {
  serve::Service svc(small_options());
  const auto estimate = [&](const std::string& body) {
    return svc.handle(post("/v1/estimate", body));
  };

  EXPECT_EQ(estimate("this is not json").status, 400);
  EXPECT_EQ(estimate("[1,2,3]").status, 400);  // not an object
  EXPECT_EQ(estimate("{}").status, 400);       // data missing

  const serve::Response unknown =
      estimate(estimate_body("no-such-method"));
  EXPECT_EQ(unknown.status, 400);
  EXPECT_NE(unknown.body.find("registered"), std::string::npos)
      << unknown.body;

  // Invalid data: a failure time beyond the observation window.
  EXPECT_EQ(estimate(estimate_body("vb2", "[5,12,250]")).status, 400);
  // Invalid level.
  const std::string bad_level =
      R"({"level":1.5,"data":{"type":"failure_times","times":[1],)"
      R"("observation_end":10}})";
  EXPECT_EQ(estimate(bad_level).status, 400);
  // Grouped data with a negative count.
  const std::string bad_count =
      R"({"data":{"type":"grouped","boundaries":[1,2],"counts":[3,-1]}})";
  EXPECT_EQ(estimate(bad_count).status, 400);

  const serve::MetricsSnapshot m = svc.metrics_snapshot();
  EXPECT_EQ(m.responses_4xx, 7u);
  EXPECT_EQ(m.responses_5xx, 0u);
}

TEST(ServeService, QueueFullAnswers503WithRetryAfter) {
  ensure_slowtest_registered();
  g_slow_ms = 300;
  serve::ServiceOptions opt;
  opt.workers = 1;
  opt.queue_capacity = 1;
  opt.cache_capacity = 0;  // every request must reach the queue
  serve::Service svc(opt);

  constexpr int kClients = 8;
  std::vector<serve::Response> responses(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        // Distinct datasets so no two requests share a cache key.  (Built
        // by appending: GCC 12's -Wrestrict misfires on "[" + string at -O3.)
        std::string times = "[";
        times += std::to_string(i + 1);
        times += ']';
        responses[static_cast<std::size_t>(i)] =
            svc.handle(post("/v1/estimate", estimate_body("slowtest", times)));
      });
    }
    for (std::thread& t : clients) t.join();
  }
  g_slow_ms = 0;

  int ok = 0, rejected = 0;
  for (const serve::Response& r : responses) {
    if (r.status == 200) {
      ++ok;
    } else {
      ASSERT_EQ(r.status, 503) << r.body;
      ++rejected;
      const std::string* retry = header(r, "Retry-After");
      ASSERT_NE(retry, nullptr);
      EXPECT_GE(std::stoi(*retry), 1);
    }
  }
  // One running + one queued can be admitted at a time; with 8 near-
  // simultaneous clients at least one lands in each bucket.
  EXPECT_GE(ok, 1);
  EXPECT_GE(rejected, 1);
  EXPECT_GE(svc.metrics_snapshot().queue_full_503, 1u);
}

TEST(ServeService, DeadlineExpiryAnswers504) {
  ensure_slowtest_registered();
  g_slow_ms = 500;
  serve::ServiceOptions opt;
  opt.workers = 1;
  opt.cache_capacity = 0;
  serve::Service svc(opt);

  const serve::Response r =
      svc.handle(post("/v1/estimate", estimate_body("slowtest"), 50.0));
  g_slow_ms = 0;
  EXPECT_EQ(r.status, 504);
  EXPECT_NE(r.body.find("deadline"), std::string::npos);
  EXPECT_EQ(svc.metrics_snapshot().deadline_504, 1u);
}

TEST(ServeService, DeadlinesPastTheClockRangeStillServe) {
  // A budget far past the steady clock's range must not overflow
  // now + budget into a deadline in the past (an instant 504).
  ensure_slowtest_registered();
  serve::ServiceOptions opt = small_options();
  opt.cache_capacity = 0;  // every request must reach the queue
  serve::Service svc(opt);
  for (const double deadline_ms :
       {1e15, 1e300, std::numeric_limits<double>::infinity()}) {
    const serve::Response r = svc.handle(
        post("/v1/estimate", estimate_body("slowtest"), deadline_ms));
    EXPECT_EQ(r.status, 200) << deadline_ms << ": " << r.body;
  }
  EXPECT_EQ(svc.metrics_snapshot().deadline_504, 0u);
}

TEST(ServeService, ChainCountAboveIntMaxIs400) {
  // A count past INT_MAX must be refused, not wrapped: 2^32 + 1 would
  // truncate to one chain and be served as "chains": 1.
  ensure_slowtest_registered();
  serve::Service svc(small_options());
  for (const char* chains : {"4294967297", "2147483648"}) {
    const std::string body =
        R"({"method":"slowtest","data":{"type":"failure_times",)"
        R"("times":[5,12,25],"observation_end":100},"mcmc":{"chains":)" +
        std::string(chains) + "}}";
    const serve::Response r = svc.handle(post("/v1/estimate", body));
    EXPECT_EQ(r.status, 400) << chains << ": " << r.body;
    EXPECT_NE(r.body.find("chains"), std::string::npos) << r.body;
  }
}

TEST(ServeService, McmcIterationCountThatWrapsIs400) {
  // burn_in + thin * samples = 2^53 * 2^11 wraps to 0 in 64 bits; the
  // request must be refused up front, not run as an empty chain.
  serve::Service svc(small_options());
  const std::string body =
      R"({"method":"mcmc","data":{"type":"failure_times",)"
      R"("times":[5,12,25],"observation_end":100},)"
      R"("mcmc":{"burn_in":0,"thin":9007199254740992,"samples":2048}})";
  const serve::Response r = svc.handle(post("/v1/estimate", body));
  EXPECT_EQ(r.status, 400) << r.body;
  EXPECT_NE(r.body.find("mcmc"), std::string::npos) << r.body;
}

TEST(ServeService, ShutdownDrainsAndRejectsNewWork) {
  serve::Service svc(small_options());
  svc.shutdown();
  const serve::Response r =
      svc.handle(post("/v1/estimate", estimate_body("vb2")));
  EXPECT_EQ(r.status, 503);
  ASSERT_NE(header(r, "Retry-After"), nullptr);
  // A shutdown rejection is not a queue-full one.
  EXPECT_EQ(svc.metrics_snapshot().queue_full_503, 0u);
  // Idempotent.
  svc.shutdown();
}

TEST(ServeService, ConcurrentClientsGetByteIdenticalBodies) {
  serve::ServiceOptions opt = small_options();
  opt.workers = 4;
  serve::Service svc(opt);
  const std::string body = estimate_body("vb2");

  constexpr int kClients = 6;  // >= 4 concurrent, mixed hits and misses
  std::vector<serve::Response> responses(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        responses[static_cast<std::size_t>(i)] =
            svc.handle(post("/v1/estimate", body));
      });
    }
    for (std::thread& t : clients) t.join();
  }
  for (const serve::Response& r : responses) {
    ASSERT_EQ(r.status, 200) << r.body;
    EXPECT_EQ(r.body, responses[0].body);
  }
}

TEST(ServeService, BatchRouteRunsTheGrid) {
  serve::Service svc(small_options());
  const std::string body =
      R"({"methods":["vb2","VB1"],"levels":[0.9,0.99],)"
      R"("data":{"type":"failure_times","times":[5,12,25,40,60],)"
      R"("observation_end":100},"reliability_windows":[10]})";
  // Generous explicit deadline: the grid does real VB fits, and this test
  // is about ordering/content, not deadline enforcement — a loaded ctest -j
  // run must not 504 it.
  const serve::Response r = svc.handle(post("/v1/batch", body, 300000.0));
  ASSERT_EQ(r.status, 200) << r.body;

  const json::Value doc = json::parse(r.body);
  const json::Value* reports = doc.find("reports");
  ASSERT_NE(reports, nullptr);
  ASSERT_EQ(reports->size(), 4u);  // 2 methods x 1 request x 2 levels

  // Deterministic order: methods-major, levels-minor.
  const char* want_method[] = {"vb2", "vb2", "vb1", "vb1"};
  const double want_level[] = {0.9, 0.99, 0.9, 0.99};
  for (std::size_t i = 0; i < 4; ++i) {
    const json::Value& rep = reports->items()[i];
    EXPECT_EQ(rep.find("method")->as_string(), want_method[i]);
    EXPECT_EQ(rep.find("level")->as_number(), want_level[i]);
    ASSERT_TRUE(rep.find("ok")->as_bool()) << r.body;
    EXPECT_NE(rep.find("summary"), nullptr);
    ASSERT_NE(rep.find("reliability"), nullptr);
    EXPECT_EQ(rep.find("reliability")->size(), 1u);
  }

  // Unknown method in the grid is rejected up front.
  const std::string bad =
      R"({"methods":["nope"],"data":{"type":"failure_times",)"
      R"("times":[1],"observation_end":10}})";
  EXPECT_EQ(svc.handle(post("/v1/batch", bad)).status, 400);
}

}  // namespace
