// The HTTP wire layer: parse_http_request framing and rejection rules,
// serialize_response framing, and a loopback HttpServer checking how
// the X-Deadline-Ms header is read and which status parse errors get.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "engine/registry.hpp"
#include "serve/http.hpp"
#include "serve/service.hpp"

using namespace vbsrm;

namespace {

struct Parsed {
  serve::ParseStatus status;
  serve::HttpRequest req;
  std::size_t consumed = 0;
  std::string error;
};

Parsed parse(const std::string& buf, std::size_t max_body = 8u << 20) {
  Parsed p;
  p.status = serve::parse_http_request(buf, p.req, p.consumed, p.error,
                                       max_body);
  return p;
}

// --- parse_http_request ---------------------------------------------------

TEST(HttpParse, CrlfHeadWithBody) {
  const std::string wire =
      "POST /v1/estimate HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n"
      "X-Deadline-Ms:  250 \r\n\r\nbodyNEXT";
  const Parsed p = parse(wire);
  ASSERT_EQ(p.status, serve::ParseStatus::Ok) << p.error;
  EXPECT_EQ(p.req.method, "POST");
  EXPECT_EQ(p.req.target, "/v1/estimate");
  EXPECT_EQ(p.req.version, "HTTP/1.1");
  EXPECT_EQ(p.req.headers.at("host"), "x");
  EXPECT_EQ(p.req.headers.at("x-deadline-ms"), "250");
  EXPECT_EQ(p.req.body, "body");
  EXPECT_EQ(p.consumed, wire.size() - 4);  // "NEXT" is the next request
}

TEST(HttpParse, BareLfHead) {
  const std::string wire = "GET /healthz HTTP/1.0\nAccept: */*\n\n";
  const Parsed p = parse(wire);
  ASSERT_EQ(p.status, serve::ParseStatus::Ok) << p.error;
  EXPECT_EQ(p.req.method, "GET");
  EXPECT_EQ(p.req.version, "HTTP/1.0");
  EXPECT_EQ(p.req.headers.at("accept"), "*/*");
  EXPECT_TRUE(p.req.body.empty());
  EXPECT_EQ(p.consumed, wire.size());
}

TEST(HttpParse, IncompleteUntilTheWholeBodyArrives) {
  const std::string wire =
      "POST /v1/batch HTTP/1.1\r\nContent-Length: 10\r\n\r\n0123456789";
  // Every proper prefix (head cut short or body cut short) needs more.
  for (std::size_t n = 0; n < wire.size(); ++n) {
    SCOPED_TRACE(n);
    EXPECT_EQ(parse(wire.substr(0, n)).status, serve::ParseStatus::Incomplete);
  }
  const Parsed p = parse(wire);
  ASSERT_EQ(p.status, serve::ParseStatus::Ok);
  EXPECT_EQ(p.req.body, "0123456789");
}

TEST(HttpParse, ContentLengthMustBeAWholeNumber) {
  for (const char* v : {"12x", "x", "-1", "1.5", ""}) {
    SCOPED_TRACE(v);
    const Parsed p = parse(std::string("POST / HTTP/1.1\r\nContent-Length: ") +
                           v + "\r\n\r\n123456789012");
    EXPECT_EQ(p.status, serve::ParseStatus::Bad);
    EXPECT_EQ(p.error, "bad Content-Length");
  }
}

TEST(HttpParse, RepeatedContentLengthMustAgree) {
  const Parsed differ = parse(
      "POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\n"
      "12345");
  EXPECT_EQ(differ.status, serve::ParseStatus::Bad);
  EXPECT_EQ(differ.error, "conflicting Content-Length");

  const Parsed same = parse(
      "POST / HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 3\r\n\r\n123");
  ASSERT_EQ(same.status, serve::ParseStatus::Ok) << same.error;
  EXPECT_EQ(same.req.body, "123");
}

TEST(HttpParse, TransferEncodingIsRejected) {
  const Parsed p = parse(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nbody\r\n0"
      "\r\n\r\n");
  EXPECT_EQ(p.status, serve::ParseStatus::Bad);
  EXPECT_EQ(p.error, "chunked transfer encoding not supported");
}

TEST(HttpParse, HeadOverSixtyFourKibIsBad) {
  const std::string filler = "X-Filler: " + std::string(65u << 10, 'a');
  // Still unterminated: Bad instead of buffering forever.
  const Parsed open = parse("GET / HTTP/1.1\r\n" + filler);
  EXPECT_EQ(open.status, serve::ParseStatus::Bad);
  EXPECT_EQ(open.error, "request head too large");
  // Terminated in the same read: just as Bad.
  const Parsed whole = parse("GET / HTTP/1.1\r\n" + filler + "\r\n\r\n");
  EXPECT_EQ(whole.status, serve::ParseStatus::Bad);
  EXPECT_EQ(whole.error, "request head too large");
}

TEST(HttpParse, BodyOverTheLimitIsBadBeforeItArrives) {
  const Parsed p = parse("POST / HTTP/1.1\r\nContent-Length: 101\r\n\r\n", 100);
  EXPECT_EQ(p.status, serve::ParseStatus::TooLarge);
  EXPECT_EQ(p.error, "request body too large");
  const Parsed at_limit =
      parse("POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n" +
                std::string(100, 'b'),
            100);
  EXPECT_EQ(at_limit.status, serve::ParseStatus::Ok);
}

TEST(HttpParse, OnlyHttp10And11AreAccepted) {
  const Parsed p = parse("GET / HTTP/2.0\r\n\r\n");
  EXPECT_EQ(p.status, serve::ParseStatus::Bad);
  EXPECT_EQ(p.error, "unsupported HTTP version");
}

TEST(HttpParse, MalformedLinesAreBad) {
  EXPECT_EQ(parse("GET\r\n\r\n").status, serve::ParseStatus::Bad);
  EXPECT_EQ(parse("GET / HTTP/1.1\r\nno colon here\r\n\r\n").status,
            serve::ParseStatus::Bad);
}

// --- serialize_response ---------------------------------------------------

TEST(HttpSerialize, FramesStatusHeadersAndBody) {
  serve::Response r;
  r.status = 503;
  r.headers.emplace_back("Retry-After", "1");
  r.body = "{\"x\":1}\n";
  EXPECT_EQ(serve::serialize_response(r, false),
            "HTTP/1.1 503 Service Unavailable\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: 8\r\n"
            "Retry-After: 1\r\n"
            "Connection: close\r\n"
            "\r\n"
            "{\"x\":1}\n");
  r.status = 200;
  r.headers.clear();
  r.body.clear();
  EXPECT_EQ(serve::serialize_response(r, true),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            "Content-Length: 0\r\nConnection: keep-alive\r\n\r\n");
}

TEST(HttpSerialize, ParsesBackAsTheSameMessage) {
  serve::Response r;
  r.body = "{\"status\":\"ok\"}\n";
  const std::string wire = serve::serialize_response(r, true);
  const std::size_t head_end = wire.find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos);
  EXPECT_EQ(wire.substr(head_end + 4), r.body);
  EXPECT_NE(wire.find("Content-Length: " + std::to_string(r.body.size())),
            std::string::npos);
}

// --- HttpServer over loopback ---------------------------------------------

/// Sleeps 300 ms in its fit, so a short deadline expires first.
class SlowEstimator final : public engine::Estimator {
 public:
  std::string_view method() const override { return "httpslow"; }
  bayes::PosteriorSummary summarize() const override { return {}; }
  bayes::CredibleInterval interval_omega(double level) const override {
    return {1.0, 2.0, level};
  }
  bayes::CredibleInterval interval_beta(double level) const override {
    return {1.0, 2.0, level};
  }
  bayes::ReliabilityEstimate reliability(double, double level) const override {
    return {0.5, 0.4, 0.6, level};
  }
};

/// A Service and an HttpServer on a kernel-assigned loopback port,
/// accepting on a background thread until destruction.
class LoopbackServer {
 public:
  LoopbackServer() : service_(options()), server_(service_) {
    thread_ = std::thread([this] { server_.run(); });
  }
  ~LoopbackServer() {
    server_.request_stop();
    thread_.join();
    service_.shutdown();
  }

  /// Send one raw request on a fresh connection; returns the whole reply.
  std::string roundtrip(const std::string& wire) const {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_.port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return "";
    }
    (void)::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
    std::string reply;
    char chunk[4096];
    for (ssize_t n; (n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0;) {
      reply.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return reply;
  }

 private:
  static serve::ServiceOptions options() {
    serve::ServiceOptions opt;
    opt.workers = 1;
    return opt;
  }

  serve::Service service_;
  serve::HttpServer server_;
  std::thread thread_;
};

int status_of(const std::string& reply) {
  return reply.size() < 12 ? 0 : std::stoi(reply.substr(9, 3));
}

std::string body_of(const std::string& reply) {
  const std::size_t head_end = reply.find("\r\n\r\n");
  return head_end == std::string::npos ? "" : reply.substr(head_end + 4);
}

std::string get_healthz(const std::string& deadline) {
  return "GET /healthz HTTP/1.1\r\nConnection: close\r\nX-Deadline-Ms: " +
         deadline + "\r\n\r\n";
}

TEST(HttpServerLoopback, MalformedDeadlineIsA400) {
  const LoopbackServer server;
  for (const char* v : {"5x", "abc", "nan", "inf", "0", "-5", "1e999", ""}) {
    SCOPED_TRACE(v);
    const std::string reply = server.roundtrip(get_healthz(v));
    EXPECT_EQ(status_of(reply), 400) << reply;
    EXPECT_EQ(body_of(reply),
              serve::error_response(
                  400, "X-Deadline-Ms must be a finite number > 0")
                  .body);
  }
}

TEST(HttpServerLoopback, WellFormedDeadlineIsAccepted) {
  const LoopbackServer server;
  for (const char* v : {"250", "2.5e4", "0.5"}) {
    SCOPED_TRACE(v);
    EXPECT_EQ(status_of(server.roundtrip(get_healthz(v))), 200);
  }
}

TEST(HttpServerLoopback, DeadlineHeaderBoundsTheWait) {
  static const bool registered = engine::register_method(
      "httpslow", [](const engine::EstimatorRequest&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        return std::make_unique<SlowEstimator>();
      });
  ASSERT_TRUE(registered || engine::is_registered("httpslow"));
  const LoopbackServer server;
  const std::string body =
      R"({"method":"httpslow","data":{"type":"failure_times",)"
      R"("times":[5,12,25],"observation_end":100}})";
  const std::string reply = server.roundtrip(
      "POST /v1/estimate HTTP/1.1\r\nConnection: close\r\nX-Deadline-Ms: 20"
      "\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_EQ(status_of(reply), 504) << reply;
}

TEST(HttpServerLoopback, ParseErrorsUseTheServiceErrorDocument) {
  const LoopbackServer server;
  const std::string reply = server.roundtrip(
      "POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n12");
  EXPECT_EQ(status_of(reply), 400) << reply;
  EXPECT_EQ(body_of(reply),
            serve::error_response(400, "conflicting Content-Length").body);
}

TEST(HttpServerLoopback, OversizedBodyIsA413WithoutReadingIt) {
  const LoopbackServer server;
  // Only the head is sent: the reply must not wait for the body.
  const std::string reply = server.roundtrip(
      "POST /v1/estimate HTTP/1.1\r\nContent-Length: " +
      std::to_string(serve::ServiceOptions{}.max_body_bytes + 1) +
      "\r\n\r\n");
  EXPECT_EQ(status_of(reply), 413) << reply;
  EXPECT_EQ(body_of(reply),
            serve::error_response(413, "request body too large").body);
}

}  // namespace
