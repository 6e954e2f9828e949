// Minimal HTTP/1.1 over POSIX sockets — the wire adapter around
// serve::Service.  No external dependencies: a hand-rolled request
// parser (exposed for unit tests), a response serializer, and a
// thread-per-connection accept loop with poll()-based stop polling so a
// signal handler can request a clean drain-and-exit.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "math/thread_annotations.hpp"
#include "serve/service.hpp"

namespace vbsrm::serve {

/// One parsed request head + body as read off the wire.
struct HttpRequest {
  std::string method;
  std::string target;
  std::string version;
  std::map<std::string, std::string> headers;  // keys lower-cased
  std::string body;
};

enum class ParseStatus {
  Ok,          // one complete request parsed; `consumed` bytes eaten
  Incomplete,  // need more bytes
  Bad,         // malformed; `error` says why
  TooLarge,    // Content-Length over the body limit; `error` says so
};

/// Parse one request from the front of `buf`.  Accepts both CRLF and
/// bare-LF line endings; requires Content-Length for bodies (no chunked
/// encoding), and a repeated Content-Length must repeat the same value.
/// Heads over 64 KiB are Bad and a Content-Length over `max_body_bytes`
/// is TooLarge as soon as the head is in, not Incomplete, so a hostile
/// peer cannot make the reader buffer forever.  The server answers Bad
/// with 400 and TooLarge with 413, then closes the connection.
ParseStatus parse_http_request(std::string_view buf, HttpRequest& out,
                               std::size_t& consumed, std::string& error,
                               std::size_t max_body_bytes = 8u << 20);

/// Serialize a service response as an HTTP/1.1 message (status line,
/// Content-Type/Content-Length/Connection plus any extra headers, body).
std::string serialize_response(const Response& r, bool keep_alive);

/// Human phrase for a status code ("OK", "Service Unavailable", ...).
std::string_view status_phrase(int status);

struct HttpServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = kernel-assigned; read back via port()
};

/// Accept loop + thread-per-connection.  run() blocks until
/// request_stop(); it then stops accepting, finishes in-flight
/// connections (keep-alive loops exit after the current request), and
/// joins every connection thread.  The caller drains the Service queue
/// afterwards via Service::shutdown().  An X-Deadline-Ms header becomes
/// Request::deadline_ms; one that is not a whole finite number > 0 is
/// answered 400.
class HttpServer {
 public:
  /// Binds and listens immediately; throws std::runtime_error on
  /// failure (port in use, bad host, ...).
  HttpServer(Service& service, const HttpServerOptions& opt = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  std::uint16_t port() const { return port_; }

  void run();
  /// Async-signal-safe stop request (an atomic store the poll loop
  /// observes within one poll interval).
  void request_stop() { shared_->stop.store(true); }

 private:
  /// State shared with detached connection threads; connection threads
  /// hold a shared_ptr so the counters outlive any teardown race, and
  /// run() waits for `active == 0` before returning (the Service the
  /// threads reference must outlive run(), which the caller guarantees
  /// by construction order).
  struct Shared {
    Service* service = nullptr;
    std::atomic<bool> stop{false};
    math::Mutex mutex;
    math::CondVar cv;
    int active GUARDED_BY(mutex) = 0;  // live connection threads
  };

  static void serve_connection(std::shared_ptr<Shared> shared, int fd);
  void wait_for_connections();

  std::shared_ptr<Shared> shared_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace vbsrm::serve
