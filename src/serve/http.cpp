#include "serve/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace vbsrm::serve {

namespace {

constexpr std::size_t kMaxHeadBytes = 64u << 10;
constexpr int kListenBacklog = 64;
constexpr int kIoTimeoutS = 30;  // per-socket recv/send timeout

std::string lowered(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view trimmed(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// X-Deadline-Ms as a whole finite number > 0; false leaves `ms` alone.
bool parse_deadline_ms(const std::string& v, double& ms) {
  double x = 0.0;
  const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
  if (ec != std::errc() || p != v.data() + v.size() || !std::isfinite(x) ||
      !(x > 0.0)) {
    return false;
  }
  ms = x;
  return true;
}

}  // namespace

ParseStatus parse_http_request(std::string_view buf, HttpRequest& out,
                               std::size_t& consumed, std::string& error,
                               std::size_t max_body_bytes) {
  out = HttpRequest{};
  consumed = 0;
  error.clear();

  // Locate the blank line ending the head ("\r\n\r\n" or "\n\n").
  std::size_t head_end = std::string_view::npos;
  std::size_t body_start = 0;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    if (buf[i] != '\n') continue;
    std::size_t j = i + 1;
    if (j < buf.size() && buf[j] == '\r') ++j;
    if (j < buf.size() && buf[j] == '\n') {
      head_end = i;
      body_start = j + 1;
      break;
    }
  }
  if (std::min(head_end, buf.size()) > kMaxHeadBytes) {
    error = "request head too large";
    return ParseStatus::Bad;
  }
  if (head_end == std::string_view::npos) return ParseStatus::Incomplete;

  // Request line.
  const std::string_view head = buf.substr(0, head_end);
  std::size_t line_start = 0;
  const auto next_line = [&](std::string_view& line) {
    if (line_start >= head.size()) return false;
    std::size_t nl = head.find('\n', line_start);
    if (nl == std::string_view::npos) nl = head.size();
    line = trimmed(head.substr(line_start, nl - line_start));
    line_start = nl + 1;
    return true;
  };

  std::string_view request_line;
  if (!next_line(request_line) || request_line.empty()) {
    error = "empty request line";
    return ParseStatus::Bad;
  }
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    error = "malformed request line";
    return ParseStatus::Bad;
  }
  out.method = std::string(request_line.substr(0, sp1));
  out.target = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  out.version = std::string(trimmed(request_line.substr(sp2 + 1)));
  if (out.version != "HTTP/1.1" && out.version != "HTTP/1.0") {
    error = "unsupported HTTP version";
    return ParseStatus::Bad;
  }

  // Header fields.
  std::string_view line;
  while (next_line(line)) {
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      error = "malformed header line";
      return ParseStatus::Bad;
    }
    std::string value(trimmed(line.substr(colon + 1)));
    const auto [it, fresh] =
        out.headers.try_emplace(lowered(trimmed(line.substr(0, colon))), value);
    if (!fresh && it->first == "content-length" && it->second != value) {
      error = "conflicting Content-Length";
      return ParseStatus::Bad;
    }
    it->second = std::move(value);  // other repeats: the last one wins
  }

  // Body via Content-Length (chunked encoding is not supported).
  std::size_t content_length = 0;
  if (const auto it = out.headers.find("content-length");
      it != out.headers.end()) {
    const std::string& v = it->second;
    const auto [p, ec] =
        std::from_chars(v.data(), v.data() + v.size(), content_length);
    if (ec != std::errc() || p != v.data() + v.size()) {
      error = "bad Content-Length";
      return ParseStatus::Bad;
    }
  } else if (out.headers.count("transfer-encoding") != 0) {
    error = "chunked transfer encoding not supported";
    return ParseStatus::Bad;
  }
  if (content_length > max_body_bytes) {
    error = "request body too large";
    return ParseStatus::TooLarge;
  }
  if (buf.size() - body_start < content_length) return ParseStatus::Incomplete;
  out.body = std::string(buf.substr(body_start, content_length));
  consumed = body_start + content_length;
  return ParseStatus::Ok;
}

std::string_view status_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return status < 400 ? "OK" : "Error";
  }
}

std::string serialize_response(const Response& r, bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(r.status) + ' ';
  out += status_phrase(r.status);
  out += "\r\nContent-Type: ";
  out += r.content_type;
  out += "\r\nContent-Length: " + std::to_string(r.body.size());
  for (const auto& [name, value] : r.headers) {
    out += "\r\n" + name + ": " + value;
  }
  out += keep_alive ? "\r\nConnection: keep-alive" : "\r\nConnection: close";
  out += "\r\n\r\n";
  out += r.body;
  return out;
}

// --- HttpServer ------------------------------------------------------------

HttpServer::HttpServer(Service& service, const HttpServerOptions& o)
    : shared_(std::make_shared<Shared>()) {
  shared_->service = &service;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(o.port);
  if (::inet_pton(AF_INET, o.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bad listen address: " + o.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bind " + o.host + ":" + std::to_string(o.port) +
                             ": " + why);
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("listen: " + why);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }
}

HttpServer::~HttpServer() {
  request_stop();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  wait_for_connections();
}

void HttpServer::wait_for_connections() {
  Shared& sh = *shared_;
  const math::MutexLock lock(sh.mutex);
  sh.cv.wait(sh.mutex,
             [&sh]() REQUIRES(sh.mutex) { return sh.active == 0; });
}

void HttpServer::run() {
  while (!shared_->stop.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 100 /* ms: stop-flag poll interval */);
    if (rc < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks stop
      break;
    }
    if (rc == 0 || (pfd.revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    const timeval tv{kIoTimeoutS, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    {
      const math::MutexLock lock(shared_->mutex);
      ++shared_->active;
    }
    std::thread(&HttpServer::serve_connection, shared_, fd).detach();
  }
  // Drain: stop accepting, let in-flight connections finish their
  // current request.
  wait_for_connections();
}

void HttpServer::serve_connection(std::shared_ptr<Shared> shared, int fd) {
  std::string buf;
  char chunk[16 * 1024];
  bool open = true;
  while (open && !shared->stop.load()) {
    HttpRequest hreq;
    std::size_t consumed = 0;
    std::string perr;
    const std::size_t max_body = shared->service->options().max_body_bytes;
    ParseStatus st = parse_http_request(buf, hreq, consumed, perr, max_body);
    while (st == ParseStatus::Incomplete) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {  // peer closed, timed out, or errored
        open = false;
        break;
      }
      buf.append(chunk, static_cast<std::size_t>(n));
      st = parse_http_request(buf, hreq, consumed, perr, max_body);
    }
    if (!open) break;
    if (st != ParseStatus::Ok) {
      const int status = st == ParseStatus::TooLarge ? 413 : 400;
      const std::string wire =
          serialize_response(error_response(status, perr), false);
      (void)::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
      break;
    }
    buf.erase(0, consumed);

    Request req;
    req.method = hreq.method;
    req.target = hreq.target;
    req.body = std::move(hreq.body);
    const auto deadline = hreq.headers.find("x-deadline-ms");
    const bool bad_deadline =
        deadline != hreq.headers.end() &&
        !parse_deadline_ms(deadline->second, req.deadline_ms);
    const bool keep_alive =
        !shared->stop.load() && hreq.version == "HTTP/1.1" &&
        lowered(hreq.headers.count("connection") ? hreq.headers.at("connection")
                                                 : "") != "close";

    const Response resp =
        bad_deadline
            ? error_response(400, "X-Deadline-Ms must be a finite number > 0")
            : shared->service->handle(req);
    const std::string wire = serialize_response(resp, keep_alive);
    std::size_t off = 0;
    while (off < wire.size()) {
      const ssize_t n =
          ::send(fd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        open = false;
        break;
      }
      off += static_cast<std::size_t>(n);
    }
    if (!keep_alive) break;
  }
  ::close(fd);
  {
    const math::MutexLock lock(shared->mutex);
    --shared->active;
  }
  shared->cv.notify_all();
}

}  // namespace vbsrm::serve
