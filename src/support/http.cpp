#include "support/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>

#include "support/json.hpp"
#include "support/str.hpp"
#include "telemetry/metrics.hpp"

namespace cgra {

namespace {

bool IEquals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

void SetIoTimeout(int fd, double seconds) {
  if (seconds <= 0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - tv.tv_sec) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// Writes all of `data`; false on any error (peer gone, timeout).
bool WriteAll(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string SerializeResponse(const HttpResponse& r) {
  std::string out = StrFormat("HTTP/1.1 %d ", r.status);
  out += HttpStatusReason(r.status);
  out += "\r\n";
  if (!r.content_type.empty()) {
    out += "Content-Type: " + r.content_type + "\r\n";
  }
  for (const auto& [k, v] : r.headers) out += k + ": " + v + "\r\n";
  out += StrFormat("Content-Length: %zu\r\n", r.body.size());
  out += "Connection: close\r\n\r\n";
  out += r.body;
  return out;
}

/// Reads from `fd` until the header terminator, then Content-Length
/// body bytes. Returns 0 on success, an HTTP status code on a request
/// the caller should answer with that code, -1 on an I/O failure where
/// no response can reach the peer.
int ReadRequest(int fd, std::size_t max_body, HttpRequest& req) {
  constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
  std::string buf;
  std::size_t header_end = std::string::npos;
  char chunk[4096];
  while (header_end == std::string::npos) {
    if (buf.size() > kMaxHeaderBytes) return 431;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return -1;
    buf.append(chunk, static_cast<std::size_t>(n));
    header_end = buf.find("\r\n\r\n");
    if (header_end == std::string::npos) {
      // Tolerate bare-LF clients.
      header_end = buf.find("\n\n");
      if (header_end != std::string::npos) {
        buf.replace(header_end, 2, "\r\n\r\n");
      }
    }
  }
  const std::string head = buf.substr(0, header_end);
  std::string body = buf.substr(header_end + 4);

  // Request line: METHOD SP target SP HTTP/x.y
  std::size_t line_end = head.find("\r\n");
  std::string line = head.substr(0, line_end);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) return 400;
  req.method = line.substr(0, sp1);
  req.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (req.method.empty() || req.target.empty() || req.target[0] != '/') {
    return 400;
  }
  const std::size_t q = req.target.find('?');
  req.path = req.target.substr(0, q);
  req.query = q == std::string::npos ? "" : req.target.substr(q + 1);

  // Headers.
  std::size_t content_length = 0;
  std::size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    std::size_t end = head.find("\r\n", pos);
    if (end == std::string::npos) end = head.size();
    std::string_view h(head.data() + pos, end - pos);
    pos = end + 2;
    const std::size_t colon = h.find(':');
    if (colon == std::string_view::npos) return 400;
    std::string_view name = h.substr(0, colon);
    std::string_view value = h.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    while (!value.empty() && (value.back() == ' ' || value.back() == '\r')) {
      value.remove_suffix(1);
    }
    req.headers.emplace_back(std::string(name), std::string(value));
    if (IEquals(name, "Content-Length")) {
      const std::string text(value);
      // strtoull accepts "-1" and wraps it to ULLONG_MAX — a negative
      // length must be malformed (400), not "oversized" (413).
      if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
        return 400;
      }
      char* parse_end = nullptr;
      const unsigned long long v = std::strtoull(text.c_str(), &parse_end, 10);
      if (parse_end == text.c_str() || *parse_end != '\0') return 400;
      content_length = static_cast<std::size_t>(v);
    }
  }
  if (content_length > max_body) return 413;
  while (body.size() < content_length) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return -1;
    body.append(chunk, static_cast<std::size_t>(n));
  }
  body.resize(content_length);  // ignore pipelined bytes; we close anyway
  req.body = std::move(body);
  return 0;
}

telemetry::Counter& QueueFullCounter() {
  static telemetry::Counter& c = telemetry::MetricsRegistry::Global().GetCounter(
      "cgra_http_rejected_queue_full_total",
      "Connections answered 503 because the accept queue was full");
  return c;
}

}  // namespace

std::string_view HttpStatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

HttpServer::HttpServer(HttpServerOptions options, Handler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {
  if (options_.workers == 0) options_.workers = 1;
}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Error::InvalidArgument("bad host \"" + options_.host + "\"");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Error::Internal(StrFormat("socket: %s", std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Error::InvalidArgument(
        StrFormat("bind %s:%d: %s", options_.host.c_str(), options_.port,
                  std::strerror(err)));
  }
  if (::listen(listen_fd_, 128) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Error::Internal(StrFormat("listen: %s", std::strerror(err)));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }
  started_ = true;
  stopped_ = false;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::Ok();
}

void HttpServer::BeginDrain() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  // shutdown() (NOT close — the accept thread still reads the fd)
  // makes the blocking accept() in AcceptLoop return with an error,
  // which is its exit signal; the fd itself is closed in Stop() after
  // the accept thread has been joined.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  cv_.notify_all();
}

void HttpServer::Stop() {
  std::lock_guard<std::mutex> lifecycle(stop_mu_);
  if (!started_ || stopped_) return;
  BeginDrain();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  stopped_ = true;
}

HttpServer::Stats HttpServer::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.rejected_queue_full = rejected_queue_full_.load(std::memory_order_relaxed);
  s.parse_errors = parse_errors_.load(std::memory_order_relaxed);
  s.io_errors = io_errors_.load(std::memory_order_relaxed);
  return s;
}

void HttpServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by BeginDrain(), or fatal
    }
    if (draining_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    SetIoTimeout(fd, options_.io_timeout_seconds);
    bool queued = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.size() < options_.queue_limit) {
        queue_.push_back(fd);
        queued = true;
      }
    }
    if (queued) {
      accepted_.fetch_add(1, std::memory_order_relaxed);
      cv_.notify_one();
    } else {
      // Admission control: full queue => immediate, explicit 503.
      rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
      QueueFullCounter().Add(1);
      HttpResponse r;
      r.status = 503;
      r.headers.emplace_back("Retry-After", "1");
      r.body = "{\"status\":\"overloaded\","
               "\"message\":\"request queue is full\"}";
      WriteAll(fd, SerializeResponse(r));
      // The client is still mid-send: close() with unread bytes in the
      // receive buffer becomes a RST that races the 503 off the wire.
      // FIN our side instead, then drain (bounded; the fd has the I/O
      // timeout set above) until the client has read the 503 and hung
      // up, so the rejection actually reaches it.
      ::shutdown(fd, SHUT_WR);
      char sink[4096];
      for (std::size_t drained = 0; drained < (64u << 10);) {
        const ssize_t n = ::recv(fd, sink, sizeof(sink), 0);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        drained += static_cast<std::size_t>(n);
      }
      ::close(fd);
    }
  }
}

void HttpServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return !queue_.empty() || draining_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) {
        // Draining and nothing left to serve.
        if (draining_.load(std::memory_order_acquire)) return;
        continue;
      }
      fd = queue_.front();
      queue_.pop_front();
    }
    ServeConnection(fd);
  }
}

void HttpServer::ServeConnection(int fd) {
  HttpRequest req;
  const int rc = ReadRequest(fd, options_.max_body, req);
  if (rc < 0) {
    io_errors_.fetch_add(1, std::memory_order_relaxed);
    ::close(fd);
    return;
  }
  HttpResponse resp;
  if (rc != 0) {
    parse_errors_.fetch_add(1, std::memory_order_relaxed);
    resp.status = rc;
    resp.body = "{\"status\":\"bad-request\",\"message\":\"" +
                std::string(HttpStatusReason(rc)) + "\"}";
  } else {
    try {
      resp = handler_(req);
    } catch (const std::exception& e) {
      resp = HttpResponse{};
      resp.status = 500;
      std::string msg;
      AppendJsonEscaped(msg, e.what());
      resp.body = "{\"status\":\"internal\",\"message\":\"" + msg + "\"}";
    } catch (...) {
      resp = HttpResponse{};
      resp.status = 500;
      resp.body = "{\"status\":\"internal\",\"message\":\"unknown error\"}";
    }
  }
  if (!WriteAll(fd, SerializeResponse(resp))) {
    io_errors_.fetch_add(1, std::memory_order_relaxed);
  } else {
    served_.fetch_add(1, std::memory_order_relaxed);
  }
  ::close(fd);
}

Result<HttpResponse> HttpFetch(const std::string& host, int port,
                               const std::string& method,
                               const std::string& target,
                               std::string_view body, double timeout_seconds,
                               const std::string& content_type) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Error::InvalidArgument("bad host \"" + host + "\"");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Error::ResourceLimit(StrFormat("socket: %s", std::strerror(errno)));
  }
  SetIoTimeout(fd, timeout_seconds);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Error::ResourceLimit(
        StrFormat("connect %s:%d: %s", host.c_str(), port,
                  std::strerror(err)));
  }
  std::string req = method + " " + target + " HTTP/1.1\r\n";
  req += "Host: " + host + "\r\n";
  if (!body.empty() || method == "POST" || method == "PUT") {
    req += "Content-Type: " + content_type + "\r\n";
    req += StrFormat("Content-Length: %zu\r\n", body.size());
  }
  req += "Connection: close\r\n\r\n";
  req.append(body);
  if (!WriteAll(fd, req)) {
    const int err = errno;
    ::close(fd);
    return Error::ResourceLimit(StrFormat("send: %s", std::strerror(err)));
  }

  std::string raw;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const int err = errno;
      ::close(fd);
      return Error::ResourceLimit(
          StrFormat("recv: %s", std::strerror(err)));
    }
    if (n == 0) break;
    raw.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);

  const std::size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return Error::ResourceLimit("truncated response (no header terminator)");
  }
  HttpResponse resp;
  const std::string head = raw.substr(0, header_end);
  resp.body = raw.substr(header_end + 4);
  // Status line: HTTP/1.1 SP code SP reason
  const std::size_t sp = head.find(' ');
  if (sp == std::string::npos) {
    return Error::ResourceLimit("malformed status line");
  }
  resp.status = std::atoi(head.c_str() + sp + 1);
  if (resp.status < 100 || resp.status > 599) {
    return Error::ResourceLimit("malformed status code");
  }
  std::size_t pos = head.find("\r\n");
  std::size_t content_length = std::string::npos;
  while (pos != std::string::npos && pos + 2 < head.size()) {
    pos += 2;
    std::size_t end = head.find("\r\n", pos);
    if (end == std::string::npos) end = head.size();
    const std::string_view h(head.data() + pos, end - pos);
    const std::size_t colon = h.find(':');
    if (colon != std::string_view::npos) {
      std::string_view name = h.substr(0, colon);
      std::string_view value = h.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
      resp.headers.emplace_back(std::string(name), std::string(value));
      if (IEquals(name, "Content-Type")) {
        resp.content_type = std::string(value);
      } else if (IEquals(name, "Content-Length")) {
        content_length = static_cast<std::size_t>(
            std::strtoull(std::string(value).c_str(), nullptr, 10));
      }
    }
    pos = end;
  }
  if (content_length != std::string::npos &&
      resp.body.size() < content_length) {
    return Error::ResourceLimit(
        StrFormat("truncated body (%zu of %zu bytes)", resp.body.size(),
                  content_length));
  }
  return resp;
}

}  // namespace cgra
