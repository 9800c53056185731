// Dependency-free HTTP/1.1 for the mapping service.
//
// The ROADMAP's serving story (tools/cgra_serve) needs a long-running
// daemon in a container that ships no third-party networking library,
// so this is a small, strict-enough HTTP/1.1 server and client over
// POSIX sockets: request-line + headers + Content-Length bodies, one
// response per connection (Connection: close — the load generator and
// curl both open a connection per request, and keeping the state
// machine trivial is worth more than keep-alive at this scale).
//
// Concurrency model = the admission control model:
//   * an accept thread pulls connections off the listening socket and
//     pushes the fds into a BOUNDED queue;
//   * `workers` handler threads pop fds, parse, invoke the handler,
//     write the response;
//   * when the queue is full the accept thread answers 503 directly
//     and closes — overload produces fast, explicit rejections instead
//     of unbounded latency (the kernel backlog would otherwise hide
//     the queueing from both sides).
//
// Shutdown is two-phase so a daemon can drain on SIGTERM: BeginDrain()
// closes the listener (no new connections) while queued and in-flight
// requests keep being served; Stop() additionally joins every thread
// once the queue is empty. Both are idempotent and callable from any
// thread; the signal handler itself should only set a flag.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "support/status.hpp"

namespace cgra {

/// One parsed request. `target` is the raw request-target; `path` and
/// `query` are the two sides of its first '?' (query may be empty).
struct HttpRequest {
  std::string method;   ///< "GET", "POST", ... (uppercase as sent)
  std::string target;   ///< e.g. "/v1/map?pretty=1"
  std::string path;     ///< e.g. "/v1/map"
  std::string query;    ///< e.g. "pretty=1"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  /// Extra headers beyond Content-Type/Content-Length/Connection.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
};

/// Standard reason phrase for the status codes this library emits
/// ("OK", "Bad Request", ...); "Status" for anything unknown.
std::string_view HttpStatusReason(int status);

struct HttpServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = kernel-assigned ephemeral port (see port())

  /// Handler threads. Also the number of requests in flight at once.
  std::size_t workers = 8;

  /// Accepted connections waiting for a worker. Full queue => the
  /// accept thread answers 503 and closes (admission control).
  std::size_t queue_limit = 64;

  /// Reject request bodies larger than this with 413.
  std::size_t max_body = 1 << 20;

  /// Per-connection socket read/write timeout.
  double io_timeout_seconds = 10.0;
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer(HttpServerOptions options, Handler handler);
  ~HttpServer();  ///< calls Stop()

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and spawns the accept + worker threads. An error
  /// (port in use, bad host) leaves the server stopped.
  Status Start();

  /// The bound port (resolves port=0 to the kernel's pick). 0 before
  /// Start() succeeds.
  int port() const { return port_; }

  /// Stops accepting new connections; queued and in-flight requests
  /// keep being served. Idempotent, async-signal-unsafe (set a flag in
  /// the signal handler and call this from the main loop).
  void BeginDrain();

  /// BeginDrain() + wait for the queue to empty and every in-flight
  /// request to finish, then join all threads. Idempotent.
  void Stop();

  /// True once BeginDrain()/Stop() was called.
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  struct Stats {
    std::uint64_t accepted = 0;     ///< connections handed to the queue
    std::uint64_t served = 0;       ///< responses written by workers
    std::uint64_t rejected_queue_full = 0;  ///< 503s from the accept thread
    std::uint64_t parse_errors = 0;         ///< malformed requests (400s)
    std::uint64_t io_errors = 0;    ///< connections dropped mid-read/write
  };
  Stats stats() const;

 private:
  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd);

  HttpServerOptions options_;
  Handler handler_;
  int listen_fd_ = -1;
  int port_ = 0;

  std::mutex mu_;
  std::mutex stop_mu_;  ///< serialises Stop() callers
  std::condition_variable cv_;
  std::deque<int> queue_;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::atomic<bool> draining_{false};
  bool started_ = false;
  bool stopped_ = false;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> rejected_queue_full_{0};
  std::atomic<std::uint64_t> parse_errors_{0};
  std::atomic<std::uint64_t> io_errors_{0};
};

/// Blocking one-shot client: connect, send one request, read the
/// response, close. Content-Type/Content-Length/Host/Connection are
/// set automatically. Errors (refused, timeout, short read) come back
/// as kResourceLimit/kInvalidArgument with the errno text — the load
/// generator counts them as dropped connections.
Result<HttpResponse> HttpFetch(const std::string& host, int port,
                               const std::string& method,
                               const std::string& target,
                               std::string_view body = {},
                               double timeout_seconds = 10.0,
                               const std::string& content_type =
                                   "application/json");

}  // namespace cgra
