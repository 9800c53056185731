// Tests for the mapping service daemon: MappingService routing and
// admission control driven in-process over a loopback HttpServer, plus
// end-to-end tests against the real cgra_serve binary (CGRA_SERVE_BIN,
// injected by tests/CMakeLists.txt): SIGTERM drain, and digests across
// fabrics.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/request.hpp"
#include "api/response.hpp"
#include "api/service.hpp"
#include "cache/mapping_cache.hpp"
#include "engine/engine.hpp"
#include "support/http.hpp"
#include "support/json.hpp"
#include "support/stop_token.hpp"
#include "support/str.hpp"
#include "telemetry/telemetry.hpp"

namespace cgra {
namespace {

std::string MapBody(const std::string& kernel = "dot_product", int priority = 0,
                    std::uint64_t seed = 42,
                    const std::string& fabric = "adres4x4") {
  api::MapRequest r;
  r.name = "t";
  r.fabric = fabric;
  r.kernel = kernel;
  r.mappers = {"ims"};
  r.priority = priority;
  r.seed = seed;
  return api::ToJson(r);
}

/// An in-process daemon: loopback HttpServer + MappingService.
struct TestDaemon {
  explicit TestDaemon(api::ServiceOptions so = {}, HttpServerOptions ho = {}) {
    ho.host = "127.0.0.1";
    ho.port = 0;
    service = std::make_unique<api::MappingService>(std::move(so));
    server = std::make_unique<HttpServer>(
        ho, [this](const HttpRequest& r) { return service->Handle(r); });
    start_status = server->Start();
  }

  Result<HttpResponse> Fetch(const std::string& method,
                             const std::string& target,
                             std::string_view body = {}) {
    return HttpFetch("127.0.0.1", server->port(), method, target, body, 30.0);
  }

  std::unique_ptr<api::MappingService> service;
  std::unique_ptr<HttpServer> server;
  Status start_status = Status::Ok();
};

TEST(Serve, MapHappyPath) {
  TestDaemon d;
  ASSERT_TRUE(d.start_status.ok()) << d.start_status.error().message;

  const Result<HttpResponse> r = d.Fetch("POST", "/v1/map", MapBody());
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r->status, 200);

  const Result<api::MapResponse> body = api::ParseMapResponseText(r->body);
  ASSERT_TRUE(body.ok()) << r->body;
  EXPECT_TRUE(body->ok) << r->body;
  EXPECT_EQ(body->status, "ok");
  EXPECT_GE(body->ii, 1);
  EXPECT_EQ(body->winner, "ims");
  EXPECT_EQ(body->mapping_digest.size(), 16u);
  // The correlation id joins the response to its telemetry spans; it
  // is echoed both in the body and as a header.
  EXPECT_NE(body->correlation, 0u);
  bool have_header = false;
  for (const auto& [k, v] : r->headers) {
    if (k == "X-Correlation-Id") {
      have_header = true;
      EXPECT_EQ(v, StrFormat("%llu", static_cast<unsigned long long>(
                                         body->correlation)));
    }
  }
  EXPECT_TRUE(have_header);
}

TEST(Serve, SharedCacheAnswersRepeatRequests) {
  MappingCache cache(MappingCacheOptions{});
  api::ServiceOptions so;
  so.cache = &cache;
  TestDaemon d(std::move(so));
  ASSERT_TRUE(d.start_status.ok());

  const std::string body = MapBody("saxpy", 0, 7);
  const Result<HttpResponse> cold = d.Fetch("POST", "/v1/map", body);
  const Result<HttpResponse> warm = d.Fetch("POST", "/v1/map", body);
  ASSERT_TRUE(cold.ok() && warm.ok());
  const Result<api::MapResponse> c = api::ParseMapResponseText(cold->body);
  const Result<api::MapResponse> w = api::ParseMapResponseText(warm->body);
  ASSERT_TRUE(c.ok() && w.ok());
  ASSERT_TRUE(c->ok && w->ok);
  EXPECT_FALSE(c->cache_hit);
  EXPECT_TRUE(w->cache_hit) << warm->body;
  // The warm answer is the cold one, digest-identical.
  EXPECT_EQ(c->mapping_digest, w->mapping_digest);
}

TEST(Serve, Healthz) {
  TestDaemon d;
  ASSERT_TRUE(d.start_status.ok());
  const Result<HttpResponse> r = d.Fetch("GET", "/healthz");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, 200);
  const Result<Json> doc = Json::Parse(r->body);
  ASSERT_TRUE(doc.ok()) << r->body;
  EXPECT_EQ(doc->Find("status")->AsString(), "ok");
  EXPECT_EQ(doc->Find("draining")->AsBool(true), false);
}

TEST(Serve, MetricsIsPrometheusText) {
  TestDaemon d;
  ASSERT_TRUE(d.start_status.ok());
  // Route one mapping request first so serve counters exist.
  ASSERT_TRUE(d.Fetch("POST", "/v1/map", MapBody()).ok());
  const Result<HttpResponse> r = d.Fetch("GET", "/metrics");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, 200);
  EXPECT_EQ(r->content_type.rfind("text/plain", 0), 0u) << r->content_type;
  EXPECT_NE(r->body.find("cgra_serve_http_requests_total"), std::string::npos)
      << r->body.substr(0, 400);
  EXPECT_NE(r->body.find("# TYPE"), std::string::npos);
}

TEST(Serve, StatsWindowEndpoint) {
  TestDaemon d;
  ASSERT_TRUE(d.start_status.ok());
  // Route one mapping request so the 60s window has traffic in it.
  ASSERT_TRUE(d.Fetch("POST", "/v1/map", MapBody()).ok());

  const Result<HttpResponse> r = d.Fetch("GET", "/v1/stats");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, 200);
  const Result<Json> doc = Json::Parse(r->body);
  ASSERT_TRUE(doc.ok()) << r->body;
  EXPECT_EQ(doc->Find("schema_version")->AsInt(), 1);
  ASSERT_NE(doc->Find("inflight"), nullptr);
  const Json* windows = doc->Find("windows");
  ASSERT_NE(windows, nullptr);
  for (const char* key : {"1s", "10s", "60s"}) {
    const Json* w = windows->Find(key);
    ASSERT_NE(w, nullptr) << key;
    ASSERT_NE(w->Find("requests"), nullptr) << key;
    ASSERT_NE(w->Find("rate_qps"), nullptr) << key;
    ASSERT_NE(w->Find("p50_ms"), nullptr) << key;
    ASSERT_NE(w->Find("p99_ms"), nullptr) << key;
    ASSERT_NE(w->Find("cache_hit_rate"), nullptr) << key;
  }
  const Json* w60 = windows->Find("60s");
  EXPECT_GE(w60->Find("requests")->AsInt(), 1);
  EXPECT_GE(w60->Find("ok")->AsInt(), 1);
  EXPECT_GE(w60->Find("p99_ms")->AsDouble(), 0.0);
  const Json* quarantine = doc->Find("quarantine");
  ASSERT_NE(quarantine, nullptr);
  EXPECT_TRUE(quarantine->is_array());
  // Wrong method is the canonical 405.
  const Result<HttpResponse> post = d.Fetch("POST", "/v1/stats", "{}");
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post->status, 405);
}

TEST(Serve, StatsOptInEchoesSearchSummary) {
  TestDaemon d;
  ASSERT_TRUE(d.start_status.ok());
  api::MapRequest req;
  req.name = "t";
  req.fabric = "adres4x4";
  req.kernel = "dot_product";
  req.mappers = {"ims"};
  req.stats = true;
  const Result<HttpResponse> r =
      d.Fetch("POST", "/v1/map", api::ToJson(req));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, 200);
  const Result<api::MapResponse> body = api::ParseMapResponseText(r->body);
  ASSERT_TRUE(body.ok()) << r->body;
  EXPECT_TRUE(body->ok);
  EXPECT_TRUE(body->search.present) << r->body;
  EXPECT_GE(body->search.attempts, 1);
  EXPECT_GT(body->search.place_accepts, 0u);
  EXPECT_GT(body->search.route_attempts, 0u);
  EXPECT_GE(body->search.hot_cell, 0);

  // Without the opt-in the response carries no "search" key.
  req.stats = false;
  const Result<HttpResponse> plain =
      d.Fetch("POST", "/v1/map", api::ToJson(req));
  ASSERT_TRUE(plain.ok());
  const Result<api::MapResponse> plain_body =
      api::ParseMapResponseText(plain->body);
  ASSERT_TRUE(plain_body.ok());
  EXPECT_FALSE(plain_body->search.present);
}

TEST(Serve, UnknownEndpointIs404) {
  TestDaemon d;
  ASSERT_TRUE(d.start_status.ok());
  const Result<HttpResponse> r = d.Fetch("GET", "/nope");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, 404);
  const Result<Json> doc = Json::Parse(r->body);
  ASSERT_TRUE(doc.ok()) << r->body;
  EXPECT_EQ(doc->Find("status")->AsString(), "not-found");
}

TEST(Serve, WrongMethodIs405) {
  TestDaemon d;
  ASSERT_TRUE(d.start_status.ok());
  const Result<HttpResponse> r = d.Fetch("GET", "/v1/map");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, 405);
}

TEST(Serve, MalformedBodyIs400) {
  TestDaemon d;
  ASSERT_TRUE(d.start_status.ok());
  const Result<HttpResponse> r = d.Fetch("POST", "/v1/map", "{not json");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, 400);
  const Result<Json> doc = Json::Parse(r->body);
  ASSERT_TRUE(doc.ok()) << r->body;
  EXPECT_EQ(doc->Find("status")->AsString(), "invalid-argument");
}

TEST(Serve, ValidationFailureIs400WithFieldName) {
  TestDaemon d;
  ASSERT_TRUE(d.start_status.ok());
  const Result<HttpResponse> r = d.Fetch(
      "POST", "/v1/map",
      R"({"fabric":"nope9x9","kernel":"dot_product","mappers":["ims"]})");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, 400);
  EXPECT_NE(r->body.find("\\\"fabric\\\""), std::string::npos) << r->body;
}

TEST(Serve, VersionSkewIs400) {
  TestDaemon d;
  ASSERT_TRUE(d.start_status.ok());
  const Result<HttpResponse> r = d.Fetch(
      "POST", "/v1/map",
      R"({"schema_version":9,"fabric":"adres4x4","kernel":"dot_product"})");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, 400);
  EXPECT_NE(r->body.find("schema_version"), std::string::npos) << r->body;
}

TEST(Serve, SoftLimitIs429AndUrgentPriorityBypasses) {
  // max_inflight = 0 makes the soft limit deterministically exceeded
  // by every request: normal traffic gets 429, urgent traffic still
  // runs (deadline-critical recompiles must not queue behind bulk).
  api::ServiceOptions so;
  so.max_inflight = 0;
  so.urgent_priority = 10;
  TestDaemon d(std::move(so));
  ASSERT_TRUE(d.start_status.ok());

  const Result<HttpResponse> busy =
      d.Fetch("POST", "/v1/map", MapBody("dot_product", /*priority=*/0));
  ASSERT_TRUE(busy.ok());
  EXPECT_EQ(busy->status, 429);
  const Result<api::MapResponse> body = api::ParseMapResponseText(busy->body);
  ASSERT_TRUE(body.ok()) << busy->body;
  EXPECT_EQ(body->status, "resource-limit");

  const Result<HttpResponse> urgent =
      d.Fetch("POST", "/v1/map", MapBody("dot_product", /*priority=*/10));
  ASSERT_TRUE(urgent.ok());
  EXPECT_EQ(urgent->status, 200);
}

TEST(Serve, QueueFullIs503) {
  // queue_limit = 0: the accept thread rejects every connection with
  // 503 before a worker ever sees it — hard overload is answered fast.
  HttpServerOptions ho;
  ho.queue_limit = 0;
  ho.workers = 1;
  TestDaemon d({}, ho);
  ASSERT_TRUE(d.start_status.ok());
  const Result<HttpResponse> r = d.Fetch("POST", "/v1/map", MapBody());
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r->status, 503);
  EXPECT_GE(d.server->stats().rejected_queue_full, 1u);
}

// ---- malformed HTTP input ---------------------------------------------------
//
// HttpFetch always emits well-formed requests, so these go over a raw
// socket: write arbitrary bytes, optionally half-close, read whatever
// comes back. An empty reply means the server dropped the connection
// without answering (the correct response to a request it cannot
// frame).
std::string RawExchange(int port, const std::string& bytes,
                        bool half_close = true) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    ADD_FAILURE() << "connect failed";
    return {};
  }
  struct timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  EXPECT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
  // Half-close tells the server no more bytes are coming — a recv()
  // that would otherwise block on an incomplete request returns 0.
  if (half_close) ::shutdown(fd, SHUT_WR);
  std::string reply;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

int RawStatus(const std::string& reply) {
  // "HTTP/1.1 NNN ..."
  const std::size_t sp = reply.find(' ');
  if (sp == std::string::npos) return -1;
  return std::atoi(reply.c_str() + sp + 1);
}

TEST(Serve, MalformedHttpRequestTable) {
  TestDaemon d;
  ASSERT_TRUE(d.start_status.ok());
  const int port = d.server->port();

  struct Case {
    const char* name;
    std::string bytes;
    int want_status;  // -1 = connection closed with no response
  };
  const Case cases[] = {
      {"garbage request line", "GARBAGE\r\n\r\n", 400},
      {"missing target", "GET \r\n\r\n", 400},
      {"relative target", "GET healthz HTTP/1.1\r\n\r\n", 400},
      {"header without colon",
       "POST /v1/map HTTP/1.1\r\nContent-Length\r\n\r\n", 400},
      {"non-numeric content-length",
       "POST /v1/map HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400},
      {"trailing junk content-length",
       "POST /v1/map HTTP/1.1\r\nContent-Length: 12x\r\n\r\n", 400},
      {"negative content-length",
       "POST /v1/map HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400},
      {"oversized content-length",
       "POST /v1/map HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n", 413},
      {"truncated header block", "POST /v1/map HTTP/1.1\r\nContent-", -1},
      {"truncated body",
       "POST /v1/map HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"par", -1},
  };
  for (const Case& c : cases) {
    const std::string reply = RawExchange(port, c.bytes);
    if (c.want_status < 0) {
      EXPECT_TRUE(reply.empty())
          << c.name << ": expected a silent close, got: " << reply;
    } else {
      EXPECT_EQ(RawStatus(reply), c.want_status) << c.name << ": " << reply;
    }
  }

  // None of that abuse keeps the server from answering a well-formed
  // request afterwards.
  const Result<HttpResponse> r = d.Fetch("GET", "/healthz");
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r->status, 200);
}

TEST(Serve, DrainingRejectsNewMapRequests) {
  StopSource stop;
  api::ServiceOptions so;
  so.stop = stop.token();
  TestDaemon d(std::move(so));
  ASSERT_TRUE(d.start_status.ok());
  stop.RequestStop();

  const Result<HttpResponse> map = d.Fetch("POST", "/v1/map", MapBody());
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map->status, 503);
  bool have_retry_after = false;
  for (const auto& [k, v] : map->headers) {
    if (k == "Retry-After") have_retry_after = true;
  }
  EXPECT_TRUE(have_retry_after);

  // /healthz reports the drain so a balancer can eject the instance —
  // and it must be an UNHEALTHY status code: probes key off the code,
  // not the body.
  const Result<HttpResponse> health = d.Fetch("GET", "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 503);
  const Result<Json> doc = Json::Parse(health->body);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("status")->AsString(), "draining");
  EXPECT_EQ(doc->Find("draining")->AsBool(false), true);
}

TEST(Serve, SoftDrainingTokenAnnouncesWithoutCancelling) {
  // The soft token flips /healthz and refuses new maps while the hard
  // stop token (which cancels running engines) has NOT fired — the
  // window in which a load balancer routes away while in-flight work
  // finishes untouched.
  StopSource draining;
  api::ServiceOptions so;
  so.draining = draining.token();
  TestDaemon d(std::move(so));
  ASSERT_TRUE(d.start_status.ok());

  Result<HttpResponse> health = d.Fetch("GET", "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);

  draining.RequestStop();
  health = d.Fetch("GET", "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 503);
  bool have_retry_after = false;
  for (const auto& [k, v] : health->headers) {
    if (k == "Retry-After") have_retry_after = true;
  }
  EXPECT_TRUE(have_retry_after);

  const Result<HttpResponse> map = d.Fetch("POST", "/v1/map", MapBody());
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map->status, 503);
}

// ---- end-to-end tests against the real binary ----------------------------

/// A cgra_serve child process listening on an ephemeral port.
struct ForkedDaemon {
  pid_t pid = -1;
  int port = 0;  ///< 0 when the daemon never published its port
};

ForkedDaemon SpawnDaemon(std::vector<std::string> flags) {
  const std::string port_file =
      StrFormat("/tmp/cgra_serve_test_%d.port", static_cast<int>(getpid()));
  std::remove(port_file.c_str());
  flags.insert(flags.begin(),
               {CGRA_SERVE_BIN, "--port", "0", "--port-file", port_file,
                "--quiet"});
  std::vector<char*> argv;
  for (std::string& f : flags) argv.push_back(f.data());
  argv.push_back(nullptr);

  ForkedDaemon d;
  d.pid = fork();
  if (d.pid == 0) {
    execv(CGRA_SERVE_BIN, argv.data());
    _exit(127);  // exec failed
  }
  // Wait for the daemon to publish its port.
  for (int i = 0; d.pid > 0 && i < 500 && d.port == 0; ++i) {
    if (std::FILE* f = std::fopen(port_file.c_str(), "r")) {
      if (std::fscanf(f, "%d", &d.port) != 1) d.port = 0;
      std::fclose(f);
    }
    if (d.port == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::remove(port_file.c_str());
  return d;
}

TEST(Serve, SigtermDrainCompletesInflightAndExitsZero) {
  const ForkedDaemon d = SpawnDaemon({});
  ASSERT_GE(d.pid, 0);
  ASSERT_GT(d.port, 0) << "daemon never published its port";

  // Put requests in flight, then SIGTERM while they (likely) still
  // run. Drain must answer every accepted request — a drop would show
  // up as a failed fetch below — and the daemon must exit 0.
  std::vector<std::thread> clients;
  std::vector<Result<HttpResponse>> responses(
      4, Result<HttpResponse>(Error::Internal("not run")));
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&, i] {
      responses[i] = HttpFetch("127.0.0.1", d.port, "POST", "/v1/map",
                               MapBody("wide_dot_8", 0, 100 + i), 30.0);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_EQ(kill(d.pid, SIGTERM), 0);
  for (std::thread& t : clients) t.join();

  for (const Result<HttpResponse>& r : responses) {
    ASSERT_TRUE(r.ok()) << r.error().message;
    // In-flight requests finish (200); anything that arrived after the
    // drain began is an explicit 503, never a dropped connection.
    EXPECT_TRUE(r->status == 200 || r->status == 503) << r->status;
  }

  int wstatus = 0;
  ASSERT_EQ(waitpid(d.pid, &wstatus, 0), d.pid);
  ASSERT_TRUE(WIFEXITED(wstatus)) << wstatus;
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

/// The digest an in-process engine run gives `body`, configured as the
/// service configures its engines.
std::string InProcessDigest(const std::string& body) {
  const Result<api::MapRequest> req = api::ParseMapRequestText(body);
  if (!req.ok()) return "unparseable request";
  const std::optional<Architecture> arch = api::FabricByName(req->fabric);
  const std::optional<Kernel> kernel =
      api::KernelByName(req->kernel, req->iterations, req->seed);
  if (!arch || !kernel) return "unknown fabric or kernel";
  EngineOptions eo;
  eo.race = false;
  eo.seed = req->seed;
  eo.min_ii = req->min_ii;
  eo.max_ii = req->max_ii;
  eo.extra_slack = req->extra_slack;
  const Result<EngineResult> r =
      MappingEngine(eo).Run(kernel->dfg, *arch, req->mappers);
  return r.ok() ? MappingDigestHex(r->mapping) : r.error().message;
}

TEST(Serve, DaemonMapsEachFabricOnItsOwnResourceGraph) {
  // Every request builds its fabric at the same stack address, so a
  // daemon-wide MRRG memo keyed on that address would hand one
  // request's resource graph to the next: big8x8 after adres4x4 would
  // crash the daemon, adres4x4 after big8x8 would map on the wrong
  // graph. Both orders must answer what an in-process run answers.
  const ForkedDaemon d = SpawnDaemon({"--workers", "1", "--no-cache"});
  ASSERT_GE(d.pid, 0);
  ASSERT_GT(d.port, 0) << "daemon never published its port";
  const std::string small = MapBody("dot_product");
  const std::string big = MapBody("wide_dot_8", 0, 42, "big8x8");
  for (const std::string* body : {&small, &big, &small}) {
    const Result<HttpResponse> r =
        HttpFetch("127.0.0.1", d.port, "POST", "/v1/map", *body, 30.0);
    ASSERT_TRUE(r.ok()) << r.error().message;
    const Result<api::MapResponse> resp = api::ParseMapResponseText(r->body);
    ASSERT_TRUE(resp.ok()) << r->body;
    EXPECT_TRUE(resp->ok) << r->body;
    EXPECT_EQ(resp->mapping_digest, InProcessDigest(*body)) << *body;
  }
  ASSERT_EQ(kill(d.pid, SIGTERM), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(d.pid, &wstatus, 0), d.pid);
  EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) << wstatus;
}

}  // namespace
}  // namespace cgra
