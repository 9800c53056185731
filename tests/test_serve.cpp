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
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/request.hpp"
#include "api/response.hpp"
#include "api/service.hpp"
#include "arch/fault.hpp"
#include "arch/mrrg.hpp"
#include "arch/mrrg_cache.hpp"
#include "cache/mapping_cache.hpp"
#include "engine/engine.hpp"
#include "mappers/registry.hpp"
#include "mapping/validator.hpp"
#include "sim/compile.hpp"
#include "support/http.hpp"
#include "support/json.hpp"
#include "support/stop_token.hpp"
#include "support/str.hpp"
#include "telemetry/metrics.hpp"
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
/// service configures its engines, on a fabric built outside the store
/// with the request's dead cells killed.
std::string InProcessDigest(const std::string& body) {
  const Result<api::MapRequest> req = api::ParseMapRequestText(body);
  if (!req.ok()) return "unparseable request";
  std::optional<Architecture> arch = api::FabricByName(req->fabric);
  const std::optional<Kernel> kernel =
      api::KernelByName(req->kernel, req->iterations, req->seed);
  if (!arch || !kernel) return "unknown fabric or kernel";
  if (!req->dead_cells.empty()) {
    FaultModel fm;
    for (const int c : req->dead_cells) fm.KillCell(c);
    arch = arch->WithFaults(fm);
  }
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

// ---- the preset fabric store --------------------------------------------

std::uint64_t CounterValue(const char* name) {
  return telemetry::MetricsRegistry::Global().GetCounter(name).Value();
}

TEST(FabricStore, OnePerPreset) {
  api::FabricStore store;
  const std::vector<std::string>& names = api::KnownFabricNames();
  const std::uint64_t fabrics = CounterValue("cgra_fabric_builds_total");
  const std::uint64_t mrrgs = CounterValue("cgra_mrrg_builds_total");
  // 8 threads race the first use of every preset, each starting at a
  // different one.
  std::vector<std::vector<const Architecture*>> seen(
      8, std::vector<const Architecture*>(names.size(), nullptr));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < names.size(); ++i) {
        const std::size_t n = (i + t) % names.size();
        seen[t][n] = store.Get(names[n]).get();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(CounterValue("cgra_fabric_builds_total") - fabrics, names.size());
  EXPECT_EQ(CounterValue("cgra_mrrg_builds_total") - mrrgs, names.size());

  for (std::size_t n = 0; n < names.size(); ++n) {
    const Architecture* f = seen[0][n];
    ASSERT_NE(f, nullptr) << names[n];
    for (const std::vector<const Architecture*>& s : seen) EXPECT_EQ(s[n], f);
    EXPECT_EQ(&f->mrrg().arch(), f);
    EXPECT_FALSE(f->HasFaults());
    EXPECT_EQ(f->Digest(), api::FabricByName(names[n])->Digest());
    EXPECT_EQ(store.Get(names[n]).get(), f) << "a later use is the same fabric";
    for (std::size_t m = 0; m < n; ++m) EXPECT_NE(seen[0][m], f);
  }
  EXPECT_EQ(store.Get("nope9x9"), nullptr);
  EXPECT_EQ(CounterValue("cgra_fabric_builds_total") - fabrics, names.size());
  EXPECT_EQ(CounterValue("cgra_mrrg_builds_total") - mrrgs, names.size());
}

TEST(Serve, WarmHitBuildsNothing) {
  MappingCache cache(MappingCacheOptions{});
  api::ServiceOptions so;
  so.cache = &cache;
  api::MappingService service(std::move(so));
  HttpRequest http;
  http.method = "POST";
  http.path = "/v1/map";
  http.body = MapBody("fir4", 0, 11);
  const HttpResponse cold = service.Handle(http);
  ASSERT_EQ(cold.status, 200) << cold.body;
  const Result<api::MapResponse> c = api::ParseMapResponseText(cold.body);
  ASSERT_TRUE(c.ok() && c->ok) << cold.body;

  const std::uint64_t fabrics = CounterValue("cgra_fabric_builds_total");
  const std::uint64_t mrrgs = CounterValue("cgra_mrrg_builds_total");
  for (int i = 0; i < 100; ++i) {
    const HttpResponse warm = service.Handle(http);
    const Result<api::MapResponse> w = api::ParseMapResponseText(warm.body);
    ASSERT_TRUE(w.ok() && w->ok) << warm.body;
    EXPECT_TRUE(w->cache_hit);
    EXPECT_EQ(w->mapping_digest, c->mapping_digest);
  }
  EXPECT_EQ(CounterValue("cgra_fabric_builds_total"), fabrics);
  EXPECT_EQ(CounterValue("cgra_mrrg_builds_total"), mrrgs);
  EXPECT_EQ(cache.stats().validate_failures, 0u);
}

TEST(Serve, FaultedRequestsGetPrivateFabrics) {
  api::MapRequest r;
  r.fabric = "adres4x4";
  r.kernel = "dot_product";
  r.mappers = {"ims"};
  const std::shared_ptr<const Architecture> preset =
      api::FabricStore::Global().Get("adres4x4");
  const std::string preset_digest = preset->Digest();

  // Kill two cells the healthy mapping uses.
  const Result<api::ResolvedRequest> job = api::ResolveMapRequest(r);
  ASSERT_TRUE(job.ok());
  const Result<EngineResult> healthy_map = MappingEngine(job->engine).Run(
      job->kernel.dfg, *job->fabric, r.mappers);
  ASSERT_TRUE(healthy_map.ok());
  for (const Placement& p : healthy_map->mapping.place) {
    if (p.cell >= 0 && r.dead_cells.size() < 2) r.dead_cells.push_back(p.cell);
  }
  ASSERT_EQ(r.dead_cells.size(), 2u);
  const int dead0 = r.dead_cells[0], dead1 = r.dead_cells[1];
  const std::uint64_t fabrics = CounterValue("cgra_fabric_builds_total");
  const std::uint64_t mrrgs = CounterValue("cgra_mrrg_builds_total");
  const Result<api::ResolvedRequest> a = api::ResolveMapRequest(r);
  const Result<api::ResolvedRequest> b = api::ResolveMapRequest(r);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(CounterValue("cgra_fabric_builds_total") - fabrics, 2u);
  EXPECT_EQ(CounterValue("cgra_mrrg_builds_total") - mrrgs, 0u)
      << "a derated fabric builds its graph when first mapped";
  for (const api::ResolvedRequest* job : {&*a, &*b}) {
    EXPECT_NE(job->fabric, preset);
    EXPECT_FALSE(job->fabric->CellAlive(dead0));
    EXPECT_FALSE(job->fabric->CellAlive(dead1));
    const std::uint64_t before = CounterValue("cgra_mrrg_builds_total");
    const Result<EngineResult> m = MappingEngine(job->engine).Run(
        job->kernel.dfg, *job->fabric, r.mappers);
    ASSERT_TRUE(m.ok()) << m.error().message;
    EXPECT_EQ(CounterValue("cgra_mrrg_builds_total") - before, 1u);
    const Mrrg& mrrg = job->fabric->mrrg();
    EXPECT_EQ(&mrrg.arch(), job->fabric.get());
    EXPECT_EQ(mrrg.capacity(mrrg.FuNode(dead0)), 0);
  }
  EXPECT_NE(a->fabric, b->fabric);
  // The stored preset is untouched.
  EXPECT_FALSE(preset->HasFaults());
  EXPECT_EQ(preset->Digest(), preset_digest);
  r.dead_cells.clear();
  EXPECT_EQ(api::ResolveMapRequest(r)->fabric, preset);

  // Served in either order, a faulted and a healthy request each answer
  // what a fresh fabric answers.
  api::MappingService service(api::ServiceOptions{});
  HttpRequest http;
  http.method = "POST";
  http.path = "/v1/map";
  r.dead_cells = {dead0, dead1};
  const std::string faulted = api::ToJson(r);
  r.dead_cells.clear();
  const std::string healthy = api::ToJson(r);
  for (const std::string* body : {&faulted, &healthy, &faulted}) {
    http.body = *body;
    const HttpResponse resp = service.Handle(http);
    const Result<api::MapResponse> m = api::ParseMapResponseText(resp.body);
    ASSERT_TRUE(m.ok() && m->ok) << resp.body;
    EXPECT_EQ(m->mapping_digest, InProcessDigest(*body)) << *body;
  }
  EXPECT_NE(InProcessDigest(faulted), InProcessDigest(healthy));
}

// Delegates to a registered mapper and records, for each call, the
// fabric, its MRRG, and the dead cells each of them shows.
class RecordingMapper final : public Mapper {
 public:
  explicit RecordingMapper(const char* inner)
      : inner_(*MapperRegistry::Global().Find(inner)) {}
  std::string name() const override { return inner_.name(); }
  TechniqueClass technique() const override { return inner_.technique(); }
  MappingKind kind() const override { return inner_.kind(); }
  std::string lineage() const override { return inner_.lineage(); }

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    const Mrrg& mrrg = arch.mrrg();
    Call call{&arch, &mrrg};
    for (int c = 0; c < arch.num_cells(); ++c) {
      if (!arch.CellAlive(c)) ++call.dead_cells;
      if (mrrg.capacity(mrrg.FuNode(c)) == 0) ++call.dead_fus;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      calls.push_back(call);
    }
    return inner_.Map(dfg, arch, options);
  }

  struct Call {
    const Architecture* arch;
    const Mrrg* mrrg;
    int dead_cells = 0;
    int dead_fus = 0;
  };
  mutable std::vector<Call> calls;

 private:
  const Mapper& inner_;
  mutable std::mutex mu_;
};

TEST(MappingEngine, RepairRoundsBuildTheirOwnMrrg) {
  // The stored preset, its graph built: a round that mapped on it would
  // map a derated fabric on healthy resources.
  const std::shared_ptr<const Architecture> fabric =
      api::FabricStore::Global().Get("adres4x4");
  const Kernel k = *api::KernelByName("dot_product", 16, 42);
  EngineOptions opts;
  opts.race = false;
  opts.deadline = Deadline::AfterSeconds(30);
  int victim = -1;
  RepairOptions repair;
  repair.verifier = [&victim](const Architecture&, const Mapping& m,
                              FaultModel& fm) -> Status {
    if (victim >= 0) return Status::Ok();
    for (const Placement& p : m.place) {
      if (p.cell >= 0) {
        victim = p.cell;
        break;
      }
    }
    fm.KillCell(victim);
    return Error::Internal("injected self-test miscompare");
  };
  const RecordingMapper ims("ims");
  const std::uint64_t mrrgs = CounterValue("cgra_mrrg_builds_total");
  const auto r = MappingEngine(opts).RunWithRepair(
      k.dfg, *fabric, FaultModel{}, {&ims}, repair);
  ASSERT_TRUE(r.ok()) << r.error().message;
  ASSERT_EQ(r->rounds, 2);
  ASSERT_EQ(ims.calls.size(), 2u);
  EXPECT_EQ(CounterValue("cgra_mrrg_builds_total") - mrrgs, 2u)
      << "one graph per round; its validation reuses it";
  for (int round = 0; round < 2; ++round) {
    const RecordingMapper::Call& call = ims.calls[static_cast<size_t>(round)];
    EXPECT_NE(call.arch, fabric.get()) << "each round maps its own copy";
    EXPECT_NE(call.mrrg, &fabric->mrrg());
    EXPECT_EQ(call.dead_cells, round);
    EXPECT_EQ(call.dead_fus, round) << "a graph of this round's fabric";
  }
  // The accepted round's fabric is handed out with the graph its
  // mapper used, so the caller's validation builds none.
  EXPECT_EQ(&r->arch->mrrg(), ims.calls[1].mrrg);
  const std::uint64_t before = CounterValue("cgra_mrrg_builds_total");
  EXPECT_TRUE(ValidateMapping(k.dfg, *r->arch, r->result.mapping).ok());
  EXPECT_EQ(CounterValue("cgra_mrrg_builds_total"), before);
  for (const Placement& p : r->result.mapping.place) EXPECT_NE(p.cell, victim);
}

// Two fabrics at one address, one after the other: the second must map
// as a fresh fabric does, whatever the first left behind in a shared
// mapping cache.
TEST(FabricStore, SecondFabricAtARecycledAddressMapsFresh) {
  MappingCache cache(MappingCacheOptions{});
  EngineOptions opts;
  opts.race = false;
  opts.deadline = Deadline::AfterSeconds(30);
  opts.cache = &cache;
  const Kernel k = *api::KernelByName("wide_dot_8", 16, 42);
  const auto digest = [&](const Architecture& arch) {
    const Result<EngineResult> r =
        MappingEngine(opts).Run(k.dfg, arch, {"ims"});
    EXPECT_EQ(&arch.mrrg().arch(), &arch);
    return r.ok() ? MappingDigestHex(r->mapping) : r.error().message;
  };
  const auto fresh = [&](const Architecture& arch) {
    EngineOptions o = opts;
    o.cache = nullptr;
    const Result<EngineResult> r = MappingEngine(o).Run(k.dfg, arch, {"ims"});
    return r.ok() ? MappingDigestHex(r->mapping) : r.error().message;
  };

  alignas(Architecture) unsigned char storage[sizeof(Architecture)];
  Architecture* first = new (storage) Architecture(Architecture::Adres4x4());
  const std::string first_digest = digest(*first);
  first->~Architecture();
  Architecture* second = new (storage) Architecture(Architecture::Big8x8());
  ASSERT_EQ(static_cast<void*>(first), static_cast<void*>(second));
  const std::string second_digest = digest(*second);
  second->~Architecture();
  Architecture* third = new (storage) Architecture(Architecture::Adres4x4());
  const std::string third_digest = digest(*third);
  third->~Architecture();

  EXPECT_EQ(first_digest, fresh(Architecture::Adres4x4()));
  EXPECT_EQ(second_digest, fresh(Architecture::Big8x8()));
  EXPECT_EQ(third_digest, first_digest);
  EXPECT_NE(first_digest, second_digest);
  EXPECT_EQ(cache.stats().mem_hits, 1u) << "only the third run hits";
}

// The benchmark runner's sequence for one job (fabric, MRRG, engine,
// validation, code generation) builds the fabric's MRRG once.
TEST(Mrrg, OneBuildPerMappedJob) {
  const Kernel k = *api::KernelByName("fir4", 16, 42);
  for (const char* name : {"adres4x4", "big8x8", "mega16x16"}) {
    const std::uint64_t before = CounterValue("cgra_mrrg_builds_total");
    const std::optional<Architecture> arch = api::FabricByName(name);
    ASSERT_TRUE(arch.has_value()) << name;
    MrrgCache mrrg_cache;
    EXPECT_GT(mrrg_cache.Get(*arch)->num_nodes(), 0) << name;
    EngineOptions eo;
    eo.race = false;
    eo.deadline = Deadline::AfterSeconds(30);
    eo.mrrg_cache = &mrrg_cache;
    const Result<EngineResult> r = MappingEngine(eo).Run(k.dfg, *arch, {"ims"});
    ASSERT_TRUE(r.ok()) << name << ": " << r.error().message;
    EXPECT_TRUE(ValidateMapping(k.dfg, *arch, r->mapping).ok()) << name;
    // Code generation may find the mapping undeployable (kUnmappable);
    // either way it reads the fabric's graph.
    const Result<ConfigImage> image =
        CompileToContexts(k.dfg, *arch, r->mapping);
    EXPECT_TRUE(image.ok() || image.error().code == Error::Code::kUnmappable)
        << name << ": " << image.error().message;
    EXPECT_EQ(CounterValue("cgra_mrrg_builds_total") - before, 1u) << name;
  }
}

}  // namespace
}  // namespace cgra
