// cgra_serve: mapping-as-a-service.
//
// The long-running front-end of the mapping system: an HTTP/1.1
// daemon (src/support/http — dependency-free sockets) that accepts
// MapRequest bodies on POST /v1/map, runs them on the portfolio
// engine through a shared warm MappingCache, and exposes
// GET /metrics (Prometheus text straight off the metrics registry)
// and GET /healthz. The request/response wire format is the versioned
// src/api layer shared with tools/cgra_batch — docs/API.md is the
// contract, and src/api/service.cpp is the application logic (kept in
// the library so tests/test_serve.cpp drives it in-process).
//
// Overload produces explicit, fast rejections instead of queueing
// collapse: the accept queue is bounded (full => 503 from the accept
// thread) and at most --max-inflight mapping requests execute at once
// (excess => 429, unless the request's priority clears
// --urgent-priority). Per-request deadlines are clamped to
// --max-deadline-seconds and propagate into EngineOptions, so one
// client cannot pin a worker past the operator's budget.
//
// SIGTERM/SIGINT drain: stop accepting, answer new mapping requests
// 503, let in-flight ones finish; after --drain-seconds of grace the
// shared StopToken cancels stragglers cooperatively (they still get a
// structured resource-limit response). Then the trace sink is flushed
// (--trace FILE writes a Chrome trace) and the daemon exits 0.
//
// quickstart:
//   cgra_serve --port 8080 &
//   echo '{"fabric":"adres4x4","kernel":"dot_product","mappers":["ims"]}' |
//     curl -s localhost:8080/v1/map -d @-
//   curl -s localhost:8080/metrics | grep cgra_serve
//
// Crash isolation (--isolation none|crashy_only|all): with "all",
// every mapper attempt runs in a fork()ed child under --rlimit-cpu /
// --rlimit-mem / --rlimit-stack caps, so a segfaulting or wedged
// mapper kills its sandbox, not the daemon; repeat offenders are
// quarantined process-wide (docs/ROBUSTNESS.md). The CI chaos job
// runs exactly this configuration against the crashy fixture family.
//
// usage: cgra_serve [--host H] [--port P] [--port-file FILE]
//                   [--workers N] [--queue-limit N] [--max-inflight N]
//                   [--urgent-priority N] [--max-deadline-seconds S]
//                   [--cache-dir DIR] [--cache-capacity N] [--no-cache]
//                   [--isolation none|crashy_only|all]
//                   [--rlimit-cpu SEC] [--rlimit-mem MB] [--rlimit-stack MB]
//                   [--race] [--drain-seconds S] [--trace FILE] [--quiet]
#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <thread>

#include "api/service.hpp"
#include "cache/mapping_cache.hpp"
#include "support/http.hpp"
#include "support/stop_token.hpp"
#include "support/timer.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

using namespace cgra;

namespace {

// Signal handlers may only touch lock-free state; the main loop polls.
volatile std::sig_atomic_t g_shutdown = 0;

void OnSignal(int) { g_shutdown = 1; }

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::string port_file;
  std::string cache_dir;
  std::string trace_path;
  int port = 0;
  std::size_t workers = 8;
  std::size_t queue_limit = 64;
  std::size_t max_inflight = 0;  // 0 => same as workers
  int urgent_priority = 10;
  double max_deadline_seconds = 30.0;
  double drain_seconds = 5.0;
  std::size_t cache_capacity = 4096;
  bool use_cache = true;
  bool race = false;
  bool quiet = false;
  IsolationMode isolation = IsolationMode::kNone;
  SandboxLimits sandbox_limits;

  for (int i = 1; i < argc; ++i) {
    const auto arg_value = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (const char* v = arg_value("--host")) {
      host = v;
    } else if (const char* v = arg_value("--port")) {
      port = std::atoi(v);
    } else if (const char* v = arg_value("--port-file")) {
      port_file = v;
    } else if (const char* v = arg_value("--workers")) {
      workers = static_cast<std::size_t>(std::atoll(v));
    } else if (const char* v = arg_value("--queue-limit")) {
      queue_limit = static_cast<std::size_t>(std::atoll(v));
    } else if (const char* v = arg_value("--max-inflight")) {
      max_inflight = static_cast<std::size_t>(std::atoll(v));
    } else if (const char* v = arg_value("--urgent-priority")) {
      urgent_priority = std::atoi(v);
    } else if (const char* v = arg_value("--max-deadline-seconds")) {
      max_deadline_seconds = std::atof(v);
    } else if (const char* v = arg_value("--drain-seconds")) {
      drain_seconds = std::atof(v);
    } else if (const char* v = arg_value("--cache-dir")) {
      cache_dir = v;
    } else if (const char* v = arg_value("--cache-capacity")) {
      cache_capacity = static_cast<std::size_t>(std::atoll(v));
    } else if (const char* v = arg_value("--trace")) {
      trace_path = v;
    } else if (const char* v = arg_value("--isolation")) {
      if (!ParseIsolationMode(v, &isolation)) {
        std::fprintf(stderr,
                     "cgra_serve: --isolation must be none, crashy_only or "
                     "all (got \"%s\")\n",
                     v);
        return 2;
      }
    } else if (const char* v = arg_value("--rlimit-cpu")) {
      sandbox_limits.cpu_seconds = std::atol(v);
    } else if (const char* v = arg_value("--rlimit-mem")) {
      sandbox_limits.memory_bytes = std::atol(v) * (1l << 20);
    } else if (const char* v = arg_value("--rlimit-stack")) {
      sandbox_limits.stack_bytes = std::atol(v) * (1l << 20);
    } else if (std::strcmp(argv[i], "--no-cache") == 0) {
      use_cache = false;
    } else if (std::strcmp(argv[i], "--race") == 0) {
      race = true;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else {
      std::fprintf(
          stderr,
          "usage: %s [--host H] [--port P] [--port-file FILE]\n"
          "          [--workers N] [--queue-limit N] [--max-inflight N]\n"
          "          [--urgent-priority N] [--max-deadline-seconds S]\n"
          "          [--cache-dir DIR] [--cache-capacity N] [--no-cache]\n"
          "          [--isolation none|crashy_only|all]\n"
          "          [--rlimit-cpu SEC] [--rlimit-mem MB] "
          "[--rlimit-stack MB]\n"
          "          [--race] [--drain-seconds S] [--trace FILE] [--quiet]\n",
          argv[0]);
      return 2;
    }
  }
  if (max_inflight == 0) max_inflight = workers;
  if (!trace_path.empty()) telemetry::SetEnabled(true);

  std::optional<MappingCache> cache;
  if (use_cache) {
    MappingCacheOptions co;
    co.capacity = cache_capacity;
    co.disk_dir = cache_dir;
    cache.emplace(co);
  }
  StopSource drain_source;       // hard cancel: stragglers past the grace
  StopSource draining_source;    // soft announcement: healthz 503, no new maps

  api::ServiceOptions so;
  so.max_inflight = max_inflight;
  so.urgent_priority = urgent_priority;
  so.max_deadline_seconds = max_deadline_seconds;
  so.engine_race = race;
  so.cache = cache ? &*cache : nullptr;
  so.stop = drain_source.token();
  so.draining = draining_source.token();
  so.isolation = isolation;
  so.sandbox_limits = sandbox_limits;
  api::MappingService service(std::move(so));

  HttpServerOptions ho;
  ho.host = host;
  ho.port = port;
  ho.workers = workers;
  ho.queue_limit = queue_limit;
  HttpServer server(ho, [&service](const HttpRequest& request) {
    return service.Handle(request);
  });
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "cgra_serve: %s\n", s.error().message.c_str());
    return 1;
  }

  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  std::signal(SIGPIPE, SIG_IGN);

  if (!quiet) {
    std::printf("cgra_serve listening on http://%s:%d "
                "(workers=%zu queue=%zu max-inflight=%zu cache=%s)\n",
                host.c_str(), server.port(), workers, queue_limit,
                max_inflight,
                cache ? (cache_dir.empty() ? "mem" : cache_dir.c_str())
                      : "off");
    std::fflush(stdout);
  }
  if (!port_file.empty()) {
    if (std::FILE* f = std::fopen(port_file.c_str(), "w")) {
      std::fprintf(f, "%d\n", server.port());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "cgra_serve: cannot write %s\n",
                   port_file.c_str());
      server.Stop();
      return 1;
    }
  }

  while (g_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Drain, in load-balancer-friendly order: announce first (healthz
  // flips to 503 "draining" and new mapping requests are refused while
  // the listener is STILL accepting, so probes route traffic away
  // instead of hitting connection-refused), give in-flight requests
  // their grace, then cancel stragglers and close the listener.
  if (!quiet) std::printf("cgra_serve: draining...\n");
  draining_source.RequestStop();
  const Deadline grace = Deadline::AfterSeconds(drain_seconds);
  while (service.inflight() > 0 && !grace.Expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  server.BeginDrain();
  if (service.inflight() > 0) {
    // Stragglers past the grace window: cancel cooperatively. They
    // still produce (resource-limit) responses before the join below.
    drain_source.RequestStop();
  }
  server.Stop();

  if (!trace_path.empty()) {
    if (telemetry::WriteChromeTrace(trace_path)) {
      if (!quiet) std::printf("wrote %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "cgra_serve: cannot write trace %s\n",
                   trace_path.c_str());
    }
  }
  if (!quiet) {
    const HttpServer::Stats st = server.stats();
    std::printf("cgra_serve: served %llu request(s), %llu rejected "
                "(queue full), %llu parse error(s), %llu io error(s)\n",
                static_cast<unsigned long long>(st.served),
                static_cast<unsigned long long>(st.rejected_queue_full),
                static_cast<unsigned long long>(st.parse_errors),
                static_cast<unsigned long long>(st.io_errors));
    if (cache) std::printf("cache: %s\n", cache->stats().ToJson().c_str());
  }
  return 0;
}
