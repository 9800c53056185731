// MappingService: the HTTP-facing application logic of cgra_serve,
// kept in the library so tests can hit it on a loopback HttpServer
// in-process and the daemon binary stays a thin flag-parsing main().
//
// One MappingService instance owns the serving policy:
//   * admission control — at most `max_inflight` mapping requests run
//     at once; the excess is answered 429 immediately (the HTTP
//     layer's bounded accept queue already 503s hard overload before
//     it gets here). A request with priority >= urgent_priority
//     bypasses the soft limit: deadline-critical recompiles (e.g. a
//     fault just took out a PE) must not queue behind bulk traffic.
//   * per-request deadline — the client's deadline_seconds, clamped to
//     max_deadline_seconds, becomes EngineOptions::deadline; a client
//     cannot pin a worker for longer than the operator allows.
//   * a shared warm MappingCache across every request — the whole
//     point of serving from a daemon instead of forking a batch compile
//     per request. MRRGs are not shared: MrrgCache keys on the
//     Architecture's address, and each request builds its fabric on
//     the stack, so every engine run builds its own.
//   * request-scoped telemetry: every mapping request runs under a
//     "serve.request" span with a fresh correlation id that is echoed
//     in the response body ("corr") and the X-Correlation-Id header.
//   * drain — once `stop` fires (SIGTERM), new mapping requests get
//     503 "draining" while in-flight ones run to completion; the
//     token is also forwarded into the engine so a drain with
//     --drain-grace exceeded cancels cooperatively.
//
// Endpoints: POST /v1/map, GET /healthz, GET /metrics (Prometheus
// text), GET /v1/stats (sliding-window live stats: request rate,
// p50/p99 latency, cache hit-rate, quarantine state over 1s/10s/60s
// windows). Everything else is a canonical 404/405 ErrorJson body.
// docs/API.md is the wire contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "api/request.hpp"
#include "api/response.hpp"
#include "api/stats_window.hpp"
#include "cache/mapping_cache.hpp"
#include "engine/engine.hpp"
#include "support/http.hpp"
#include "support/stop_token.hpp"

namespace cgra::api {

struct ServiceOptions {
  /// Soft concurrency limit: mapping requests beyond this many in
  /// flight are answered 429 (urgent priority bypasses, see below).
  std::size_t max_inflight = 8;

  /// Requests with priority >= this value skip the soft limit.
  int urgent_priority = 10;

  /// Upper clamp on a request's deadline_seconds.
  double max_deadline_seconds = 30.0;

  /// Run each request's portfolio as a race on a pool (true) or as a
  /// deterministic sequential sweep on the HTTP worker (false, the
  /// default — request-level parallelism comes from concurrent HTTP
  /// workers, and determinism keeps warm-cache digests bit-identical).
  bool engine_race = false;

  /// Shared mapping cache; may be nullptr (no memoisation).
  MappingCache* cache = nullptr;

  /// Process-level crash isolation for every request's engine run
  /// (--isolation). kAll is the safe setting for untrusted portfolios:
  /// a SIGSEGV, alloc bomb, or hard infinite loop in one mapper kills
  /// a fork()ed child, not the daemon. Crash history feeds the
  /// process-wide QuarantineTracker::Global(), so repeat offenders are
  /// benched across requests.
  IsolationMode isolation = IsolationMode::kNone;

  /// Per-attempt rlimits inside each sandboxed child (--rlimit-*).
  SandboxLimits sandbox_limits;

  /// Crash-history state shown in /v1/stats and fed to sandboxed
  /// engine runs. nullptr = QuarantineTracker::Global() (the daemon
  /// default); tests point this at a private tracker.
  QuarantineTracker* quarantine = nullptr;

  /// Drain signal: once it fires, new mapping work is refused and the
  /// engine is told to stop cooperatively.
  StopToken stop;

  /// Soft drain announcement, flipped at the START of the SIGTERM
  /// sequence: /healthz goes 503 "draining" and new mapping requests
  /// are refused, but in-flight engines keep running (only `stop`
  /// cancels them). Lets a load balancer route away while the listener
  /// is still up and the grace window still protects running work.
  /// Unset (default token) means `stop` alone decides.
  StopToken draining;
};

class MappingService {
 public:
  explicit MappingService(ServiceOptions options);

  /// The HttpServer handler: routes by (method, path). Thread-safe;
  /// called concurrently from every HTTP worker.
  HttpResponse Handle(const HttpRequest& request);

  /// Mapping requests currently executing (for /healthz and tests).
  int inflight() const { return inflight_.load(std::memory_order_relaxed); }

  const ServiceOptions& options() const { return options_; }

  /// The live request window feeding GET /v1/stats (tests poke it).
  const StatsWindow& stats() const { return stats_; }

 private:
  HttpResponse HandleMap(const HttpRequest& request);
  HttpResponse HandleHealth() const;
  HttpResponse HandleMetrics() const;
  HttpResponse HandleStats() const;

  ServiceOptions options_;
  std::atomic<int> inflight_{0};
  StatsWindow stats_;
};

}  // namespace cgra::api
