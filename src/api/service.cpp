#include "api/service.hpp"

#include <algorithm>

#include "engine/engine.hpp"
#include "engine/quarantine.hpp"
#include "engine/trace.hpp"
#include "support/str.hpp"
#include "support/timer.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/search_log.hpp"
#include "telemetry/telemetry.hpp"

namespace cgra::api {

namespace {

struct ServeMetrics {
  telemetry::Counter& requests;
  telemetry::Counter& map_ok;
  telemetry::Counter& map_fail;
  telemetry::Counter& rejected_busy;
  telemetry::Counter& rejected_draining;
  telemetry::Counter& bad_requests;
  telemetry::Gauge& inflight;
  telemetry::Histogram& seconds;

  static ServeMetrics& Get() {
    auto& reg = telemetry::MetricsRegistry::Global();
    // Piggyback on first-metric-touch: the build_info gauges belong in
    // every /metrics scrape from the first response onward.
    static const bool build_info = [] {
      telemetry::RegisterBuildInfo(kSchemaVersion,
                                   telemetry::SearchLog::kSchemaVersion);
      return true;
    }();
    (void)build_info;
    static ServeMetrics m{
        reg.GetCounter("cgra_serve_http_requests_total",
                       "HTTP requests routed by the mapping service"),
        reg.GetCounter("cgra_serve_map_ok_total",
                       "Mapping requests answered with a mapping"),
        reg.GetCounter("cgra_serve_map_fail_total",
                       "Mapping requests whose engine run failed"),
        reg.GetCounter("cgra_serve_rejected_busy_total",
                       "Mapping requests answered 429 (soft limit)"),
        reg.GetCounter("cgra_serve_rejected_draining_total",
                       "Mapping requests answered 503 while draining"),
        reg.GetCounter("cgra_serve_bad_requests_total",
                       "Mapping requests answered 400"),
        reg.GetGauge("cgra_serve_inflight",
                     "Mapping requests currently executing"),
        reg.GetHistogram(
            "cgra_serve_request_seconds",
            {0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30},
            "End-to-end mapping request latency"),
    };
    return m;
  }
};

/// RAII in-flight accounting (decrements on every exit path).
class InflightGuard {
 public:
  InflightGuard(std::atomic<int>& counter, telemetry::Gauge& gauge)
      : counter_(counter), gauge_(gauge) {
    counter_.fetch_add(1, std::memory_order_acq_rel);
    gauge_.Add(1);
  }
  ~InflightGuard() {
    counter_.fetch_sub(1, std::memory_order_acq_rel);
    gauge_.Add(-1);
  }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

 private:
  std::atomic<int>& counter_;
  telemetry::Gauge& gauge_;
};

HttpResponse JsonResponse(int status, std::string body,
                          std::uint64_t correlation = 0) {
  HttpResponse r;
  r.status = status;
  r.body = std::move(body);
  if (correlation != 0) {
    r.headers.emplace_back("X-Correlation-Id",
                           StrFormat("%llu", static_cast<unsigned long long>(
                                                 correlation)));
  }
  return r;
}

}  // namespace

MappingService::MappingService(ServiceOptions options)
    : options_(std::move(options)) {}

HttpResponse MappingService::Handle(const HttpRequest& request) {
  ServeMetrics::Get().requests.Add(1);
  if (request.path == "/healthz") {
    if (request.method != "GET") {
      return JsonResponse(405, ErrorJson("method-not-allowed",
                                         "use GET /healthz"));
    }
    return HandleHealth();
  }
  if (request.path == "/metrics") {
    if (request.method != "GET") {
      return JsonResponse(405, ErrorJson("method-not-allowed",
                                         "use GET /metrics"));
    }
    return HandleMetrics();
  }
  if (request.path == "/v1/map") {
    if (request.method != "POST") {
      return JsonResponse(405, ErrorJson("method-not-allowed",
                                         "use POST /v1/map"));
    }
    return HandleMap(request);
  }
  if (request.path == "/v1/stats") {
    if (request.method != "GET") {
      return JsonResponse(405, ErrorJson("method-not-allowed",
                                         "use GET /v1/stats"));
    }
    return HandleStats();
  }
  return JsonResponse(
      404, ErrorJson("not-found",
                     "unknown endpoint \"" + request.path +
                         "\" (have: POST /v1/map, GET /healthz, "
                         "GET /metrics, GET /v1/stats)"));
}

HttpResponse MappingService::HandleHealth() const {
  const bool draining =
      options_.draining.StopRequested() || options_.stop.StopRequested();
  JsonWriter w;
  w.BeginObject();
  w.Key("status").String(draining ? "draining" : "ok");
  w.Key("inflight").Int(inflight());
  w.Key("draining").Bool(draining);
  w.EndObject();
  // During drain the health check goes 503, not 200: a load balancer
  // probing /healthz must stop routing to this instance BEFORE the
  // listener closes, or the tail of the drain window turns into
  // connection-refused errors for clients.
  HttpResponse r = JsonResponse(draining ? 503 : 200, w.Take());
  if (draining) r.headers.emplace_back("Retry-After", "1");
  return r;
}

HttpResponse MappingService::HandleMetrics() const {
  HttpResponse r;
  r.status = 200;
  r.content_type = "text/plain; version=0.0.4";
  r.body = telemetry::MetricsRegistry::Global().ToPrometheus();
  return r;
}

HttpResponse MappingService::HandleStats() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Int(1);
  w.Key("uptime_seconds").Uint(stats_.UptimeSeconds());
  w.Key("inflight").Int(inflight());
  w.Key("windows").BeginObject();
  struct WindowSpec {
    const char* key;
    int seconds;
  };
  static constexpr WindowSpec kWindows[] = {{"1s", 1}, {"10s", 10}, {"60s", 60}};
  for (const auto& win : kWindows) {
    const StatsWindow::Window s = stats_.Snapshot(win.seconds);
    w.Key(win.key).BeginObject();
    w.Key("requests").Uint(s.requests);
    w.Key("rate_qps").Double(s.rate_qps);
    w.Key("ok").Uint(s.ok);
    w.Key("errors").Uint(s.errors);
    w.Key("cache_hits").Uint(s.cache_hits);
    w.Key("cache_hit_rate").Double(s.cache_hit_rate);
    w.Key("p50_ms").Double(s.p50_ms);
    w.Key("p99_ms").Double(s.p99_ms);
    w.Key("samples").Int(s.samples);
    w.EndObject();
  }
  w.EndObject();
  w.Key("quarantine").BeginArray();
  QuarantineTracker* tracker = options_.quarantine != nullptr
                                   ? options_.quarantine
                                   : &QuarantineTracker::Global();
  for (const QuarantineTracker::Snapshot& q : tracker->Dump()) {
    w.BeginObject();
    w.Key("mapper").String(q.mapper);
    w.Key("recent_crashes").Int(q.recent_crashes);
    w.Key("trips").Int(q.trips);
    w.Key("quarantined").Bool(q.quarantined);
    w.Key("release_in_seconds").Double(q.release_in_seconds);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return JsonResponse(200, w.Take());
}

HttpResponse MappingService::HandleMap(const HttpRequest& http) {
  ServeMetrics& metrics = ServeMetrics::Get();
  WallTimer timer;

  Result<MapRequest> parsed = ParseMapRequestText(http.body);
  if (!parsed.ok()) {
    metrics.bad_requests.Add(1);
    return JsonResponse(
        400, ErrorJson(Error::CodeName(parsed.error().code),
                       parsed.error().message));
  }
  MapRequest request = *std::move(parsed);
  if (request.name.empty()) request.name = "request";
  if (Status s = ValidateMapRequest(request); !s.ok()) {
    metrics.bad_requests.Add(1);
    return JsonResponse(400,
                        ToJson(BuildErrorResponse(request, s.error(),
                                                  timer.Seconds())));
  }

  // Drain: in-flight requests finish, new ones are turned away so the
  // daemon converges to idle.
  if (options_.draining.StopRequested() || options_.stop.StopRequested()) {
    metrics.rejected_draining.Add(1);
    HttpResponse r = JsonResponse(
        503, ToJson(BuildErrorResponse(
                 request,
                 Error::ResourceLimit("server is draining (SIGTERM)"),
                 timer.Seconds())));
    r.headers.emplace_back("Retry-After", "1");
    return r;
  }

  // Admission control (soft limit). The increment-then-check shape
  // makes the limit exact under concurrency: two racing requests both
  // increment, the one that pushed the counter past the limit (and is
  // not urgent) backs out via the guard's decrement.
  InflightGuard guard(inflight_, metrics.inflight);
  if (inflight_.load(std::memory_order_acquire) >
          static_cast<int>(options_.max_inflight) &&
      request.priority < options_.urgent_priority) {
    metrics.rejected_busy.Add(1);
    HttpResponse r = JsonResponse(
        429, ToJson(BuildErrorResponse(
                 request,
                 Error::ResourceLimit(StrFormat(
                     "%zu mapping requests already in flight (priority %d "
                     "< urgent threshold %d)",
                     options_.max_inflight, request.priority,
                     options_.urgent_priority)),
                 timer.Seconds())));
    r.headers.emplace_back("Retry-After", "1");
    return r;
  }

  // Request-scoped span + correlation id: the engine/mapper/attempt
  // spans this request produces nest under it on this worker thread,
  // and the id joins the response body to the Chrome trace.
  const std::uint64_t correlation = telemetry::NewCorrelation();
  telemetry::Span span("serve.request", request.name, correlation);

  Result<ResolvedRequest> job = ResolveMapRequest(request);
  if (!job.ok()) {
    metrics.bad_requests.Add(1);
    return JsonResponse(400, ToJson(BuildErrorResponse(
                                 request, job.error(), timer.Seconds(),
                                 correlation)));
  }

  EngineOptions& eo = job->engine;
  eo.race = options_.engine_race;
  eo.deadline = Deadline::AfterSeconds(
      std::min(request.deadline_seconds, options_.max_deadline_seconds));
  eo.cache = options_.cache;
  eo.stop = options_.stop;
  eo.isolation = options_.isolation;
  eo.sandbox_limits = options_.sandbox_limits;
  eo.quarantine = options_.quarantine;
  // stats=true: attach a trace so the attempts' SearchLogs are
  // captured, then fold them into the response's "search" summary.
  MapTrace trace;
  if (request.stats) eo.observer = &trace;

  const Result<EngineResult> result =
      MappingEngine(eo).Run(job->kernel.dfg, *job->fabric, request.mappers);
  const double wall = timer.Seconds();
  metrics.seconds.Observe(wall);
  if (result.ok()) {
    metrics.map_ok.Add(1);
  } else {
    metrics.map_fail.Add(1);
  }
  stats_.Record(wall, result.ok(), result.ok() && result->cache_hit);
  MapResponse response = BuildMapResponse(request, result, wall, correlation);
  if (request.stats) response.search = SummarizeSearch(trace);
  // An engine failure is still HTTP 200: the protocol worked and the
  // body carries the structured verdict ("unmappable" is an answer,
  // not a server error) — except resource exhaustion during drain,
  // which the client should retry elsewhere.
  return JsonResponse(200, ToJson(response), correlation);
}

}  // namespace cgra::api
