// cgra_batch: the sharded batch-compile front-end of the mapping
// service.
//
// Reads a JSON manifest of (fabric, kernel, mapper-set) jobs, shards
// them across the ThreadPool, and emits one aggregate JSON report.
// Both sides of the wire go through the versioned src/api layer shared
// with tools/cgra_serve: each manifest entry is parsed as an
// api::MapRequest (the single definition of a job — docs/API.md), and
// each job row in the report is an api::MapResponse serialised by the
// same ToJson that cgra_serve uses for its response bodies, so there
// is exactly one place the wire format is defined. Manifests without
// a "schema_version" are accepted as v1 (the pre-API format, e.g.
// tools/manifests/batch20.json) — the compatibility shim lives in
// api::ParseManifest, and an empty "jobs" array is an explicit
// structured error instead of a bare stderr line.
//
// All jobs share one content-addressed MappingCache (src/cache): point
// --cache-dir at a directory and the second run of the same manifest
// is answered from disk, bit-identical per-job digests included — that
// is the serving-system story the ROADMAP asks for, measured end to
// end by scripts/check_batch_report.py (and live, behind HTTP, by
// tools/cgra_serve + tools/cgra_loadgen).
//
// Observability: --trace FILE turns the span tracer on and writes a
// Chrome trace-event JSON (load in Perfetto / chrome://tracing, or
// aggregate with tools/cgra_trace) covering every job's
// batch.job -> engine.run -> mapper -> attempt -> phase.* span tree;
// the report's aggregate always embeds a metrics-registry snapshot
// (docs/OBSERVABILITY.md). All report JSON goes through support/json's
// JsonWriter — the one escaping implementation in the repo.
//
// usage: cgra_batch --manifest FILE [--out FILE] [--cache-dir DIR]
//                   [--cache-capacity N] [--no-cache] [--threads N]
//                   [--isolation none|crashy_only|all]
//                   [--rlimit-cpu SEC] [--rlimit-mem MB] [--rlimit-stack MB]
//                   [--traces DIR] [--trace FILE] [--quiet]
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "api/request.hpp"
#include "api/response.hpp"
#include "arch/arch.hpp"
#include "cache/mapping_cache.hpp"
#include "engine/engine.hpp"
#include "engine/trace.hpp"
#include "support/json.hpp"
#include "support/str.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/search_log.hpp"
#include "telemetry/telemetry.hpp"

using namespace cgra;

namespace {

struct JobIsolation {
  IsolationMode mode = IsolationMode::kNone;
  SandboxLimits limits;
};

api::MapResponse RunJob(const api::MapRequest& request, MappingCache* cache,
                        const std::string& traces_dir,
                        const JobIsolation& isolation) {
  // Root of this job's span tree; every engine/mapper/attempt span the
  // job emits nests under it on the worker thread's track.
  telemetry::Span job_span("batch.job", request.name);
  WallTimer timer;

  // An invalid manifest entry becomes a failed job row, not a failed
  // run: the other jobs still execute (cgra_serve instead answers 400
  // before doing any work — same validator, different policy).
  if (Status s = api::ValidateMapRequest(request); !s.ok()) {
    return api::BuildErrorResponse(request, s.error(), timer.Seconds());
  }
  Result<api::ResolvedRequest> job = api::ResolveMapRequest(request);
  if (!job.ok()) {
    return api::BuildErrorResponse(request, job.error(), timer.Seconds());
  }

  MapTrace trace;
  EngineOptions& eo = job->engine;
  // Sequential sweep, not a race: a batch run is already maximally
  // parallel across jobs, and determinism is what makes the warm-run
  // digests comparable to the cold ones.
  eo.race = false;
  eo.observer = &trace;
  eo.cache = cache;
  eo.isolation = isolation.mode;
  eo.sandbox_limits = isolation.limits;

  const Result<EngineResult> r =
      MappingEngine(eo).Run(job->kernel.dfg, *job->fabric, request.mappers);
  api::MapResponse out = api::BuildMapResponse(request, r, timer.Seconds());

  {
    auto& reg = telemetry::MetricsRegistry::Global();
    static telemetry::Counter& jobs =
        reg.GetCounter("cgra_batch_jobs_total", "Batch jobs executed");
    static telemetry::Counter& failed =
        reg.GetCounter("cgra_batch_jobs_failed_total",
                       "Batch jobs that produced no mapping");
    jobs.Add(1);
    if (!out.ok) failed.Add(1);
  }

  if (!traces_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(traces_dir, ec);
    const std::string path = traces_dir + "/" + request.name + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      const std::string json = trace.ToJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string manifest_path;
  std::string out_path = "BATCH_report.json";
  std::string cache_dir;
  std::string traces_dir;
  std::string trace_path;
  std::size_t cache_capacity = 4096;
  bool use_cache = true;
  bool quiet = false;
  int threads = 0;
  JobIsolation isolation;

  for (int i = 1; i < argc; ++i) {
    const auto arg_value = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (const char* v = arg_value("--manifest")) {
      manifest_path = v;
    } else if (const char* v = arg_value("--out")) {
      out_path = v;
    } else if (const char* v = arg_value("--cache-dir")) {
      cache_dir = v;
    } else if (const char* v = arg_value("--traces")) {
      traces_dir = v;
    } else if (const char* v = arg_value("--trace")) {
      trace_path = v;
    } else if (const char* v = arg_value("--search-detail")) {
      telemetry::SearchDetail detail;
      if (!telemetry::ParseSearchDetail(v, &detail)) {
        std::fprintf(stderr,
                     "cgra_batch: --search-detail must be off, counters or "
                     "full (got \"%s\")\n",
                     v);
        return 2;
      }
      telemetry::SetSearchDetail(detail);
    } else if (const char* v = arg_value("--cache-capacity")) {
      cache_capacity = static_cast<std::size_t>(std::atoll(v));
    } else if (const char* v = arg_value("--threads")) {
      threads = std::atoi(v);
    } else if (const char* v = arg_value("--isolation")) {
      if (!ParseIsolationMode(v, &isolation.mode)) {
        std::fprintf(stderr,
                     "cgra_batch: --isolation must be none, crashy_only or "
                     "all (got \"%s\")\n",
                     v);
        return 2;
      }
    } else if (const char* v = arg_value("--rlimit-cpu")) {
      isolation.limits.cpu_seconds = std::atol(v);
    } else if (const char* v = arg_value("--rlimit-mem")) {
      isolation.limits.memory_bytes = std::atol(v) * (1l << 20);
    } else if (const char* v = arg_value("--rlimit-stack")) {
      isolation.limits.stack_bytes = std::atol(v) * (1l << 20);
    } else if (std::strcmp(argv[i], "--no-cache") == 0) {
      use_cache = false;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s --manifest FILE [--out FILE] [--cache-dir DIR]\n"
                   "          [--cache-capacity N] [--no-cache] [--threads N]\n"
                   "          [--isolation none|crashy_only|all]\n"
                   "          [--rlimit-cpu SEC] [--rlimit-mem MB] "
                   "[--rlimit-stack MB]\n"
                   "          [--traces DIR] [--trace FILE]\n"
                   "          [--search-detail off|counters|full] [--quiet]\n",
                   argv[0]);
      return 2;
    }
  }
  if (manifest_path.empty()) {
    std::fprintf(stderr, "cgra_batch: --manifest is required\n");
    return 2;
  }
  if (!trace_path.empty()) telemetry::SetEnabled(true);
  // Stamp the build_info gauges so the report's aggregate.metrics (and
  // any /metrics-style dump of this process) identifies the schemas
  // this binary speaks.
  telemetry::RegisterBuildInfo(api::kSchemaVersion,
                               telemetry::SearchLog::kSchemaVersion);

  std::string manifest_text;
  {
    std::FILE* f = std::fopen(manifest_path.c_str(), "rb");
    if (!f) {
      std::fprintf(stderr, "cgra_batch: cannot open %s\n",
                   manifest_path.c_str());
      return 1;
    }
    char buf[1 << 14];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      manifest_text.append(buf, n);
    }
    std::fclose(f);
  }

  // One parser for the whole wire surface (src/api): v1 manifests
  // (no schema_version) are accepted via the documented shim; a parse
  // or structure failure — including an empty "jobs" array — is a
  // structured error with a code, not a silent nonzero exit.
  const Result<std::vector<api::MapRequest>> manifest =
      api::ParseManifestText(manifest_text);
  if (!manifest.ok()) {
    std::fprintf(stderr, "cgra_batch: %s: %s: %s\n", manifest_path.c_str(),
                 std::string(Error::CodeName(manifest.error().code)).c_str(),
                 manifest.error().message.c_str());
    return 1;
  }
  const std::vector<api::MapRequest>& specs = *manifest;

  std::optional<MappingCache> cache;
  if (use_cache) {
    MappingCacheOptions co;
    co.capacity = cache_capacity;
    co.disk_dir = cache_dir;
    cache.emplace(co);
  }

  // Shard the jobs across the pool. Each job is internally sequential
  // (engine race=false), so pool width == job-level parallelism; the
  // engine's SafeMap keeps a crashing mapper contained to its job.
  ThreadPool pool(threads > 0 ? static_cast<std::size_t>(threads) : 0);
  std::vector<api::MapResponse> results(specs.size());
  std::atomic<int> done{0};
  WallTimer total;
  pool.ParallelFor(specs.size(), [&](std::size_t i) {
    results[i] =
        RunJob(specs[i], cache ? &*cache : nullptr, traces_dir, isolation);
    const int d = done.fetch_add(1, std::memory_order_relaxed) + 1;
    if (!quiet) {
      const api::MapResponse& r = results[i];
      std::printf("[%3d/%3zu] %-24s %-10s %-12s %s ii=%-3d %7.1f ms%s\n", d,
                  specs.size(), specs[i].name.c_str(), specs[i].fabric.c_str(),
                  specs[i].kernel.c_str(), r.ok ? "ok  " : "FAIL", r.ii,
                  r.wall_seconds * 1e3, r.cache_hit ? "  [cache]" : "");
    }
  });
  const double wall = total.Seconds();

  int ok_jobs = 0, cache_hits = 0;
  double job_seconds_sum = 0;
  for (const api::MapResponse& r : results) {
    ok_jobs += r.ok ? 1 : 0;
    cache_hits += r.cache_hit ? 1 : 0;
    job_seconds_sum += r.wall_seconds;
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cgra_batch: cannot open %s\n", out_path.c_str());
    return 1;
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Int(1);
  w.Key("manifest").String(manifest_path);
  w.Key("jobs").BeginArray();
  for (const api::MapResponse& r : results) {
    w.Raw(api::ToJson(r));
  }
  w.EndArray();
  w.Key("aggregate").BeginObject();
  w.Key("jobs").Uint(specs.size());
  w.Key("ok").Int(ok_jobs);
  w.Key("failed").Uint(specs.size() - ok_jobs);
  w.Key("cache_hits").Int(cache_hits);
  w.Key("wall_seconds").Double(wall);
  w.Key("job_seconds_sum").Double(job_seconds_sum);
  w.Key("threads").Uint(pool.thread_count());
  if (cache) {
    w.Key("cache").Raw(cache->stats().ToJson());
  } else {
    w.Key("cache").Null();
  }
  // Process-wide metrics snapshot: attempt/cache/pool/batch counters
  // and histograms accumulated over the whole run.
  w.Key("metrics").Raw(telemetry::MetricsRegistry::Global().ToJson());
  w.EndObject();
  w.EndObject();
  const std::string report = w.Take();
  std::fwrite(report.data(), 1, report.size(), out);
  std::fputc('\n', out);
  std::fclose(out);

  if (!trace_path.empty()) {
    if (telemetry::WriteChromeTrace(trace_path)) {
      if (!quiet) std::printf("wrote %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "cgra_batch: cannot write trace %s\n",
                   trace_path.c_str());
    }
  }

  if (!quiet) {
    std::printf("%d/%zu ok, %d cache hit(s), %.2f s wall (%.2f s of work)\n",
                ok_jobs, specs.size(), cache_hits, wall, job_seconds_sum);
    if (cache) std::printf("cache: %s\n", cache->stats().ToJson().c_str());
  }
  std::printf("wrote %s\n", out_path.c_str());
  return ok_jobs == static_cast<int>(specs.size()) ? 0 : 1;
}
