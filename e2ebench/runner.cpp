// e2e_runner: the C++ half of the end-to-end benchmark (run.py is the
// other half). It drives the real mapping flow through each layer's
// public functions, exactly as tools/cgra_batch and tools/cgra_serve do:
//
//   api::ParseMapRequestText -> api::ValidateMapRequest
//   -> api::FabricByName / api::KernelByName (+ Architecture::WithFaults)
//   -> MrrgCache::Get (MRRG build) -> MappingEngine::Run
//   -> ValidateMapping -> CompileToContexts (+ Encode/DecodeConfig)
//   -> RunReference vs RunOnSimulator -> api::BuildMapResponse / ToJson
//
// and times the layers from outside: every call above sits inside a
// benchmark-side span ("bench.*"), and inside a mapper the public
// counters (MapTrace::Attempts(), TotalPerf()) are read. Nothing in
// src/ is instrumented for the benchmark's sake.
//
// Modes:
//   e2e_runner run --requests FILE [--workers N] [--min-seconds S]
//                  [--trace FILE] [--out FILE] [--setup-only]
//     Closed loop: N workers take the request lines (one MapRequest JSON
//     object per line) in order, cycling through the list, until S
//     seconds have elapsed and every line has run at least once. Every
//     job is validated, simulated and compared bit-exactly with the
//     reference interpreter, and its verdict and mapping digest are
//     compared with the same line's first run. With --trace, one
//     untraced cycle is followed by one traced cycle; the span rings are
//     drained after every job so none overflows, and the traced cycle is
//     written as a Chrome trace.
//     Prints "ready" on stdout once the first job can be issued.
//
//   e2e_runner load --port P --requests FILE --rate R [--threads N]
//                   --out FILE
//     Open-loop HTTP load against a running cgra_serve: request i is
//     due at i/R seconds; at most N client threads (each blocking on one
//     request) take the next due request, sleep until shortly before it
//     is due and spin to the due time. Latency is timed from the due
//     time, and the generator's own lateness (send time - due time) is
//     recorded per request.
//
// Both modes write one JSON document to --out; run.py turns it into
// metrics.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/request.hpp"
#include "api/response.hpp"
#include "arch/fault.hpp"
#include "arch/mrrg_cache.hpp"
#include "engine/engine.hpp"
#include "engine/trace.hpp"
#include "ir/interp.hpp"
#include "mappers/common.hpp"
#include "mappers/registry.hpp"
#include "mapping/validator.hpp"
#include "sim/compile.hpp"
#include "sim/harness.hpp"
#include "sim/simulator.hpp"
#include "support/http.hpp"
#include "support/json.hpp"
#include "support/timer.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/telemetry.hpp"

using namespace cgra;

namespace {

using Clock = std::chrono::steady_clock;

std::vector<std::string> ReadLines(const std::string& path, bool& ok) {
  std::ifstream in(path);
  ok = static_cast<bool>(in);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

/// Peak resident set of this process (VmHWM), in KiB.
long PeakRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return 0;
}

const char* ClassKey(TechniqueClass c) {
  switch (c) {
    case TechniqueClass::kHeuristic: return "heuristic";
    case TechniqueClass::kMetaPopulation: return "meta_pop";
    case TechniqueClass::kMetaLocalSearch: return "meta_local";
    case TechniqueClass::kExactIlp: return "exact_ilp";
    case TechniqueClass::kExactCsp: return "exact_csp";
  }
  return "unknown";
}

// ---- one job through the whole flow --------------------------------------

/// A run longer than deadline x grace is a deadline overrun.
constexpr double kDeadlineGrace = 1.5;

struct JobRecord {
  std::string name, mapper, mapper_class, fabric, kernel;
  int dead_cells = 0;
  /// "mapped" (validated and simulated bit-exact), "unmappable" (the
  /// engine found no mapping), "undeployable" (a valid mapping the code
  /// generator rejects, e.g. a value outliving a static register file)
  /// or "error".
  std::string verdict = "error";
  std::string detail;
  int ii = -1;
  int mii = 0;
  std::string digest;
  std::int64_t cycles = 0;
  std::int64_t config_bits = 0;
  double job_ms = 0;
  double engine_ms = 0;    ///< MappingEngine::Run wall
  double attempts_ms = 0;  ///< sum of MapTrace attempt seconds
  double map_ms = 0;       ///< sum of EngineAttempt (Map() call) seconds
  int attempts = 0;
  bool first_ii_ok = false;
  int mrrg_nodes = 0;
  std::int64_t solver_steps = 0;
  PerfCounters perf;
};

JobRecord RunJob(const std::string& line) {
  JobRecord rec;
  telemetry::Span job_span("bench.job");
  WallTimer job_timer;
  const auto finish = [&](std::string verdict, std::string detail) {
    rec.verdict = std::move(verdict);
    rec.detail = std::move(detail);
    rec.job_ms = job_timer.Millis();
    return rec;
  };

  Result<api::MapRequest> parsed = [&] {
    telemetry::Span s("bench.parse");
    return api::ParseMapRequestText(line);
  }();
  if (!parsed.ok()) return finish("error", "parse: " + parsed.error().message);
  const api::MapRequest request = *std::move(parsed);
  rec.name = request.name;
  rec.fabric = request.fabric;
  rec.kernel = request.kernel;
  rec.dead_cells = static_cast<int>(request.dead_cells.size());
  if (!request.mappers.empty()) {
    rec.mapper = request.mappers.front();
    if (const Mapper* m = MapperRegistry::Global().Find(rec.mapper)) {
      rec.mapper_class = ClassKey(m->technique());
    }
  }
  {
    telemetry::Span s("bench.validate_request");
    if (Status st = api::ValidateMapRequest(request); !st.ok()) {
      return finish("error", "validate request: " + st.error().message);
    }
  }

  std::optional<Architecture> arch = [&] {
    telemetry::Span s("bench.fabric");
    return api::FabricByName(request.fabric);
  }();
  const std::optional<Kernel> kernel = [&] {
    telemetry::Span s("bench.kernel");
    return api::KernelByName(request.kernel, request.iterations, request.seed);
  }();
  if (!arch || !kernel) return finish("error", "unknown fabric or kernel");
  if (!request.dead_cells.empty()) {
    telemetry::Span s("bench.with_faults");
    FaultModel fm;
    for (const int c : request.dead_cells) fm.KillCell(c);
    if (Status st = fm.Validate(*arch); !st.ok()) {
      return finish("error", "fault model: " + st.error().message);
    }
    arch = arch->WithFaults(fm);
  }

  MrrgCache mrrg_cache;
  {
    telemetry::Span s("bench.mrrg_build");
    rec.mrrg_nodes = mrrg_cache.Get(*arch)->num_nodes();
  }
  rec.mii = ComputeMii(kernel->dfg, *arch, request.max_ii).mii();

  // The same engine configuration as cgra_batch: a deterministic
  // sequential sweep, so a job's digest is a pure function of its
  // request.
  MapTrace trace;
  EngineOptions eo;
  eo.race = false;
  eo.deadline = Deadline::AfterSeconds(request.deadline_seconds);
  eo.seed = request.seed;
  eo.min_ii = request.min_ii;
  eo.max_ii = request.max_ii;
  eo.extra_slack = request.extra_slack;
  eo.observer = &trace;
  eo.mrrg_cache = &mrrg_cache;
  WallTimer engine_timer;
  const Result<EngineResult> result = [&] {
    telemetry::Span s("bench.engine");
    return MappingEngine(eo).Run(kernel->dfg, *arch, request.mappers);
  }();
  rec.engine_ms = engine_timer.Millis();

  const std::vector<MapTrace::Attempt> attempts = trace.Attempts();
  rec.attempts = static_cast<int>(attempts.size());
  rec.first_ii_ok = !attempts.empty() && attempts.front().ok;
  for (const MapTrace::Attempt& a : attempts) {
    rec.attempts_ms += a.seconds * 1e3;
    if (a.solver_steps > 0) rec.solver_steps += a.solver_steps;
  }
  rec.perf = trace.TotalPerf();
  if (result.ok()) {
    for (const EngineAttempt& a : result->attempts) {
      rec.map_ms += a.seconds * 1e3;
    }
  }

  const api::MapResponse response = [&] {
    telemetry::Span s("bench.build_response");
    return api::BuildMapResponse(request, result, job_timer.Seconds());
  }();
  {
    telemetry::Span s("bench.serialize");
    const std::string body = api::ToJson(response);
    if (body.empty()) return finish("error", "empty response body");
  }

  // A mapper that gives up within its budget is an answer; one that runs
  // past its deadline (plus a grace) broke the engine's contract.
  if (rec.engine_ms > request.deadline_seconds * 1e3 * kDeadlineGrace) {
    return finish("error", "overran the deadline");
  }
  if (!result.ok()) {
    const Error& e = result.error();
    const std::string what =
        std::string(Error::CodeName(e.code)) + ": " + e.message;
    if (e.code == Error::Code::kUnmappable ||
        e.code == Error::Code::kResourceLimit) {
      return finish("unmappable", what);
    }
    return finish("error", what);
  }
  const Mapping& mapping = result->mapping;
  rec.ii = mapping.ii;
  rec.digest = MappingDigestHex(mapping);
  if (response.mapping_digest != rec.digest) {
    return finish("error", "response digest differs from the mapping's");
  }
  {
    telemetry::Span s("bench.validate_mapping");
    if (Status st = ValidateMapping(kernel->dfg, *arch, mapping); !st.ok()) {
      return finish("error", "invalid mapping: " + st.error().message);
    }
  }

  Result<ConfigImage> decoded = Error::Internal("not compiled");
  {
    telemetry::Span s("bench.compile");
    Result<ConfigImage> image = CompileToContexts(kernel->dfg, *arch, mapping);
    if (!image.ok()) {
      if (image.error().code == Error::Code::kUnmappable) {
        return finish("undeployable", image.error().message);
      }
      return finish("error", "codegen: " + image.error().message);
    }
    const std::vector<std::uint8_t> bits = EncodeConfig(*arch, *image);
    rec.config_bits = static_cast<std::int64_t>(bits.size()) * 8;
    decoded = DecodeConfig(*arch, bits);
    if (!decoded.ok() || !(*decoded == *image)) {
      return finish("error", "bitstream did not round-trip");
    }
  }
  const Result<ExecResult> ref = [&] {
    telemetry::Span s("bench.reference");
    return RunReference(kernel->dfg, kernel->input);
  }();
  SimStats stats;
  const Result<ExecResult> sim = [&] {
    telemetry::Span s("bench.simulate");
    return RunOnSimulator(*arch, *decoded, kernel->input, &stats);
  }();
  if (!ref.ok()) return finish("error", "reference: " + ref.error().message);
  if (!sim.ok()) return finish("error", "simulator: " + sim.error().message);
  if (!SameObservableState(*ref, *sim)) {
    return finish("error", "simulation miscompares with the reference");
  }
  rec.cycles = stats.cycles;
  return finish("mapped", "");
}

void WriteRecord(JsonWriter& w, const JobRecord& r) {
  w.BeginObject();
  w.Key("name").String(r.name);
  w.Key("mapper").String(r.mapper);
  w.Key("class").String(r.mapper_class);
  w.Key("fabric").String(r.fabric);
  w.Key("kernel").String(r.kernel);
  w.Key("dead_cells").Int(r.dead_cells);
  w.Key("verdict").String(r.verdict);
  w.Key("detail").String(r.detail);
  w.Key("ii").Int(r.ii);
  w.Key("mii").Int(r.mii);
  w.Key("digest").String(r.digest);
  w.Key("cycles").Int(r.cycles);
  w.Key("config_bits").Int(r.config_bits);
  w.Key("job_ms").Double(r.job_ms);
  w.Key("engine_ms").Double(r.engine_ms);
  w.Key("attempts_ms").Double(r.attempts_ms);
  w.Key("map_ms").Double(r.map_ms);
  w.Key("attempts").Int(r.attempts);
  w.Key("first_ii_ok").Bool(r.first_ii_ok);
  w.Key("mrrg_nodes").Int(r.mrrg_nodes);
  w.Key("solver_steps").Int(r.solver_steps);
  w.Key("perf").BeginObject();
  w.Key("router_queries").Uint(r.perf.router_queries);
  w.Key("router_routed").Uint(r.perf.router_routed);
  w.Key("router_pushes").Uint(r.perf.router_pushes);
  w.Key("router_expansions").Uint(r.perf.router_expansions);
  w.Key("fanout_batches").Uint(r.perf.fanout_batches);
  w.Key("tracker_checks").Uint(r.perf.tracker_checks);
  w.Key("tracker_check_hits").Uint(r.perf.tracker_check_hits);
  w.EndObject();
  w.EndObject();
}

// ---- run mode --------------------------------------------------------------

struct Completed {
  std::size_t position = 0;  ///< stream position; the job is lines[position % n]
  double end_s = 0;          ///< completion time since the segment started
  JobRecord record;
};

struct Segment {
  bool traced = false;
  double stop_s = 0;  ///< when the workers stopped taking new jobs
  double wall_s = 0;  ///< until the last job finished
  std::vector<Completed> jobs;  ///< in completion order
};

/// Closed loop: `workers` threads take the request lines in order,
/// cycling through the list, until at least one whole cycle has been
/// taken and `min_seconds` have elapsed; jobs in flight then finish.
/// When `traced`, the span rings are drained into `spans` after every
/// job so none overflows.
Segment RunSegment(const std::vector<std::string>& lines, int workers,
                   double min_seconds, bool traced,
                   std::vector<telemetry::SpanRecord>* spans) {
  Segment seg;
  seg.traced = traced;
  std::atomic<std::size_t> next{0};
  std::mutex mu;  // guards seg.jobs, seg.stop_s and *spans
  WallTimer wall;
  const auto work = [&] {
    for (;;) {
      const std::size_t position = next.fetch_add(1);
      if (position >= lines.size() && wall.Seconds() >= min_seconds) {
        const std::lock_guard<std::mutex> lock(mu);
        if (seg.stop_s == 0) seg.stop_s = wall.Seconds();
        return;
      }
      JobRecord record = RunJob(lines[position % lines.size()]);
      const double end_s = wall.Seconds();
      std::vector<telemetry::SpanRecord> drained;
      if (traced) drained = telemetry::TraceSink::Global().Drain();
      const std::lock_guard<std::mutex> lock(mu);
      seg.jobs.push_back({position, end_s, std::move(record)});
      if (traced) spans->insert(spans->end(), drained.begin(), drained.end());
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < workers; ++t) threads.emplace_back(work);
  for (std::thread& t : threads) t.join();
  seg.wall_s = wall.Seconds();
  return seg;
}

int RunMode(const std::string& requests_path, int workers, double min_seconds,
            const std::string& trace_path, const std::string& out_path,
            bool setup_only) {
  bool ok = false;
  const std::vector<std::string> lines = ReadLines(requests_path, ok);
  if (!ok || lines.empty()) {
    std::fprintf(stderr, "e2e_runner: no requests in %s\n",
                 requests_path.c_str());
    return 2;
  }
  // Lazy process-wide state the first job would otherwise build.
  (void)MapperRegistry::Global();
  std::printf("ready\n");
  std::fflush(stdout);
  if (setup_only) return 0;

  std::vector<Segment> segments;
  std::vector<telemetry::SpanRecord> spans;
  if (trace_path.empty()) {
    segments.push_back(RunSegment(lines, workers, min_seconds, false, nullptr));
  } else {
    // One untraced and one traced cycle over the same requests.
    segments.push_back(RunSegment(lines, workers, 0, false, nullptr));
    telemetry::TraceSink::Global().Clear();
    telemetry::SetEnabled(true);
    segments.push_back(RunSegment(lines, workers, 0, true, &spans));
    telemetry::SetEnabled(false);
    std::vector<telemetry::SpanRecord> rest =
        telemetry::TraceSink::Global().Drain();
    spans.insert(spans.end(), rest.begin(), rest.end());
  }
  const std::uint64_t dropped = telemetry::TraceSink::Global().dropped();
  if (!trace_path.empty() &&
      !WriteFile(trace_path,
                 telemetry::ChromeTraceJson(
                     spans, dropped,
                     telemetry::TraceSink::Global().wall_anchor_micros()))) {
    std::fprintf(stderr, "e2e_runner: cannot write %s\n", trace_path.c_str());
    return 1;
  }

  // Records of a segment's first cycle, by request line.
  const auto first_cycle = [&](const Segment& seg) {
    std::vector<const JobRecord*> out(lines.size(), nullptr);
    for (const Completed& c : seg.jobs) {
      if (c.position < lines.size()) out[c.position] = &c.record;
    }
    return out;
  };
  const std::vector<const JobRecord*> reference = first_cycle(segments.front());

  // Correctness gate within the run: every job's verdict and digest
  // equal those of the same request line's first run.
  int mismatches = 0;
  JsonWriter w;
  w.BeginObject();
  w.Key("workers").Int(workers);
  w.Key("dropped_spans").Uint(dropped);
  w.Key("peak_rss_kb").Int(PeakRssKb());
  w.Key("segments").BeginArray();
  for (const Segment& seg : segments) {
    w.BeginObject();
    w.Key("traced").Bool(seg.traced);
    w.Key("stop_s").Double(seg.stop_s);
    w.Key("wall_s").Double(seg.wall_s);
    w.Key("job_ms").BeginArray();
    for (const Completed& c : seg.jobs) w.Double(c.record.job_ms);
    w.EndArray();
    w.Key("end_s").BeginArray();
    for (const Completed& c : seg.jobs) w.Double(c.end_s);
    w.EndArray();
    w.Key("errors").BeginArray();
    for (const Completed& c : seg.jobs) {
      const JobRecord& r = c.record;
      const JobRecord& first = *reference[c.position % lines.size()];
      std::string what;
      if (r.verdict == "error") {
        what = r.detail;
      } else if (r.verdict != first.verdict || r.digest != first.digest) {
        what = r.verdict + " " + r.digest + " but first " + first.verdict +
               " " + first.digest;
        ++mismatches;
      }
      if (what.empty()) continue;
      w.BeginObject();
      w.Key("name").String(r.name);
      w.Key("what").String(what);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.Key("digest_mismatches").Int(mismatches);
  // The first-cycle records of the last segment (the traced one in
  // trace mode), in request-line order.
  w.Key("jobs").BeginArray();
  for (const JobRecord* r : first_cycle(segments.back())) WriteRecord(w, *r);
  w.EndArray();
  w.EndObject();
  if (!WriteFile(out_path, w.Take())) {
    std::fprintf(stderr, "e2e_runner: cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}

// ---- load mode -------------------------------------------------------------

struct Sample {
  double due_ms = 0;       ///< schedule offset of the request
  double lateness_ms = 0;  ///< send time - due time
  double latency_ms = 0;   ///< completion - due time
  double client_ms = 0;    ///< completion - send time
  int status = -1;         ///< HTTP status; -1 = dropped connection
  std::string body;
  std::string error;
};

/// How long before its due time a client thread stops sleeping.
constexpr std::chrono::microseconds kSpin{200};

int LoadMode(int port, const std::string& requests_path, double rate,
             int threads, const std::string& out_path) {
  bool ok = false;
  const std::vector<std::string> bodies = ReadLines(requests_path, ok);
  if (!ok || bodies.empty() || rate <= 0 || threads < 1) {
    std::fprintf(stderr, "e2e_runner: bad load arguments\n");
    return 2;
  }
  std::vector<Sample> samples(bodies.size());
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto ms_since = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  const auto work = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < bodies.size();) {
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(static_cast<double>(i) / rate));
      // Sleep to just before the due time, then spin: a timer wake-up
      // on a shared machine can be late by more than a request takes.
      std::this_thread::sleep_until(due - kSpin);
      while (Clock::now() < due) {
      }
      const Clock::time_point sent = Clock::now();
      Result<HttpResponse> r =
          HttpFetch("127.0.0.1", port, "POST", "/v1/map", bodies[i], 30.0);
      const Clock::time_point done = Clock::now();
      Sample& s = samples[i];
      s.due_ms = ms_since(t0, due);
      s.lateness_ms = ms_since(due, sent);
      s.latency_ms = ms_since(due, done);
      s.client_ms = ms_since(sent, done);
      if (r.ok()) {
        s.status = r->status;
        s.body = std::move(r->body);
      } else {
        s.error = r.error().message;
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();

  JsonWriter w;
  w.BeginObject();
  w.Key("rate").Double(rate);
  w.Key("threads").Int(threads);
  w.Key("requests").BeginArray();
  for (const Sample& s : samples) {
    w.BeginObject();
    w.Key("due_ms").Double(s.due_ms);
    w.Key("lateness_ms").Double(s.lateness_ms);
    w.Key("latency_ms").Double(s.latency_ms);
    w.Key("client_ms").Double(s.client_ms);
    w.Key("status").Int(s.status);
    if (!s.error.empty()) w.Key("error").String(s.error);
    if (s.status >= 0) {
      const Result<api::MapResponse> resp = api::ParseMapResponseText(s.body);
      if (resp.ok()) {
        w.Key("ok").Bool(resp->ok);
        w.Key("ii").Int(resp->ii);
        w.Key("digest").String(resp->mapping_digest);
        w.Key("cache_hit").Bool(resp->cache_hit);
        w.Key("wall_ms").Double(resp->wall_seconds * 1e3);
      } else {
        w.Key("error").String("unparseable response: " +
                              resp.error().message);
      }
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  if (!WriteFile(out_path, w.Take())) {
    std::fprintf(stderr, "e2e_runner: cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s run --requests FILE [--workers N] [--min-seconds S]\n"
               "                [--trace FILE] [--out FILE] [--setup-only]\n"
               "       %s load --port P --requests FILE --rate R "
               "[--threads N] --out FILE\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  const std::string mode = argv[1];
  std::string requests, trace, out = "e2e_out.json";
  int workers = 1, threads = 1, port = 0;
  double min_seconds = 0, rate = 0;
  bool setup_only = false;
  for (int i = 2; i < argc; ++i) {
    const auto value = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (const char* v = value("--requests")) {
      requests = v;
    } else if (const char* v = value("--workers")) {
      workers = std::max(1, std::atoi(v));
    } else if (const char* v = value("--min-seconds")) {
      min_seconds = std::atof(v);
    } else if (const char* v = value("--trace")) {
      trace = v;
    } else if (const char* v = value("--out")) {
      out = v;
    } else if (const char* v = value("--port")) {
      port = std::atoi(v);
    } else if (const char* v = value("--rate")) {
      rate = std::atof(v);
    } else if (const char* v = value("--threads")) {
      threads = std::max(1, std::atoi(v));
    } else if (std::strcmp(argv[i], "--setup-only") == 0) {
      setup_only = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (requests.empty()) return Usage(argv[0]);
  if (mode == "run") {
    return RunMode(requests, workers, min_seconds, trace, out, setup_only);
  }
  if (mode == "load" && port > 0) {
    return LoadMode(port, requests, rate, threads, out);
  }
  return Usage(argv[0]);
}
