// perf_suite: the machine-readable performance benchmark behind
// docs/PERF.md.
//
// Two sections, emitted together as BENCH_perf.json:
//   * router_micro — the deterministic route-query stream the flat
//     arena rewrite was measured against (plain Dijkstra and the A*
//     variant), with route-stream digests so a speedup can never be
//     bought with silently different routes;
//   * mapper_suite — representative mappers end to end (greedy
//     placement, DRESC-style annealing [22], edge-centric EMS [37],
//     iterative modulo scheduling IMS, EPIMap-style embedding [28],
//     annealed binding [49] and annealed spatial placement [33]) over
//     the tiny kernel suite on
//     4x4 -> 16x16 fabrics, with per-II-attempt wall time and the
//     router/tracker counters the attempt burned (MapTrace::Attempt).
//     A row's wall time is the fastest of three Map() calls.
//
// `perf_suite --small` runs a reduced preset sized for CI (seconds,
// not minutes); `--out FILE` redirects the JSON (default
// BENCH_perf.json in the working directory). The JSON schema is
// documented in docs/PERF.md and validated by scripts/check_perf_json.py.
#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "arch/arch.hpp"
#include "arch/mrrg.hpp"
#include "engine/trace.hpp"
#include "ir/kernels.hpp"
#include "mappers/registry.hpp"
#include "mapping/mapping.hpp"
#include "mapping/perf.hpp"
#include "mapping/router.hpp"
#include "mapping/tracker.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"
#include "support/timer.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/telemetry.hpp"

using namespace cgra;

namespace {

// ---- digests ----------------------------------------------------------------
// FNV-1a 64-bit. MUST stay in sync with the copy in
// tests/test_router_golden.cpp: the golden tests pin the same streams.

std::uint64_t HashU64(std::uint64_t h, std::uint64_t x) {
  h ^= x;
  h *= 1099511628211ull;
  return h;
}

std::uint64_t RouteDigest(const Route& r) {
  std::uint64_t h = 1469598103934665603ull;
  h = HashU64(h, static_cast<std::uint64_t>(r.steps.size()));
  for (const RouteStep& s : r.steps) {
    h = HashU64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(s.node)));
    h = HashU64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(s.time)));
  }
  return h;
}

std::uint64_t MappingDigest(const Mapping& m) {
  std::uint64_t h = 1469598103934665603ull;
  h = HashU64(h, static_cast<std::uint64_t>(m.ii));
  h = HashU64(h, static_cast<std::uint64_t>(m.length));
  for (const Placement& p : m.place) {
    h = HashU64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(p.cell)));
    h = HashU64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(p.time)));
  }
  for (const Route& r : m.routes) {
    h = HashU64(h, static_cast<std::uint64_t>(r.steps.size()));
    for (const RouteStep& s : r.steps) {
      h = HashU64(h,
                  static_cast<std::uint64_t>(static_cast<std::int64_t>(s.node)));
      h = HashU64(h,
                  static_cast<std::uint64_t>(static_cast<std::int64_t>(s.time)));
    }
  }
  return h;
}

std::string Hex(std::uint64_t x) {
  return StrFormat("%016llx", static_cast<unsigned long long>(x));
}

std::string PerfJson(const PerfCounters& p, double seconds) {
  const double hit_rate =
      p.tracker_checks ? static_cast<double>(p.tracker_check_hits) /
                             static_cast<double>(p.tracker_checks)
                       : 0.0;
  const double qps =
      seconds > 0 ? static_cast<double>(p.router_queries) / seconds : 0.0;
  JsonWriter w;
  w.BeginObject();
  WritePerfCounters(w, p);
  w.Key("router_queries_per_sec").Double(qps);
  w.Key("tracker_hit_rate").Double(hit_rate);
  w.EndObject();
  return w.Take();
}

// ---- router microbenchmark --------------------------------------------------
// The deterministic query stream. MUST stay in sync with the copy in
// tests/test_router_golden.cpp (which pins its digests as goldens).

struct MicroResult {
  long long queries = 0;
  long long routed = 0;
  double seconds = 0;
  std::uint64_t digest = 1469598103934665603ull;
  PerfCounters perf;
};

MicroResult RouterMicro(const Architecture& arch, int ii, int rounds,
                        bool ignore_capacity, bool use_heuristic) {
  const Mrrg mrrg(arch);
  ResourceTracker tracker(mrrg, ii);
  Rng rng(0xC0FFEEull + static_cast<unsigned>(ii));
  RouterOptions opts;
  opts.ignore_capacity = ignore_capacity;
  opts.use_heuristic = use_heuristic;
  MicroResult out;
  std::vector<std::pair<Route, ValueId>> held;
  const PerfCounters before = ThreadPerfCounters();
  WallTimer timer;
  for (int r = 0; r < rounds; ++r) {
    if ((r & 63) == 0 && !ignore_capacity) {
      tracker.Reset();
      held.clear();
    }
    RouteRequest req;
    req.from_cell =
        static_cast<int>(rng.NextIndex(static_cast<size_t>(arch.num_cells())));
    req.to_cell =
        static_cast<int>(rng.NextIndex(static_cast<size_t>(arch.num_cells())));
    req.from_time = static_cast<int>(rng.NextIndex(static_cast<size_t>(ii)));
    const int hops = arch.HopDistance(req.from_cell, req.to_cell);
    req.to_time =
        req.from_time + 1 + hops + static_cast<int>(rng.NextIndex(4));
    req.value = static_cast<ValueId>(r & 1023);
    ++out.queries;
    auto route = RouteValue(mrrg, tracker, req, opts);
    if (route.ok()) {
      ++out.routed;
      out.digest = HashU64(out.digest, RouteDigest(*route));
      if (!ignore_capacity) {
        if (rng.NextBool(0.5)) {
          held.emplace_back(std::move(route).value(), req.value);
        } else {
          ReleaseRoute(tracker, *route, req.value);
        }
      }
    }
  }
  out.seconds = timer.Seconds();
  out.perf = ThreadPerfCounters() - before;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  std::string out_path = "BENCH_perf.json";
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--small] [--out FILE] [--trace FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  // Off by default: the perf gate measures the un-instrumented hot
  // path (disabled telemetry = one relaxed load per span site).
  if (!trace_path.empty()) telemetry::SetEnabled(true);
  const int div = small ? 8 : 1;  // small preset: 1/8 of the query rounds

  std::vector<std::string> micro_rows;
  {
    struct Scenario {
      const char* name;
      Architecture arch;
      int ii;
      int rounds;
      bool blind;
    };
    const Scenario scenarios[] = {
        {"adres4x4_ii2", Architecture::Adres4x4(), 2, 40000 / div, false},
        {"adres4x4_ii4", Architecture::Adres4x4(), 4, 40000 / div, false},
        {"big8x8_ii2", Architecture::Big8x8(), 2, 20000 / div, false},
        {"big8x8_ii4", Architecture::Big8x8(), 4, 20000 / div, false},
        {"mega16x16_ii2", Architecture::Mega16x16(), 2, 4000 / div, false},
        {"mega16x16_ii4", Architecture::Mega16x16(), 4, 4000 / div, false},
        {"adres4x4_ii4_blind", Architecture::Adres4x4(), 4, 20000 / div, true},
    };
    std::printf("== router micro (%s preset) ==\n", small ? "small" : "full");
    for (const Scenario& s : scenarios) {
      for (const bool heuristic : {false, true}) {
        // Warm once, measure the second run for stability.
        RouterMicro(s.arch, s.ii, s.rounds, s.blind, heuristic);
        const MicroResult r =
            RouterMicro(s.arch, s.ii, s.rounds, s.blind, heuristic);
        const double qps = r.queries / r.seconds;
        std::printf("%-22s %-8s queries=%lld routed=%lld qps=%.0f digest=%s\n",
                    s.name, heuristic ? "astar" : "dijkstra", r.queries,
                    r.routed, qps, Hex(r.digest).c_str());
        micro_rows.push_back(StrFormat(
            "{\"scenario\":\"%s\",\"heuristic\":%s,"
            "\"queries\":%lld,\"routed\":%lld,"
            "\"seconds\":%.6f,\"queries_per_sec\":%.1f,"
            "\"route_digest\":\"%s\",\"counters\":%s}",
            s.name, heuristic ? "true" : "false", r.queries, r.routed,
            r.seconds, qps, Hex(r.digest).c_str(),
            PerfJson(r.perf, r.seconds).c_str()));
      }
    }
  }

  std::vector<std::string> suite_rows;
  bool nondeterministic = false;
  {
    struct Fabric {
      const char* name;
      Architecture arch;
    };
    std::vector<Fabric> fabrics = {
        {"adres4x4", Architecture::Adres4x4()},
        {"big8x8", Architecture::Big8x8()},
    };
    if (!small) fabrics.push_back({"mega16x16", Architecture::Mega16x16()});
    const char* mapper_names[] = {"greedy-spatial", "dresc-sa", "ems",
                                  "ims",            "epimap",   "spr-sa",
                                  "sa-spatial",     "qea-bind", "ga-spatial"};
    const auto kernels = TinyKernelSuite();
    std::printf("== mapper suite ==\n");
    for (const Fabric& f : fabrics) {
      for (const char* mn : mapper_names) {
        const Mapper* mapper = MapperRegistry::Global().Find(mn);
        if (!mapper) {
          std::fprintf(stderr, "mapper %s missing from registry\n", mn);
          return 1;
        }
        for (const Kernel& k : kernels) {
          // Map() only (no codegen/sim): the suite measures the mapping
          // subsystem this file exists to track — placement + routing.
          auto map_once = [&](MapTrace& trace, double& seconds) {
            MapperOptions options;
            options.seed = 42;
            options.deadline = Deadline::AfterSeconds(small ? 5 : 30);
            options.observer = &trace;
            WallTimer timer;
            auto result = mapper->Map(k.dfg, f.arch, options);
            seconds = timer.Seconds();
            return result;
          };
          // The row's wall time is the fastest of kRuns calls: the first
          // warms code pages and caches, as router_micro's warm-up run
          // does. Counters and attempts come from the first call, and a
          // row whose calls disagree on the mapping fails.
          constexpr int kRuns = 3;
          MapTrace trace;
          double seconds = 0;
          const auto r = map_once(trace, seconds);
          const std::string digest =
              r.ok() ? Hex(MappingDigest(*r)) : std::string();
          bool repeatable = true;
          for (int run = 1; run < kRuns; ++run) {
            MapTrace again_trace;
            double again_seconds = 0;
            const auto again = map_once(again_trace, again_seconds);
            seconds = std::min(seconds, again_seconds);
            const std::string again_digest =
                again.ok() ? Hex(MappingDigest(*again)) : std::string();
            repeatable = repeatable && again.ok() == r.ok() &&
                         again_digest == digest;
          }
          if (!repeatable) {
            std::fprintf(stderr, "%s/%s/%s: mapping differs across calls\n",
                         f.name, mn, k.name.c_str());
            nondeterministic = true;
          }
          const bool ok = r.ok() && repeatable;
          std::string attempts_json;
          for (const MapTrace::Attempt& a : trace.Attempts()) {
            if (!attempts_json.empty()) attempts_json += ",";
            attempts_json += StrFormat(
                "{\"ii\":%d,\"ok\":%s,\"seconds\":%.6f,\"perf\":%s}", a.ii,
                a.ok ? "true" : "false", a.seconds,
                PerfJson(a.perf, a.seconds).c_str());
          }
          const PerfCounters total = trace.TotalPerf();
          std::printf("%-10s %-14s %-12s %s ii=%s %.1f ms\n", f.name, mn,
                      k.name.c_str(), ok ? "ok  " : "FAIL",
                      r.ok() ? StrFormat("%d", r->ii).c_str() : "-",
                      seconds * 1e3);
          suite_rows.push_back(StrFormat(
              "{\"fabric\":\"%s\",\"mapper\":\"%s\",\"kernel\":\"%s\","
              "\"ok\":%s,\"ii\":%d,\"wall_seconds\":%.6f,"
              "\"mapping_digest\":\"%s\","
              "\"attempts\":[%s],\"totals\":%s}",
              f.name, mn, k.name.c_str(), ok ? "true" : "false",
              r.ok() ? r->ii : -1, seconds, digest.c_str(),
              attempts_json.c_str(), PerfJson(total, seconds).c_str()));
        }
      }
    }
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"schema_version\": 3,\n  \"preset\": \"%s\",\n",
               small ? "small" : "full");
  std::fprintf(out, "  \"router_micro\": [\n");
  for (size_t i = 0; i < micro_rows.size(); ++i) {
    std::fprintf(out, "    %s%s\n", micro_rows[i].c_str(),
                 i + 1 < micro_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"mapper_suite\": [\n");
  for (size_t i = 0; i < suite_rows.size(); ++i) {
    std::fprintf(out, "    %s%s\n", suite_rows[i].c_str(),
                 i + 1 < suite_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  if (!trace_path.empty()) {
    if (telemetry::WriteChromeTrace(trace_path)) {
      std::printf("wrote %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "perf_suite: cannot write trace %s\n",
                   trace_path.c_str());
    }
  }
  return nondeterministic ? 1 : 0;
}
