// Tests for search introspection (telemetry/search_log.hpp): JSON
// round-trip and schema-version skew, determinism of the collected
// logs across identical runs, the "collection never perturbs the
// mapping" digest contract, the runtime detail gate, the placer's
// route accounting, the sandbox wire-frame carriage, and the /v1/stats
// sliding window.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "api/stats_window.hpp"
#include "arch/arch.hpp"
#include "engine/engine.hpp"
#include "engine/sandbox.hpp"
#include "engine/trace.hpp"
#include "ir/kernels.hpp"
#include "mappers/registry.hpp"
#include "mapping/mapping.hpp"
#include "mapping/place_route.hpp"
#include "telemetry/search_log.hpp"

namespace cgra {
namespace {

using telemetry::ScopedSearchLog;
using telemetry::SearchDetail;
using telemetry::SearchLog;

Architecture Adres4x4() {
  ArchParams p;
  p.rows = p.cols = 4;
  p.name = "adres4x4";
  return Architecture(p);
}

TEST(SearchDetailNames, RoundTrip) {
  for (const SearchDetail d :
       {SearchDetail::kOff, SearchDetail::kCounters, SearchDetail::kFull}) {
    SearchDetail parsed;
    ASSERT_TRUE(telemetry::ParseSearchDetail(telemetry::SearchDetailName(d),
                                             &parsed));
    EXPECT_EQ(parsed, d);
  }
  SearchDetail ignored;
  EXPECT_FALSE(telemetry::ParseSearchDetail("verbose", &ignored));
}

TEST(SearchLogJson, RecordHelpersAreSafeWithoutCollector) {
  // No ScopedSearchLog installed: every helper must be a no-op, not a
  // crash — this is the permanent state of un-introspected runs.
  telemetry::SearchRecordGrid(4, 4);
  telemetry::SearchRecordPlaceAccept();
  telemetry::SearchRecordPlaceReject(2);
  telemetry::SearchRecordEviction();
  telemetry::SearchRecordRouteResult(false);
  telemetry::SearchRecordCellRouted(3);
  telemetry::SearchRecordCellCongested(3);
  telemetry::SearchRecordSolverSample(1, 2, 3);
  telemetry::SearchRecordObjective(4.0, 5);
  telemetry::SearchRecordCost(6, 7.0);
  EXPECT_EQ(telemetry::ActiveSearchLog(), nullptr);
}

SearchLog PopulatedLog() {
  SearchLog log;
  {
    ScopedSearchLog scoped(&log);
    telemetry::SearchRecordGrid(2, 3);
    for (int i = 0; i < 5; ++i) telemetry::SearchRecordPlaceAccept();
    telemetry::SearchRecordPlaceReject(2);  // kFuBusy
    telemetry::SearchRecordPlaceReject(5);  // kRouteCongested
    telemetry::SearchRecordEviction();
    telemetry::SearchRecordRouteResult(true);
    telemetry::SearchRecordRouteResult(false);
    telemetry::SearchRecordCellRouted(0);
    telemetry::SearchRecordCellRouted(4);
    telemetry::SearchRecordCellRouted(-1);  // shared RF, no cell
    telemetry::SearchRecordCellCongested(4);
    telemetry::SearchRecordSolverSample(100, 10, 1);
    telemetry::SearchRecordSolverSample(200, 25, 2);
    telemetry::SearchRecordObjective(7.5, 123);
    for (int i = 0; i < 10; ++i) {
      telemetry::SearchRecordCost(i, 100.0 - i);
    }
  }
  return log;
}

TEST(SearchLogJson, RoundTripPreservesEveryField) {
  const SearchLog log = PopulatedLog();
  ASSERT_TRUE(log.Any());
  const std::string json = log.ToJson();

  SearchLog back;
  std::string error;
  ASSERT_TRUE(SearchLog::FromJson(json, &back, &error)) << error;

  EXPECT_EQ(back.place_accepts, log.place_accepts);
  EXPECT_EQ(back.place_rejects, log.place_rejects);
  EXPECT_EQ(back.place_evictions, log.place_evictions);
  for (int i = 0; i < SearchLog::kNumRejectReasons; ++i) {
    EXPECT_EQ(back.reject_reasons[i], log.reject_reasons[i]) << i;
  }
  EXPECT_EQ(back.route_attempts, log.route_attempts);
  EXPECT_EQ(back.route_failures, log.route_failures);
  EXPECT_EQ(back.route_steps, log.route_steps);
  EXPECT_EQ(back.shared_route_steps, log.shared_route_steps);
  EXPECT_EQ(back.rows, log.rows);
  EXPECT_EQ(back.cols, log.cols);
  EXPECT_EQ(back.cell_routed, log.cell_routed);
  EXPECT_EQ(back.cell_congested, log.cell_congested);
  EXPECT_EQ(back.solver, log.solver);
  EXPECT_EQ(back.has_objective, log.has_objective);
  EXPECT_EQ(back.objective, log.objective);
  EXPECT_EQ(back.objective_nodes, log.objective_nodes);
  EXPECT_EQ(back.curve, log.curve);

  // Re-serialising the parsed log reproduces the original bytes (the
  // determinism the heatmap CI check leans on).
  EXPECT_EQ(back.ToJson(), json);
}

TEST(SearchLogJson, VersionSkewIsAStructuredFailure) {
  SearchLog out;
  std::string error;
  EXPECT_FALSE(SearchLog::FromJson(R"({"v":99})", &out, &error));
  EXPECT_NE(error.find("99"), std::string::npos) << error;
  EXPECT_NE(error.find("version"), std::string::npos) << error;

  // Absent "v" means version 1 — the empty object parses clean.
  error.clear();
  EXPECT_TRUE(SearchLog::FromJson("{}", &out, &error)) << error;
  EXPECT_FALSE(out.Any());

  EXPECT_FALSE(SearchLog::FromJson("not json", &out, &error));
  EXPECT_FALSE(SearchLog::FromJson("[1,2]", &out, &error));
}

TEST(SearchLogJson, MalformedFabricArrayIsRejected) {
  SearchLog out;
  std::string error;
  // rows*cols disagrees with the array length: must not be silently
  // truncated or zero-padded into a plausible-looking heatmap.
  EXPECT_FALSE(SearchLog::FromJson(
      R"({"v":1,"fabric":{"rows":2,"cols":2,"routed":[1,2,3],"congested":[0,0,0,0]}})",
      &out, &error));
  EXPECT_NE(error.find("fabric"), std::string::npos) << error;
}

TEST(SearchLogJson, CurveDecimationIsBoundedAndDeterministic) {
  SearchLog a, b;
  for (const auto* log : {&a, &b}) {
    ScopedSearchLog scoped(const_cast<SearchLog*>(log));
    for (int i = 0; i < 100000; ++i) {
      telemetry::SearchRecordCost(i, 1.0 / (1 + i));
    }
  }
  EXPECT_LE(a.curve.size(), SearchLog::kMaxCurve);
  EXPECT_FALSE(a.curve.empty());
  EXPECT_EQ(a.curve, b.curve);
  EXPECT_EQ(a.ToJson(), b.ToJson());
}

// ---- collection through the real engine ----------------------------------

/// Runs ims on dot_product/adres4x4 with a trace attached at search
/// detail `detail` and returns (digest, per-attempt search JSONs).
std::pair<std::string, std::vector<std::string>> TracedRun(
    SearchDetail detail) {
  const Architecture arch = Adres4x4();
  const Kernel k = MakeDotProduct(8, 7);
  MapTrace trace;
  EngineOptions eo;
  eo.race = false;
  eo.deadline = Deadline::AfterSeconds(30);
  eo.observer = &trace;
  telemetry::SetSearchDetail(detail);
  const Result<EngineResult> r =
      MappingEngine(eo).Run(k.dfg, arch, std::vector<std::string>{"ims"});
  telemetry::SetSearchDetail(SearchDetail::kCounters);
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().message);
  std::vector<std::string> search_jsons;
  for (const MapTrace::Attempt& a : trace.Attempts()) {
    if (a.search != nullptr && a.search->Any()) {
      search_jsons.push_back(a.search->ToJson());
    }
  }
  return {r.ok() ? MappingDigestHex(r->mapping) : std::string(),
          std::move(search_jsons)};
}

TEST(SearchCollection, AttemptsCarryLogsAndHeatmapIsDeterministic) {
  const auto [digest1, logs1] = TracedRun(SearchDetail::kCounters);
  const auto [digest2, logs2] = TracedRun(SearchDetail::kCounters);
  ASSERT_FALSE(logs1.empty());

  // Identical runs produce byte-identical search logs — no wall time,
  // no iteration order leaks.
  EXPECT_EQ(logs1, logs2);
  EXPECT_EQ(digest1, digest2);

  // The winning attempt recorded real placement + routing effort and a
  // heatmap sized to the fabric.
  SearchLog log;
  std::string error;
  ASSERT_TRUE(SearchLog::FromJson(logs1.back(), &log, &error)) << error;
  EXPECT_GT(log.place_accepts, 0u);
  EXPECT_GT(log.route_attempts, 0u);
  EXPECT_EQ(log.rows, 4);
  EXPECT_EQ(log.cols, 4);
  ASSERT_EQ(log.cell_routed.size(), 16u);
  std::uint64_t routed = 0;
  for (const std::uint32_t c : log.cell_routed) routed += c;
  EXPECT_GT(routed + log.shared_route_steps, 0u);
}

TEST(SearchCollection, DigestIsIdenticalWithIntrospectionOnAndOff) {
  // The acceptance bar for observability: recording must never perturb
  // the search itself, and kOff collects nothing.
  const auto [digest_on, logs_on] = TracedRun(SearchDetail::kCounters);
  const auto [digest_off, logs_off] = TracedRun(SearchDetail::kOff);
  EXPECT_FALSE(logs_on.empty());
  EXPECT_TRUE(logs_off.empty());
  EXPECT_FALSE(digest_on.empty());
  EXPECT_EQ(digest_on, digest_off);
}

TEST(SearchCollection, DetailOffCollectsNothing) {
  const auto [digest, logs] = TracedRun(SearchDetail::kOff);
  EXPECT_TRUE(logs.empty());
  EXPECT_FALSE(digest.empty());
}

TEST(SearchCollection, FullDetailAddsProgressSeries) {
  const auto [digest, logs] = TracedRun(SearchDetail::kFull);
  ASSERT_FALSE(logs.empty());
  SearchLog log;
  std::string error;
  ASSERT_TRUE(SearchLog::FromJson(logs.back(), &log, &error)) << error;
  EXPECT_FALSE(log.progress.empty());
  EXPECT_LE(log.progress.size(), SearchLog::kMaxProgress);
}

TEST(SearchCollection, FailedFanoutChargesOnlyTheFailingSink) {
  // `a` on cell 1 fans out to `b` on the adjacent cell 5 and `c` on the
  // far corner cell 15, both one cycle later. The batch routes b and
  // fails on c: the log must match the sequential RouteEdge loop, not
  // charge every sink of the rolled-back batch.
  const Architecture arch = Adres4x4();
  Dfg dfg;
  const OpId a = dfg.AddInput(0, "a");
  const OpId b = dfg.AddUnary(Opcode::kNeg, a, "b");
  const OpId c = dfg.AddUnary(Opcode::kNeg, a, "c");
  SearchLog log;
  {
    ScopedSearchLog scoped(&log);
    PlaceRouteState state(dfg, arch, /*ii=*/4);
    ASSERT_TRUE(state.TryPlace(b, 5, 1));
    ASSERT_TRUE(state.TryPlace(c, 15, 1));
    EXPECT_FALSE(state.TryPlace(a, 1, 0));
    EXPECT_EQ(state.last_fail(), PlaceRouteState::FailReason::kRouteCongested);
  }
  EXPECT_EQ(log.route_attempts, 2u);
  EXPECT_EQ(log.route_failures, 1u);
  ASSERT_EQ(log.cell_congested.size(), 16u);
  EXPECT_EQ(log.cell_congested[5], 0u);
  EXPECT_EQ(log.cell_congested[15], 1u);
}

TEST(SearchCollection, RolledBackIncomingRoutesAreNotFolded) {
  // `c = a + b` is tried on cell 5 one cycle after its inputs: `a` on
  // the adjacent cell 1 routes, `b` on the far corner cell 15 cannot.
  // The placement rolls back, so the step `a`'s route took is not a
  // committed step and must not reach the log.
  const Architecture arch = Adres4x4();
  Dfg dfg;
  const OpId a = dfg.AddInput(0, "a");
  const OpId b = dfg.AddInput(1, "b");
  const OpId c = dfg.AddBinary(Opcode::kAdd, a, b, "c");
  SearchLog log;
  {
    ScopedSearchLog scoped(&log);
    PlaceRouteState state(dfg, arch, /*ii=*/4);
    ASSERT_TRUE(state.TryPlace(a, 1, 0));
    ASSERT_TRUE(state.TryPlace(b, 15, 0));
    EXPECT_FALSE(state.TryPlace(c, 5, 1));
    EXPECT_EQ(state.last_fail(), PlaceRouteState::FailReason::kRouteCongested);
  }
  EXPECT_EQ(log.route_attempts, 2u);
  EXPECT_EQ(log.route_failures, 1u);
  EXPECT_EQ(log.route_steps, 0u);
  ASSERT_EQ(log.cell_routed.size(), 16u);
  std::uint64_t routed = 0;
  for (const std::uint32_t steps : log.cell_routed) routed += steps;
  EXPECT_EQ(routed, 0u);
}

TEST(SearchCollection, BeamSurvivorReplayIsNotRecorded) {
  // bwd-beam tries each child on a scratch copy of its parent and
  // replays only the survivors of the pruning; the replays must not
  // show up as extra placements or routes. The counts were captured
  // when every tried child was kept as a full copy (nothing replayed).
  struct Expected {
    const char* kernel;
    std::uint64_t accepts, rejects, route_attempts, route_failures,
        route_steps;
  };
  const Expected expected[] = {
      {"dot_product", 47, 299, 377, 250, 52},
      {"butterfly", 382, 1127, 1236, 884, 491},
  };
  const Mapper* mapper = MapperRegistry::Global().Find("bwd-beam");
  ASSERT_NE(mapper, nullptr);
  const auto kernels = TinyKernelSuite();
  for (const Expected& e : expected) {
    const auto it =
        std::find_if(kernels.begin(), kernels.end(),
                     [&](const Kernel& k) { return k.name == e.kernel; });
    ASSERT_NE(it, kernels.end()) << e.kernel;
    SearchLog log;
    {
      ScopedSearchLog scoped(&log);
      MapperOptions opts;
      opts.seed = 42;
      ASSERT_TRUE(mapper->Map(it->dfg, Architecture::Adres4x4(), opts).ok())
          << e.kernel;
    }
    EXPECT_EQ(log.place_accepts, e.accepts) << e.kernel;
    EXPECT_EQ(log.place_rejects, e.rejects) << e.kernel;
    EXPECT_EQ(log.route_attempts, e.route_attempts) << e.kernel;
    EXPECT_EQ(log.route_failures, e.route_failures) << e.kernel;
    EXPECT_EQ(log.route_steps, e.route_steps) << e.kernel;
  }
}

// ---- sandbox wire carriage ------------------------------------------------

TEST(SearchSandboxWire, FrameCarriesSearchJsonRoundTrip) {
  const SearchLog log = PopulatedLog();
  const std::string json = log.ToJson();

  const std::string frame =
      EncodeSandboxFrame(Result<Mapping>(Error::Unmappable("no dice")), json);
  bool corrupt = false;
  std::string carried;
  const Result<Mapping> decoded =
      DecodeSandboxFrame(frame, &corrupt, &carried);
  EXPECT_FALSE(corrupt);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(carried, json);

  // Unprefixed frames still decode, with the out-param cleared.
  carried = "stale";
  const std::string bare =
      EncodeSandboxFrame(Result<Mapping>(Error::Unmappable("no dice")));
  (void)DecodeSandboxFrame(bare, &corrupt, &carried);
  EXPECT_FALSE(corrupt);
  EXPECT_TRUE(carried.empty());
}

TEST(SearchSandboxWire, SandboxedAttemptCarriesSearchLogEndToEnd) {
  // The whole path: the fork()ed child collects one whole-Map log,
  // serialises it onto the wire frame, and the parent attaches the
  // decoded log to the attempt the observer sees.
  const Architecture arch = Adres4x4();
  const Kernel k = MakeDotProduct(8, 7);
  MapTrace trace;
  QuarantineTracker tracker;
  EngineOptions eo;
  eo.race = false;
  eo.deadline = Deadline::AfterSeconds(30);
  eo.observer = &trace;
  eo.isolation = IsolationMode::kAll;
  eo.quarantine = &tracker;
  const Result<EngineResult> r =
      MappingEngine(eo).Run(k.dfg, arch, std::vector<std::string>{"ims"});
  ASSERT_TRUE(r.ok()) << r.error().message;

  bool found = false;
  for (const MapTrace::Attempt& a : trace.Attempts()) {
    if (a.search == nullptr || !a.search->Any()) continue;
    found = true;
    EXPECT_EQ(a.sandbox, "ok");
    EXPECT_GT(a.search->place_accepts, 0u);
    EXPECT_EQ(a.search->rows, 4);
    EXPECT_EQ(a.search->cols, 4);
  }
  EXPECT_TRUE(found) << trace.ToJson();

  // The frame carries the child's counters too: the sandboxed row
  // reports the same router and tracker work as the in-process run.
  MapTrace in_process;
  eo.observer = &in_process;
  eo.isolation = IsolationMode::kNone;
  ASSERT_TRUE(MappingEngine(eo)
                  .Run(k.dfg, arch, std::vector<std::string>{"ims"})
                  .ok());
  EXPECT_GT(in_process.TotalPerf().router_queries, 0u);
  EXPECT_TRUE(trace.TotalPerf() == in_process.TotalPerf())
      << trace.ToJson() << "\nin-process: " << in_process.ToJson();
}

TEST(SearchSandboxWire, TruncatedSearchPrefixIsWireCorrupt) {
  const std::string frame = EncodeSandboxFrame(
      Result<Mapping>(Error::Unmappable("x")), R"({"v":1})");
  // Slice inside the length word and inside the JSON payload: both are
  // corrupt frames, never a crash or a silent misparse.
  for (const std::size_t len : {std::size_t{1}, std::size_t{3},
                                std::size_t{7}}) {
    bool corrupt = false;
    std::string carried;
    const Result<Mapping> r =
        DecodeSandboxFrame(std::string_view(frame).substr(0, len), &corrupt,
                           &carried);
    EXPECT_TRUE(corrupt) << "prefix length " << len;
    EXPECT_FALSE(r.ok());
  }
}

// ---- /v1/stats sliding window --------------------------------------------

TEST(StatsWindowTest, CountsAndRatesPerWindow) {
  api::StatsWindow win;
  // Three requests in second 100, one (a failure) in second 105.
  win.RecordAt(100, 0.010, true, false);
  win.RecordAt(100, 0.020, true, true);
  win.RecordAt(100, 0.030, true, true);
  win.RecordAt(105, 0.500, false, false);

  const api::StatsWindow::Window w1 = win.SnapshotAt(105, 1);
  EXPECT_EQ(w1.requests, 1u);
  EXPECT_EQ(w1.errors, 1u);
  EXPECT_EQ(w1.ok, 0u);

  const api::StatsWindow::Window w10 = win.SnapshotAt(105, 10);
  EXPECT_EQ(w10.requests, 4u);
  EXPECT_EQ(w10.ok, 3u);
  EXPECT_EQ(w10.errors, 1u);
  EXPECT_EQ(w10.cache_hits, 2u);
  EXPECT_DOUBLE_EQ(w10.cache_hit_rate, 0.5);
  EXPECT_DOUBLE_EQ(w10.rate_qps, 0.4);

  // By second 200 everything has aged out of even the 60s window.
  const api::StatsWindow::Window w60 = win.SnapshotAt(200, 60);
  EXPECT_EQ(w60.requests, 0u);
  EXPECT_EQ(w60.samples, 0);
  EXPECT_DOUBLE_EQ(w60.p50_ms, -1.0);
}

TEST(StatsWindowTest, PercentilesAreExactNearestRank) {
  api::StatsWindow win;
  // 100 samples of 1ms..100ms in one second: nearest-rank p50 is the
  // 50th smallest (50ms), p99 the 99th (99ms) — exactly, no
  // interpolation.
  for (int i = 1; i <= 100; ++i) {
    win.RecordAt(10, i * 1e-3, true, false);
  }
  const api::StatsWindow::Window w = win.SnapshotAt(10, 10);
  EXPECT_EQ(w.samples, 100);
  EXPECT_NEAR(w.p50_ms, 50.0, 1e-9);
  EXPECT_NEAR(w.p99_ms, 99.0, 1e-9);

  // A single sample is every percentile.
  api::StatsWindow one;
  one.RecordAt(0, 0.007, true, false);
  const api::StatsWindow::Window w1 = one.SnapshotAt(0, 1);
  EXPECT_NEAR(w1.p50_ms, 7.0, 1e-9);
  EXPECT_NEAR(w1.p99_ms, 7.0, 1e-9);
}

TEST(StatsWindowTest, OldBucketSlotsAreReclaimed) {
  api::StatsWindow win;
  win.RecordAt(0, 0.001, true, false);
  // Second 64 maps onto the same ring slot as second 0; the stale
  // counts must not leak into the new second's window.
  win.RecordAt(64, 0.002, true, false);
  const api::StatsWindow::Window w = win.SnapshotAt(64, 1);
  EXPECT_EQ(w.requests, 1u);
  EXPECT_EQ(w.samples, 1);
  EXPECT_NEAR(w.p50_ms, 2.0, 1e-9);
}

}  // namespace
}  // namespace cgra
