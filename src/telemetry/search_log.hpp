// Search introspection: the "where did the search spend its effort"
// half of observability that MapTrace cannot answer on its own.
//
// A SearchLog is a low-overhead accumulator for one (mapper, II)
// attempt: placement accept/reject/eviction counters (with per-reason
// reject breakdowns), routing effort folded into a per-cell fabric
// congestion heatmap, solver progress samples (decisions / conflicts /
// restarts / objective), and annealing/GA cost-vs-iteration curves.
// The mapper attempt brackets (mappers/common.cpp) install a collector
// in a thread-local slot for the attempt's extent; the recording
// helpers below are a single thread-local load plus a branch when no
// collector is installed, so the instrumented hot paths
// (PlaceRouteState::TryPlace, the routers, the solver inner loops)
// stay unconditionally instrumented.
//
// Determinism contract: a SearchLog never records wall time — every
// series is indexed by event counts (iterations, restarts,
// generations), so two runs of the same mapper on the same inputs
// produce byte-identical logs, and collection never perturbs the
// mapping itself (the golden-digest tests pin both properties).
//
// Gates, coarse to fine:
//   * SearchDetail (process-wide runtime level): kOff collects
//     nothing, kCounters (default) collects counters + heatmap +
//     bounded solver/cost samples, kFull adds the placement-progress
//     time series;
//   * per-attempt: a collector is only installed when an observer is
//     attached (MapperOptions::observer).
//
// The finished log rides the kAttemptDone MapEvent as a shared_ptr,
// lands in MapTrace::ToJson under a schema-versioned "search" key, and
// crosses the sandbox wire frame as serialised JSON
// (docs/OBSERVABILITY.md documents the schema).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cgra::telemetry {

/// Runtime collection level for search logs.
enum class SearchDetail {
  kOff,       ///< collect nothing (collectors are never installed)
  kCounters,  ///< counters, heatmap, bounded solver/cost samples
  kFull,      ///< + the placement-progress time series
};

SearchDetail GetSearchDetail();
void SetSearchDetail(SearchDetail detail);

/// "off" / "counters" / "full".
std::string_view SearchDetailName(SearchDetail detail);
/// Inverse of SearchDetailName; false on unknown names.
bool ParseSearchDetail(std::string_view name, SearchDetail* out);

/// One attempt's search-effort record. Plain aggregates + bounded
/// sample vectors; the recording helpers below do the decimation.
struct SearchLog {
  static constexpr int kSchemaVersion = 1;

  /// Indexed by PlaceRouteState::FailReason's numeric value (0 is the
  /// unused kNone slot). Kept as a fixed array so recording a reject
  /// is one increment.
  static constexpr int kNumRejectReasons = 6;
  static const char* const kRejectReasonNames[kNumRejectReasons];

  // Placement counters (PlaceRouteState::TryPlace / Unplace).
  std::uint64_t place_accepts = 0;
  std::uint64_t place_rejects = 0;
  std::uint64_t place_evictions = 0;  ///< Unplace during search (backtracks)
  std::uint64_t reject_reasons[kNumRejectReasons] = {};

  // Routing effort (edge-level: one attempt per edge the placer asked
  // the router to route).
  std::uint64_t route_attempts = 0;
  std::uint64_t route_failures = 0;
  std::uint64_t route_steps = 0;        ///< committed HOLD/RT occupancies
  std::uint64_t shared_route_steps = 0; ///< steps on cell-less (shared RF) nodes

  // Fabric congestion heatmap, indexed by cell id (rows * cols cells).
  // `cell_routed` counts committed route steps through each cell;
  // `cell_congested` charges each routing failure to the sink cell the
  // router could not reach.
  int rows = 0;
  int cols = 0;
  std::vector<std::uint32_t> cell_routed;
  std::vector<std::uint32_t> cell_congested;

  /// Solver progress samples (SAT restarts; CP/ILP final totals).
  struct SolverSample {
    std::int64_t decisions = 0;
    std::int64_t conflicts = 0;  ///< conflicts / backtracks / nodes
    std::int64_t restarts = 0;
    bool operator==(const SolverSample&) const = default;
  };
  std::vector<SolverSample> solver;

  /// Last branch-and-bound objective (ILP mappers); NaN-free.
  bool has_objective = false;
  double objective = 0.0;
  std::int64_t objective_nodes = 0;

  /// Cost-vs-iteration curve (annealing energy, GA/QEA best fitness).
  /// Decimated to kMaxCurve points by stride doubling, so the curve
  /// stays bounded and deterministic whatever the iteration count.
  struct CostSample {
    std::int64_t iteration = 0;
    double cost = 0.0;
    bool operator==(const CostSample&) const = default;
  };
  std::vector<CostSample> curve;

  /// Placement counters over time (kFull only), indexed by the running
  /// placement-event count — never wall time.
  struct Progress {
    std::uint64_t events = 0;
    std::uint64_t accepts = 0;
    std::uint64_t rejects = 0;
    std::uint64_t evictions = 0;
    bool operator==(const Progress&) const = default;
  };
  std::vector<Progress> progress;

  // Decimation bounds (inclusive caps on the sample vectors).
  static constexpr std::size_t kMaxSolver = 64;
  static constexpr std::size_t kMaxCurve = 128;
  static constexpr std::size_t kMaxProgress = 256;

  /// True when anything at all was recorded.
  bool Any() const {
    return place_accepts || place_rejects || place_evictions ||
           route_attempts || route_failures || !solver.empty() ||
           has_objective || !curve.empty();
  }

  void Clear() { *this = SearchLog{}; }

  /// Schema-versioned JSON object ({"v":1,"place":{...},...}); empty
  /// sections are omitted. Deterministic: same log, same bytes.
  std::string ToJson() const;

  /// Parses ToJson output. Absent "v" means version 1; any other
  /// version than kSchemaVersion is a structured failure (false, with
  /// *error naming the skew) — a v1 reader must not misread a v2 log.
  static bool FromJson(std::string_view json, SearchLog* out,
                       std::string* error);

  // ---- sampling (called via the free helpers below) ----
  void SetGrid(int grid_rows, int grid_cols);
  void AddCurvePoint(std::int64_t iteration, double cost);
  void AddSolverSample(std::int64_t decisions, std::int64_t conflicts,
                       std::int64_t restarts);
  void AddProgressPoint();

  /// kFull collection was active when the collector was installed.
  bool full_detail = false;

 private:
  std::int64_t curve_stride_ = 1;
  std::uint64_t progress_stride_ = 1;
};

/// The calling thread's active collector; nullptr when no attempt is
/// being introspected (the common case — every recording helper is
/// then one thread-local load and a not-taken branch).
inline thread_local SearchLog* tl_search_log = nullptr;

inline SearchLog* ActiveSearchLog() { return tl_search_log; }

/// RAII collector installer for one attempt's extent. A null `log`
/// installs nothing and masks nothing (so a sandbox child's whole-Map
/// collector is not displaced by nested attempt brackets that opted
/// out).
class ScopedSearchLog {
 public:
  explicit ScopedSearchLog(SearchLog* log) {
    if (log == nullptr) return;
    log->full_detail = GetSearchDetail() == SearchDetail::kFull;
    saved_ = tl_search_log;
    tl_search_log = log;
    installed_ = true;
  }
  ~ScopedSearchLog() {
    if (installed_) tl_search_log = saved_;
  }
  ScopedSearchLog(const ScopedSearchLog&) = delete;
  ScopedSearchLog& operator=(const ScopedSearchLog&) = delete;

 private:
  SearchLog* saved_ = nullptr;
  bool installed_ = false;
};

/// Detaches the calling thread's collector for its extent, so work
/// that replays an already-recorded decision (bwd-beam rebuilding its
/// surviving partial solutions) is not counted twice.
class SuspendedSearchLog {
 public:
  SuspendedSearchLog() : saved_(tl_search_log) { tl_search_log = nullptr; }
  ~SuspendedSearchLog() { tl_search_log = saved_; }
  SuspendedSearchLog(const SuspendedSearchLog&) = delete;
  SuspendedSearchLog& operator=(const SuspendedSearchLog&) = delete;

 private:
  SearchLog* saved_;
};

// ---- recording helpers (hot paths; no-ops without a collector) ----

inline void SearchRecordGrid(int rows, int cols) {
  if (SearchLog* log = tl_search_log) log->SetGrid(rows, cols);
}

inline void SearchRecordPlaceAccept() {
  if (SearchLog* log = tl_search_log) {
    ++log->place_accepts;
    if (log->full_detail) log->AddProgressPoint();
  }
}

/// `reason` is PlaceRouteState::FailReason's numeric value.
inline void SearchRecordPlaceReject(int reason) {
  if (SearchLog* log = tl_search_log) {
    ++log->place_rejects;
    if (reason >= 0 && reason < SearchLog::kNumRejectReasons) {
      ++log->reject_reasons[reason];
    }
    if (log->full_detail) log->AddProgressPoint();
  }
}

inline void SearchRecordEviction() {
  if (SearchLog* log = tl_search_log) {
    ++log->place_evictions;
    if (log->full_detail) log->AddProgressPoint();
  }
}

inline void SearchRecordRouteResult(bool ok) {
  if (SearchLog* log = tl_search_log) {
    ++log->route_attempts;
    if (!ok) ++log->route_failures;
  }
}

/// One committed route step through `cell` (-1 = shared, cell-less
/// resource).
inline void SearchRecordCellRouted(int cell) {
  if (SearchLog* log = tl_search_log) {
    ++log->route_steps;
    if (cell < 0) {
      ++log->shared_route_steps;
    } else if (static_cast<std::size_t>(cell) < log->cell_routed.size()) {
      ++log->cell_routed[static_cast<std::size_t>(cell)];
    }
  }
}

/// Charges one routing failure to the sink cell the router could not
/// reach.
inline void SearchRecordCellCongested(int cell) {
  if (SearchLog* log = tl_search_log) {
    if (cell >= 0 &&
        static_cast<std::size_t>(cell) < log->cell_congested.size()) {
      ++log->cell_congested[static_cast<std::size_t>(cell)];
    }
  }
}

inline void SearchRecordSolverSample(std::int64_t decisions,
                                     std::int64_t conflicts,
                                     std::int64_t restarts) {
  if (SearchLog* log = tl_search_log) {
    log->AddSolverSample(decisions, conflicts, restarts);
  }
}

inline void SearchRecordObjective(double objective, std::int64_t nodes) {
  if (SearchLog* log = tl_search_log) {
    log->has_objective = true;
    log->objective = objective;
    log->objective_nodes = nodes;
  }
}

inline void SearchRecordCost(std::int64_t iteration, double cost) {
  if (SearchLog* log = tl_search_log) log->AddCurvePoint(iteration, cost);
}

}  // namespace cgra::telemetry
