#include "telemetry/search_log.hpp"

#include <atomic>

#include "support/json.hpp"

namespace cgra::telemetry {
namespace {

std::atomic<int> g_search_detail{static_cast<int>(SearchDetail::kCounters)};

}  // namespace

SearchDetail GetSearchDetail() {
  return static_cast<SearchDetail>(
      g_search_detail.load(std::memory_order_relaxed));
}

void SetSearchDetail(SearchDetail detail) {
  g_search_detail.store(static_cast<int>(detail), std::memory_order_relaxed);
}

std::string_view SearchDetailName(SearchDetail detail) {
  switch (detail) {
    case SearchDetail::kCounters: return "counters";
    case SearchDetail::kFull: return "full";
    case SearchDetail::kOff: break;
  }
  return "off";
}

bool ParseSearchDetail(std::string_view name, SearchDetail* out) {
  if (name == "off") {
    *out = SearchDetail::kOff;
  } else if (name == "counters") {
    *out = SearchDetail::kCounters;
  } else if (name == "full") {
    *out = SearchDetail::kFull;
  } else {
    return false;
  }
  return true;
}

const char* const SearchLog::kRejectReasonNames[SearchLog::kNumRejectReasons] =
    {"none",          "incompatible_cell", "fu_busy",
     "bank_port_conflict", "timing_violated",   "route_congested"};

void SearchLog::SetGrid(int grid_rows, int grid_cols) {
  if (grid_rows <= 0 || grid_cols <= 0) return;
  if (rows == grid_rows && cols == grid_cols) return;
  rows = grid_rows;
  cols = grid_cols;
  const std::size_t cells =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  cell_routed.assign(cells, 0);
  cell_congested.assign(cells, 0);
}

void SearchLog::AddCurvePoint(std::int64_t iteration, double cost) {
  // Stride-doubling decimation: keep every curve_stride_-th iteration;
  // on overflow halve the retained set and double the stride. Keyed on
  // the iteration index only, so identical runs decimate identically.
  if (iteration % curve_stride_ != 0) return;
  curve.push_back(CostSample{iteration, cost});
  if (curve.size() > kMaxCurve) {
    std::size_t kept = 0;
    for (const CostSample& s : curve) {
      if (s.iteration % (curve_stride_ * 2) == 0) curve[kept++] = s;
    }
    curve.resize(kept);
    curve_stride_ *= 2;
  }
}

void SearchLog::AddSolverSample(std::int64_t decisions, std::int64_t conflicts,
                                std::int64_t restarts) {
  // Same decimation keyed on the sample ordinal (restart count grows
  // monotonically, so later samples subsume dropped ones).
  if (solver.size() >= kMaxSolver) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < solver.size(); i += 2) solver[kept++] = solver[i];
    solver.resize(kept);
  }
  solver.push_back(SolverSample{decisions, conflicts, restarts});
}

void SearchLog::AddProgressPoint() {
  const std::uint64_t events =
      place_accepts + place_rejects + place_evictions;
  if (events % progress_stride_ != 0) return;
  progress.push_back(
      Progress{events, place_accepts, place_rejects, place_evictions});
  if (progress.size() > kMaxProgress) {
    std::size_t kept = 0;
    for (const Progress& p : progress) {
      if (p.events % (progress_stride_ * 2) == 0) progress[kept++] = p;
    }
    progress.resize(kept);
    progress_stride_ *= 2;
  }
}

std::string SearchLog::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("v").Int(kSchemaVersion);
  if (place_accepts || place_rejects || place_evictions) {
    w.Key("place").BeginObject();
    w.Key("accepts").Uint(place_accepts);
    w.Key("rejects").Uint(place_rejects);
    w.Key("evictions").Uint(place_evictions);
    bool any_reason = false;
    for (int i = 0; i < kNumRejectReasons; ++i) any_reason |= reject_reasons[i] != 0;
    if (any_reason) {
      w.Key("reject_reasons").BeginObject();
      for (int i = 0; i < kNumRejectReasons; ++i) {
        if (reject_reasons[i] != 0) {
          w.Key(kRejectReasonNames[i]).Uint(reject_reasons[i]);
        }
      }
      w.EndObject();
    }
    w.EndObject();
  }
  if (route_attempts || route_failures || route_steps) {
    w.Key("route").BeginObject();
    w.Key("attempts").Uint(route_attempts);
    w.Key("failures").Uint(route_failures);
    w.Key("steps").Uint(route_steps);
    w.Key("shared_steps").Uint(shared_route_steps);
    w.EndObject();
  }
  if (rows > 0 && cols > 0) {
    w.Key("fabric").BeginObject();
    w.Key("rows").Int(rows);
    w.Key("cols").Int(cols);
    w.Key("routed").BeginArray();
    for (std::uint32_t v : cell_routed) w.Uint(v);
    w.EndArray();
    w.Key("congested").BeginArray();
    for (std::uint32_t v : cell_congested) w.Uint(v);
    w.EndArray();
    w.EndObject();
  }
  if (!solver.empty()) {
    w.Key("solver").BeginArray();
    for (const SolverSample& s : solver) {
      w.BeginObject();
      w.Key("decisions").Int(s.decisions);
      w.Key("conflicts").Int(s.conflicts);
      w.Key("restarts").Int(s.restarts);
      w.EndObject();
    }
    w.EndArray();
  }
  if (has_objective) {
    w.Key("objective").BeginObject();
    w.Key("value").Double(objective);
    w.Key("nodes").Int(objective_nodes);
    w.EndObject();
  }
  if (!curve.empty()) {
    w.Key("curve").BeginArray();
    for (const CostSample& s : curve) {
      w.BeginArray().Int(s.iteration).Double(s.cost).EndArray();
    }
    w.EndArray();
  }
  if (!progress.empty()) {
    w.Key("progress").BeginArray();
    for (const Progress& p : progress) {
      w.BeginArray()
          .Uint(p.events)
          .Uint(p.accepts)
          .Uint(p.rejects)
          .Uint(p.evictions)
          .EndArray();
    }
    w.EndArray();
  }
  w.EndObject();
  return w.Take();
}

bool SearchLog::FromJson(std::string_view json, SearchLog* out,
                         std::string* error) {
  Result<Json> parsed = Json::Parse(json);
  if (!parsed.ok()) {
    if (error) *error = "search log parse error: " + parsed.error().message;
    return false;
  }
  const Json& root = *parsed;
  if (!root.is_object()) {
    if (error) *error = "search log is not a JSON object";
    return false;
  }
  // Absent "v" means version 1 (matching the API convention); any
  // other version is a structured failure so a v1 reader never
  // misinterprets a future layout.
  const Json* v = root.Find("v");
  const std::int64_t version = v != nullptr ? v->AsInt(-1) : 1;
  if (version != kSchemaVersion) {
    if (error) {
      *error = "unsupported search log schema version " +
               std::to_string(version) + " (expected " +
               std::to_string(kSchemaVersion) + ")";
    }
    return false;
  }
  SearchLog log;
  if (const Json* place = root.Find("place"); place != nullptr) {
    log.place_accepts =
        static_cast<std::uint64_t>(place->Find("accepts") != nullptr
                                       ? place->Find("accepts")->AsInt()
                                       : 0);
    log.place_rejects =
        static_cast<std::uint64_t>(place->Find("rejects") != nullptr
                                       ? place->Find("rejects")->AsInt()
                                       : 0);
    log.place_evictions =
        static_cast<std::uint64_t>(place->Find("evictions") != nullptr
                                       ? place->Find("evictions")->AsInt()
                                       : 0);
    if (const Json* reasons = place->Find("reject_reasons");
        reasons != nullptr && reasons->is_object()) {
      for (int i = 0; i < kNumRejectReasons; ++i) {
        if (const Json* r = reasons->Find(kRejectReasonNames[i]);
            r != nullptr) {
          log.reject_reasons[i] = static_cast<std::uint64_t>(r->AsInt());
        }
      }
    }
  }
  if (const Json* route = root.Find("route"); route != nullptr) {
    auto field = [&](const char* name) -> std::uint64_t {
      const Json* f = route->Find(name);
      return f != nullptr ? static_cast<std::uint64_t>(f->AsInt()) : 0;
    };
    log.route_attempts = field("attempts");
    log.route_failures = field("failures");
    log.route_steps = field("steps");
    log.shared_route_steps = field("shared_steps");
  }
  if (const Json* fabric = root.Find("fabric"); fabric != nullptr) {
    const int rows = fabric->Find("rows") != nullptr
                         ? static_cast<int>(fabric->Find("rows")->AsInt())
                         : 0;
    const int cols = fabric->Find("cols") != nullptr
                         ? static_cast<int>(fabric->Find("cols")->AsInt())
                         : 0;
    if (rows <= 0 || cols <= 0) {
      if (error) *error = "search log fabric has non-positive dimensions";
      return false;
    }
    const std::size_t cells =
        static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
    const Json* routed = fabric->Find("routed");
    const Json* congested = fabric->Find("congested");
    if (routed == nullptr || !routed->is_array() ||
        routed->items().size() != cells || congested == nullptr ||
        !congested->is_array() || congested->items().size() != cells) {
      if (error) *error = "search log fabric arrays do not match rows*cols";
      return false;
    }
    log.rows = rows;
    log.cols = cols;
    log.cell_routed.reserve(cells);
    for (const Json& item : routed->items()) {
      log.cell_routed.push_back(static_cast<std::uint32_t>(item.AsInt()));
    }
    log.cell_congested.reserve(cells);
    for (const Json& item : congested->items()) {
      log.cell_congested.push_back(static_cast<std::uint32_t>(item.AsInt()));
    }
  }
  if (const Json* solver = root.Find("solver");
      solver != nullptr && solver->is_array()) {
    for (const Json& item : solver->items()) {
      SolverSample s;
      if (const Json* d = item.Find("decisions")) s.decisions = d->AsInt();
      if (const Json* c = item.Find("conflicts")) s.conflicts = c->AsInt();
      if (const Json* r = item.Find("restarts")) s.restarts = r->AsInt();
      log.solver.push_back(s);
    }
  }
  if (const Json* objective = root.Find("objective"); objective != nullptr) {
    log.has_objective = true;
    if (const Json* value = objective->Find("value")) {
      log.objective = value->AsDouble();
    }
    if (const Json* nodes = objective->Find("nodes")) {
      log.objective_nodes = nodes->AsInt();
    }
  }
  if (const Json* curve = root.Find("curve");
      curve != nullptr && curve->is_array()) {
    for (const Json& item : curve->items()) {
      if (!item.is_array() || item.items().size() != 2) continue;
      log.curve.push_back(
          CostSample{item.items()[0].AsInt(), item.items()[1].AsDouble()});
    }
  }
  if (const Json* progress = root.Find("progress");
      progress != nullptr && progress->is_array()) {
    for (const Json& item : progress->items()) {
      if (!item.is_array() || item.items().size() != 4) continue;
      log.progress.push_back(
          Progress{static_cast<std::uint64_t>(item.items()[0].AsInt()),
                   static_cast<std::uint64_t>(item.items()[1].AsInt()),
                   static_cast<std::uint64_t>(item.items()[2].AsInt()),
                   static_cast<std::uint64_t>(item.items()[3].AsInt())});
    }
  }
  *out = std::move(log);
  return true;
}

}  // namespace cgra::telemetry
