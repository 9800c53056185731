#include "api/response.hpp"

#include "cache/mapping_cache.hpp"
#include "engine/trace.hpp"

namespace cgra::api {

MapResponse::SearchSummary SummarizeSearch(const MapTrace& trace) {
  MapResponse::SearchSummary s;
  std::vector<std::uint64_t> cell_steps;
  for (const MapTrace::Attempt& a : trace.Attempts()) {
    if (a.search == nullptr || !a.search->Any()) continue;
    s.present = true;
    ++s.attempts;
    s.place_accepts += a.search->place_accepts;
    s.place_rejects += a.search->place_rejects;
    s.place_evictions += a.search->place_evictions;
    s.route_attempts += a.search->route_attempts;
    s.route_failures += a.search->route_failures;
    if (cell_steps.size() < a.search->cell_routed.size()) {
      cell_steps.resize(a.search->cell_routed.size(), 0);
    }
    for (std::size_t c = 0; c < a.search->cell_routed.size(); ++c) {
      cell_steps[c] += a.search->cell_routed[c];
    }
  }
  for (std::size_t c = 0; c < cell_steps.size(); ++c) {
    if (cell_steps[c] > s.hot_cell_steps) {
      s.hot_cell_steps = cell_steps[c];
      s.hot_cell = static_cast<int>(c);
    }
  }
  return s;
}

MapResponse BuildMapResponse(const MapRequest& request,
                             const Result<EngineResult>& result,
                             double wall_seconds, std::uint64_t correlation) {
  MapResponse out;
  out.name = request.name;
  out.fabric = request.fabric;
  out.kernel = request.kernel;
  out.mappers = request.mappers;
  out.wall_seconds = wall_seconds;
  out.correlation = correlation;
  if (result.ok()) {
    out.ok = true;
    out.status = "ok";
    out.ii = result->mapping.ii;
    out.winner = result->winner;
    out.cache_hit = result->cache_hit;
    out.cache_key = result->cache_key;
    out.mapping_digest = MappingDigestHex(result->mapping);
  } else {
    out.ok = false;
    out.status = std::string(Error::CodeName(result.error().code));
    out.error_code = out.status;
    out.error_message = result.error().message;
  }
  const std::vector<EngineAttempt>* attempts =
      result.ok() ? &result->attempts : nullptr;
  if (attempts != nullptr) {
    out.attempts.reserve(attempts->size());
    for (const EngineAttempt& a : *attempts) {
      MapResponse::Attempt row;
      row.mapper = a.mapper;
      row.ok = a.ok;
      row.ii = a.ii;
      row.seconds = a.seconds;
      row.sandbox = a.sandbox;
      if (!a.ok) {
        row.error_code = std::string(Error::CodeName(a.error.code));
        row.message = a.error.message;
      }
      out.attempts.push_back(std::move(row));
    }
  }
  return out;
}

MapResponse BuildErrorResponse(const MapRequest& request, const Error& error,
                               double wall_seconds,
                               std::uint64_t correlation) {
  MapResponse out;
  out.name = request.name;
  out.fabric = request.fabric;
  out.kernel = request.kernel;
  out.mappers = request.mappers;
  out.ok = false;
  out.status = std::string(Error::CodeName(error.code));
  out.error_code = out.status;
  out.error_message = error.message;
  out.wall_seconds = wall_seconds;
  out.correlation = correlation;
  return out;
}

std::string ToJson(const MapResponse& r) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Int(r.schema_version);
  w.Key("name").String(r.name);
  w.Key("fabric").String(r.fabric);
  w.Key("kernel").String(r.kernel);
  w.Key("mappers").BeginArray();
  for (const std::string& m : r.mappers) w.String(m);
  w.EndArray();
  w.Key("ok").Bool(r.ok);
  w.Key("status").String(r.status);
  w.Key("ii").Int(r.ii);
  w.Key("wall_seconds").Double(r.wall_seconds);
  w.Key("wall_ms").Double(r.wall_seconds * 1e3);
  w.Key("winner").String(r.winner);
  w.Key("cache_hit").Bool(r.cache_hit);
  w.Key("cache_key").String(r.cache_key);
  w.Key("mapping_digest").String(r.mapping_digest);
  w.Key("corr").Uint(r.correlation);
  w.Key("error").String(r.error_code);
  w.Key("message").String(r.error_message);
  w.Key("attempts").BeginArray();
  for (const MapResponse::Attempt& a : r.attempts) {
    w.BeginObject();
    w.Key("mapper").String(a.mapper);
    w.Key("ok").Bool(a.ok);
    w.Key("ii").Int(a.ii);
    w.Key("seconds").Double(a.seconds);
    w.Key("error").String(a.error_code);
    w.Key("message").String(a.message);
    if (!a.sandbox.empty()) w.Key("sandbox").String(a.sandbox);
    w.EndObject();
  }
  w.EndArray();
  if (r.search.present) {
    w.Key("search").BeginObject();
    w.Key("attempts").Int(r.search.attempts);
    w.Key("place_accepts").Uint(r.search.place_accepts);
    w.Key("place_rejects").Uint(r.search.place_rejects);
    w.Key("place_evictions").Uint(r.search.place_evictions);
    w.Key("route_attempts").Uint(r.search.route_attempts);
    w.Key("route_failures").Uint(r.search.route_failures);
    if (r.search.hot_cell >= 0) {
      w.Key("hot_cell").Int(r.search.hot_cell);
      w.Key("hot_cell_steps").Uint(r.search.hot_cell_steps);
    }
    w.EndObject();
  }
  w.EndObject();
  return w.Take();
}

Result<MapResponse> ParseMapResponse(const Json& doc) {
  if (!doc.is_object()) {
    return Error::InvalidArgument("response must be a JSON object");
  }
  if (const Json* v = doc.Find("schema_version")) {
    if (!v->is_number() || static_cast<int>(v->AsInt()) != kSchemaVersion) {
      return Error::InvalidArgument(
          "field \"schema_version\": unsupported response version");
    }
  }
  MapResponse r;
  if (const Json* v = doc.Find("name")) r.name = v->AsString(r.name);
  if (const Json* v = doc.Find("fabric")) r.fabric = v->AsString(r.fabric);
  if (const Json* v = doc.Find("kernel")) r.kernel = v->AsString(r.kernel);
  if (const Json* v = doc.Find("mappers"); v && v->is_array()) {
    for (const Json& m : v->items()) r.mappers.push_back(m.AsString());
  }
  if (const Json* v = doc.Find("ok")) r.ok = v->AsBool(r.ok);
  if (const Json* v = doc.Find("status")) r.status = v->AsString(r.status);
  if (const Json* v = doc.Find("ii")) r.ii = static_cast<int>(v->AsInt(r.ii));
  if (const Json* v = doc.Find("wall_seconds")) {
    r.wall_seconds = v->AsDouble(r.wall_seconds);
  }
  if (const Json* v = doc.Find("winner")) r.winner = v->AsString(r.winner);
  if (const Json* v = doc.Find("cache_hit")) {
    r.cache_hit = v->AsBool(r.cache_hit);
  }
  if (const Json* v = doc.Find("cache_key")) {
    r.cache_key = v->AsString(r.cache_key);
  }
  if (const Json* v = doc.Find("mapping_digest")) {
    r.mapping_digest = v->AsString(r.mapping_digest);
  }
  if (const Json* v = doc.Find("corr")) {
    r.correlation = static_cast<std::uint64_t>(v->AsInt(0));
  }
  if (const Json* v = doc.Find("error")) {
    r.error_code = v->AsString(r.error_code);
  }
  if (const Json* v = doc.Find("message")) {
    r.error_message = v->AsString(r.error_message);
  }
  if (const Json* v = doc.Find("attempts"); v && v->is_array()) {
    for (const Json& a : v->items()) {
      MapResponse::Attempt row;
      if (const Json* f = a.Find("mapper")) row.mapper = f->AsString();
      if (const Json* f = a.Find("ok")) row.ok = f->AsBool();
      if (const Json* f = a.Find("ii")) row.ii = static_cast<int>(f->AsInt(-1));
      if (const Json* f = a.Find("seconds")) row.seconds = f->AsDouble();
      if (const Json* f = a.Find("error")) row.error_code = f->AsString();
      if (const Json* f = a.Find("message")) row.message = f->AsString();
      if (const Json* f = a.Find("sandbox")) row.sandbox = f->AsString();
      r.attempts.push_back(std::move(row));
    }
  }
  if (const Json* v = doc.Find("search"); v && v->is_object()) {
    r.search.present = true;
    auto u64 = [&](const char* key) -> std::uint64_t {
      const Json* f = v->Find(key);
      return f != nullptr ? static_cast<std::uint64_t>(f->AsInt()) : 0;
    };
    if (const Json* f = v->Find("attempts")) {
      r.search.attempts = static_cast<int>(f->AsInt());
    }
    r.search.place_accepts = u64("place_accepts");
    r.search.place_rejects = u64("place_rejects");
    r.search.place_evictions = u64("place_evictions");
    r.search.route_attempts = u64("route_attempts");
    r.search.route_failures = u64("route_failures");
    if (const Json* f = v->Find("hot_cell")) {
      r.search.hot_cell = static_cast<int>(f->AsInt(-1));
      r.search.hot_cell_steps = u64("hot_cell_steps");
    }
  }
  return r;
}

Result<MapResponse> ParseMapResponseText(std::string_view text) {
  const Result<Json> doc = Json::Parse(text);
  if (!doc.ok()) return doc.error();
  return ParseMapResponse(*doc);
}

std::string ErrorJson(std::string_view status, std::string_view message) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Int(kSchemaVersion);
  w.Key("status").String(status);
  w.Key("message").String(message);
  w.EndObject();
  return w.Take();
}

}  // namespace cgra::api
