#include "engine/trace.hpp"

#include <string_view>

#include "support/json.hpp"
#include "support/status.hpp"

namespace cgra {

void WritePerfCounters(JsonWriter& w, const PerfCounters& perf) {
  for (const PerfCounterField& f : kHotPathCounterFields) {
    w.Key(f.name).Uint(perf.*f.member);
  }
}

void MapTrace::OnEvent(const MapEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(event);
}

std::vector<MapEvent> MapTrace::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

int MapTrace::attempt_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  int n = 0;
  for (const MapEvent& e : events_) {
    if (e.kind == MapEvent::Kind::kAttemptDone) ++n;
  }
  return n;
}

std::vector<MapTrace::Attempt> MapTrace::Attempts() const {
  const std::vector<MapEvent> snapshot = events();
  std::vector<Attempt> out;
  for (const MapEvent& e : snapshot) {
    if (e.kind != MapEvent::Kind::kAttemptDone) continue;
    Attempt a;
    static_cast<AttemptRecord&>(a) = e;
    a.mapper = e.mapper;
    a.ii = e.ii;
    a.ok = e.ok;
    if (!e.ok && e.error_code) a.error_code = Error::CodeName(*e.error_code);
    a.message = e.message;
    a.round = e.repair_round;
    a.fault_digest = e.fault_digest;
    if (e.perf.solver_runs > 0) {
      a.solver_steps = static_cast<std::int64_t>(e.perf.solver_steps);
    }
    out.push_back(std::move(a));
  }
  return out;
}

PerfCounters MapTrace::TotalPerf() const {
  // Saturating aggregation: PerfCounters::operator+= pegs at uint64
  // max, so a multi-thousand-job batch sum can never wrap around into
  // a small, plausible-looking lie.
  PerfCounters total;
  const std::vector<MapEvent> snapshot = events();
  for (const MapEvent& e : snapshot) {
    if (e.kind == MapEvent::Kind::kAttemptDone) total += e.perf;
  }
  return total;
}

std::string MapTrace::ToJson() const {
  const std::vector<Attempt> attempts = Attempts();
  const std::vector<MapEvent> snapshot = events();

  JsonWriter w;
  w.BeginObject();
  w.Key("attempts").BeginArray();
  for (const Attempt& a : attempts) {
    w.BeginObject();
    w.Key("mapper").String(a.mapper);
    w.Key("ii").Int(a.ii);
    w.Key("ok").Bool(a.ok);
    w.Key("error").String(a.error_code);
    w.Key("message").String(a.message);
    w.Key("seconds").Double(a.seconds);
    if (a.solver_steps >= 0) w.Key("solver_steps").Int(a.solver_steps);
    w.Key("round").Int(a.round);
    w.Key("fault_digest").String(a.fault_digest);
    if (a.correlation != 0) w.Key("corr").Uint(a.correlation);
    if (!a.sandbox.empty()) w.Key("sandbox").String(a.sandbox);
    if (a.perf.Any()) {
      w.Key("perf").BeginObject();
      WritePerfCounters(w, a.perf);
      w.EndObject();
    }
    if (a.search != nullptr && a.search->Any()) {
      w.Key("search").Raw(a.search->ToJson());
    }
    w.EndObject();
  }
  w.EndArray();

  bool any_cache = false;
  for (const MapEvent& e : snapshot) {
    if (e.kind == MapEvent::Kind::kCacheLookup) {
      any_cache = true;
      break;
    }
  }
  if (any_cache) {
    w.Key("cache").BeginArray();
    for (const MapEvent& e : snapshot) {
      if (e.kind != MapEvent::Kind::kCacheLookup) continue;
      w.BeginObject();
      w.Key("key").String(e.message);
      w.Key("hit").Bool(e.ok);
      w.Key("tier").String(e.mapper);
      w.Key("degraded").Bool(e.error_code.has_value());
      w.Key("seconds").Double(e.seconds);
      w.Key("round").Int(e.repair_round);
      w.EndObject();
    }
    w.EndArray();
  }

  w.Key("mappers").BeginArray();
  for (const MapEvent& e : snapshot) {
    if (e.kind != MapEvent::Kind::kMapperDone) continue;
    w.BeginObject();
    w.Key("name").String(e.mapper);
    w.Key("ok").Bool(e.ok);
    w.Key("seconds").Double(e.seconds);
    w.Key("error").String(!e.ok && e.error_code
                              ? Error::CodeName(*e.error_code)
                              : std::string_view());
    w.Key("message").String(e.message);
    w.Key("round").Int(e.repair_round);
    w.Key("fault_digest").String(e.fault_digest);
    if (!e.sandbox.empty()) w.Key("sandbox").String(e.sandbox);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

void MapTrace::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

}  // namespace cgra
