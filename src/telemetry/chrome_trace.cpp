#include "telemetry/chrome_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <set>

#include "support/json.hpp"
#include "support/str.hpp"

namespace cgra::telemetry {
namespace {

/// One half of a span, flattened for sorting. Begin events sort after
/// end events at the same timestamp (a span ending exactly where the
/// next begins must close first), outer begins before inner begins,
/// and inner ends before outer ends — all encoded via depth.
struct HalfEvent {
  std::uint64_t ts_ns;
  bool begin;
  std::uint32_t depth;
  const SpanRecord* span;
};

bool HalfLess(const HalfEvent& a, const HalfEvent& b) {
  if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
  if (a.begin != b.begin) return !a.begin;  // E before B at the same tick
  if (a.depth != b.depth) {
    // B: outer (smaller depth) first; E: inner (larger depth) first.
    return a.begin ? a.depth < b.depth : a.depth > b.depth;
  }
  return false;
}

void AppendEvent(JsonWriter& w, const HalfEvent& h) {
  w.BeginObject();
  w.Key("name").String(h.span->name);
  w.Key("ph").String(h.begin ? "B" : "E");
  // Chrome traces use microsecond timestamps; keep three decimals so
  // sub-microsecond spans stay visible.
  w.Key("ts").Double(static_cast<double>(h.ts_ns) / 1000.0);
  w.Key("pid").Int(1);
  w.Key("tid").Int(h.span->tid);
  if (h.begin && (h.span->detail[0] != '\0' || h.span->correlation != 0)) {
    w.Key("args").BeginObject();
    if (h.span->detail[0] != '\0') w.Key("detail").String(h.span->detail);
    if (h.span->correlation != 0) w.Key("corr").Uint(h.span->correlation);
    w.EndObject();
  }
  w.EndObject();
}

void AppendMetadata(JsonWriter& w, const char* name, int tid,
                    const std::string& value) {
  w.BeginObject();
  w.Key("name").String(name);
  w.Key("ph").String("M");
  w.Key("pid").Int(1);
  w.Key("tid").Int(tid);
  w.Key("args").BeginObject().Key("name").String(value).EndObject();
  w.EndObject();
}

}  // namespace

std::string ChromeTraceJson(const std::vector<SpanRecord>& spans,
                            std::uint64_t dropped,
                            std::int64_t wall_anchor_micros) {
  std::vector<HalfEvent> halves;
  halves.reserve(spans.size() * 2);
  std::set<std::uint32_t> tids;
  for (const SpanRecord& s : spans) {
    halves.push_back({s.start_ns, true, s.depth, &s});
    // A span's end must sort strictly after its begin even at zero
    // measured duration (coarse clocks), or the E-before-B tie-break
    // below would close it before it opened.
    const std::uint64_t dur = s.dur_ns > 0 ? s.dur_ns : 1;
    halves.push_back({s.start_ns + dur, false, s.depth, &s});
    tids.insert(s.tid);
  }
  std::stable_sort(halves.begin(), halves.end(), HalfLess);

  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  AppendMetadata(w, "process_name", 0, "cgra");
  for (std::uint32_t tid : tids) {
    AppendMetadata(w, "thread_name", static_cast<int>(tid),
                   StrFormat("cgra-thread-%u", tid));
  }
  for (const HalfEvent& h : halves) AppendEvent(w, h);
  w.EndArray();
  w.Key("displayTimeUnit").String("ms");
  w.Key("otherData").BeginObject();
  w.Key("wall_anchor_micros").Int(wall_anchor_micros);
  w.Key("dropped_spans").Uint(dropped);
  w.Key("span_count").Uint(spans.size());
  w.EndObject();
  w.EndObject();
  return w.Take();
}

bool WriteChromeTrace(const std::string& path) {
  TraceSink& sink = TraceSink::Global();
  const std::vector<SpanRecord> spans = sink.Drain();
  const std::string json =
      ChromeTraceJson(spans, sink.dropped(), sink.wall_anchor_micros());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::size_t n = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return n == json.size();
}

}  // namespace cgra::telemetry
