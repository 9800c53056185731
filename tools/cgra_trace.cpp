// cgra_trace: inspect the JSON artefacts the telemetry subsystem
// exports, without leaving the terminal. Two input shapes are
// auto-detected:
//
//   * Chrome trace-event files (top-level "traceEvents"; cgra_batch
//     --trace, perf_suite --trace, any WriteChromeTrace call).
//     Default mode prints a per-span-name aggregate table — count,
//     total and self wall time (self = total minus time spent in
//     nested spans), min/mean/max — sorted by self time, which
//     answers "where did the batch actually spend its wall clock" in
//     one glance. --collapse prints collapsed-stack lines
//     ("batch.job;engine.run;mapper;attempt <self_us>") in the format
//     flamegraph.pl and speedscope consume directly. Both modes
//     reconstruct the span stacks from the balanced B/E duration
//     events per thread track; an unbalanced file is a bug
//     (scripts/check_trace_json.py gates that in CI).
//
//   * MapTrace post-mortems (top-level "attempts"; cgra_batch
//     --traces DIR writes one per job). The inspector renders each
//     attempt's "search" introspection log: place accept/reject
//     counters with the reject-reason breakdown, routing effort, the
//     per-cell congestion heatmap as an ASCII fabric grid, the
//     annealer/ILP cost curve as a sparkline, and solver progress
//     samples. --json emits the same inspection as one machine-
//     readable document (the heatmap smoke test in CI consumes it).
//     docs/OBSERVABILITY.md documents the search-log schema.
//
// usage: cgra_trace TRACE.json [--collapse] [--tid N] [--json]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "support/json.hpp"

using namespace cgra;

namespace {

struct Frame {
  std::string name;
  double start_us = 0.0;
  double child_us = 0.0;  ///< time covered by completed nested spans
};

struct NameStats {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
  double min_us = 0.0;
  double max_us = 0.0;
};

std::string ReadFile(const char* path, bool& ok) {
  std::string text;
  std::FILE* f = std::fopen(path, "rb");
  ok = f != nullptr;
  if (!f) return text;
  char buf[1 << 14];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

// ---- MapTrace inspector ---------------------------------------------------

/// '.' for zero, else the value scaled onto '1'..'9' against the grid
/// maximum (ceil scaling: any nonzero cell is at least '1', only the
/// hottest reach '9').
char HeatSymbol(std::uint64_t v, std::uint64_t max) {
  if (v == 0 || max == 0) return '.';
  const std::uint64_t level = (v * 9 + max - 1) / max;
  return static_cast<char>('0' + std::min<std::uint64_t>(level, 9));
}

/// Reads a search-log fabric array ("routed" / "congested") into a
/// flat vector; true when present with rows*cols entries.
bool ReadGrid(const Json& fabric, const char* key, std::size_t cells,
              std::vector<std::uint64_t>* out) {
  const Json* arr = fabric.Find(key);
  if (!arr || !arr->is_array() || arr->items().size() != cells) return false;
  out->clear();
  out->reserve(cells);
  for (const Json& v : arr->items()) {
    out->push_back(static_cast<std::uint64_t>(v.AsInt()));
  }
  return true;
}

/// `obj`'s integer member `key` as the long long %lld reads, 0 when
/// absent.
long long IntField(const Json& obj, const char* key) {
  const Json* v = obj.Find(key);
  return v ? static_cast<long long>(v->AsInt()) : 0;
}

void PrintGrid(const char* label, int rows, int cols,
               const std::vector<std::uint64_t>& vals) {
  std::uint64_t max = 0;
  for (const std::uint64_t v : vals) max = std::max(max, v);
  std::printf("  %s %dx%d (max %llu; '.'=0, 1-9 scaled):\n", label, rows,
              cols, static_cast<unsigned long long>(max));
  for (int r = 0; r < rows; ++r) {
    std::printf("   ");
    for (int c = 0; c < cols; ++c) {
      std::printf(" %c", HeatSymbol(vals[static_cast<std::size_t>(r) * cols + c],
                                    max));
    }
    std::printf("\n");
  }
}

/// One-line ASCII sparkline of the curve's cost values (low cost =
/// low glyph), capped at 64 columns by even subsampling.
std::string Sparkline(const std::vector<double>& ys) {
  static const char kLevels[] = " .:-=+*#%@";
  const int n_levels = static_cast<int>(sizeof(kLevels)) - 2;  // 0..9
  if (ys.empty()) return "";
  double lo = ys[0], hi = ys[0];
  for (const double y : ys) {
    lo = std::min(lo, y);
    hi = std::max(hi, y);
  }
  const std::size_t width = std::min<std::size_t>(ys.size(), 64);
  std::string out;
  out.reserve(width);
  for (std::size_t i = 0; i < width; ++i) {
    const double y = ys[i * ys.size() / width];
    const int level =
        hi > lo ? static_cast<int>((y - lo) / (hi - lo) * n_levels + 0.5) : 0;
    out += kLevels[std::clamp(level, 0, n_levels)];
  }
  return out;
}

/// Re-emits a parsed Json value verbatim (the --json mode splices the
/// original search objects into its own document).
void EmitJson(JsonWriter& w, const Json& v) {
  switch (v.kind()) {
    case Json::Kind::kNull:
      w.Null();
      break;
    case Json::Kind::kBool:
      w.Bool(v.AsBool());
      break;
    case Json::Kind::kNumber:
      w.Double(v.AsDouble());
      break;
    case Json::Kind::kString:
      w.String(v.AsString());
      break;
    case Json::Kind::kArray:
      w.BeginArray();
      for (const Json& e : v.items()) EmitJson(w, e);
      w.EndArray();
      break;
    case Json::Kind::kObject:
      w.BeginObject();
      for (const auto& [k, m] : v.members()) {
        w.Key(k);
        EmitJson(w, m);
      }
      w.EndObject();
      break;
  }
}

/// Inspector for MapTrace JSON (top-level "attempts"): renders each
/// attempt's "search" log. Returns the process exit code.
int InspectMapTrace(const Json& doc, bool as_json) {
  const Json* attempts = doc.Find("attempts");
  if (!attempts || !attempts->is_array()) {
    std::fprintf(stderr, "cgra_trace: no attempts array\n");
    return 1;
  }

  if (as_json) {
    JsonWriter w;
    w.BeginObject();
    w.Key("attempts").BeginArray();
    int index = 0;
    for (const Json& a : attempts->items()) {
      w.BeginObject();
      w.Key("index").Int(index++);
      if (const Json* f = a.Find("mapper")) w.Key("mapper").String(f->AsString());
      if (const Json* f = a.Find("ii")) w.Key("ii").Int(f->AsInt(-1));
      if (const Json* f = a.Find("ok")) w.Key("ok").Bool(f->AsBool());
      if (const Json* s = a.Find("search")) {
        w.Key("search");
        EmitJson(w, *s);
      }
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }

  int index = 0;
  int with_search = 0;
  for (const Json& a : attempts->items()) {
    const int i = index++;
    const std::string mapper =
        a.Find("mapper") ? a.Find("mapper")->AsString() : std::string("?");
    const long long ii = a.Find("ii") ? a.Find("ii")->AsInt(-1) : -1;
    const bool ok = a.Find("ok") && a.Find("ok")->AsBool();
    const double seconds =
        a.Find("seconds") ? a.Find("seconds")->AsDouble() : 0.0;
    std::printf("[%d] %s ii=%lld %s (%.3fs)\n", i, mapper.c_str(), ii,
                ok ? "ok" : "failed", seconds);
    const Json* s = a.Find("search");
    if (!s || !s->is_object()) {
      std::printf("  (no search log)\n");
      continue;
    }
    ++with_search;

    if (const Json* place = s->Find("place")) {
      std::printf(
          "  place: accepts=%lld rejects=%lld evictions=%lld\n",
          IntField(*place, "accepts"), IntField(*place, "rejects"),
          IntField(*place, "evictions"));
      if (const Json* reasons = place->Find("reject_reasons")) {
        std::printf("    rejected:");
        for (const auto& [name, count] : reasons->members()) {
          std::printf(" %s=%lld", name.c_str(),
                      static_cast<long long>(count.AsInt()));
        }
        std::printf("\n");
      }
    }
    if (const Json* route = s->Find("route")) {
      std::printf(
          "  route: attempts=%lld failures=%lld steps=%lld shared_steps=%lld\n",
          IntField(*route, "attempts"), IntField(*route, "failures"),
          IntField(*route, "steps"), IntField(*route, "shared_steps"));
    }
    if (const Json* fabric = s->Find("fabric")) {
      const int rows =
          fabric->Find("rows") ? static_cast<int>(fabric->Find("rows")->AsInt())
                               : 0;
      const int cols =
          fabric->Find("cols") ? static_cast<int>(fabric->Find("cols")->AsInt())
                               : 0;
      if (rows > 0 && cols > 0) {
        const std::size_t cells =
            static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
        std::vector<std::uint64_t> grid;
        if (ReadGrid(*fabric, "routed", cells, &grid)) {
          PrintGrid("routed steps/cell", rows, cols, grid);
        }
        if (ReadGrid(*fabric, "congested", cells, &grid)) {
          bool any = false;
          for (const std::uint64_t v : grid) any = any || v > 0;
          if (any) PrintGrid("congested route targets", rows, cols, grid);
        }
      }
    }
    if (const Json* curve = s->Find("curve");
        curve && curve->is_array() && !curve->items().empty()) {
      std::vector<double> ys;
      ys.reserve(curve->items().size());
      for (const Json& pt : curve->items()) {
        if (pt.is_array() && pt.items().size() == 2) {
          ys.push_back(pt.items()[1].AsDouble());
        }
      }
      if (!ys.empty()) {
        std::printf("  cost curve: %zu point(s), %.6g -> %.6g\n    [%s]\n",
                    ys.size(), ys.front(), ys.back(),
                    Sparkline(ys).c_str());
      }
    }
    if (const Json* solver = s->Find("solver");
        solver && solver->is_array() && !solver->items().empty()) {
      const Json& last = solver->items().back();
      std::printf(
          "  solver: %zu sample(s), last: decisions=%lld conflicts=%lld "
          "restarts=%lld\n",
          solver->items().size(), IntField(last, "decisions"),
          IntField(last, "conflicts"), IntField(last, "restarts"));
    }
    if (const Json* obj = s->Find("objective")) {
      std::printf("  objective: %.6g after %lld node(s)\n",
                  obj->Find("value") ? obj->Find("value")->AsDouble() : 0.0,
                  IntField(*obj, "nodes"));
    }
  }
  std::printf("%d attempt(s), %d with search log(s)\n", index, with_search);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  bool collapse = false;
  bool as_json = false;
  long only_tid = -1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--collapse") == 0) {
      collapse = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      as_json = true;
    } else if (std::strcmp(argv[i], "--tid") == 0 && i + 1 < argc) {
      only_tid = std::atol(argv[++i]);
    } else if (argv[i][0] != '-' && !path) {
      path = argv[i];
    } else {
      std::fprintf(stderr,
                   "usage: %s TRACE.json [--collapse] [--tid N] [--json]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!path) {
    std::fprintf(stderr,
                 "usage: %s TRACE.json [--collapse] [--tid N] [--json]\n",
                 argv[0]);
    return 2;
  }

  bool ok = false;
  const std::string text = ReadFile(path, ok);
  if (!ok) {
    std::fprintf(stderr, "cgra_trace: cannot open %s\n", path);
    return 1;
  }
  const Result<Json> doc = Json::Parse(text);
  if (!doc.ok()) {
    std::fprintf(stderr, "cgra_trace: %s: %s\n", path,
                 doc.error().message.c_str());
    return 1;
  }
  // MapTrace post-mortems carry "attempts" instead of "traceEvents";
  // route them to the search-log inspector.
  if (const Json* attempts = doc->Find("attempts");
      attempts && attempts->is_array()) {
    return InspectMapTrace(*doc, as_json);
  }
  const Json* events = doc->Find("traceEvents");
  if (!events || !events->is_array()) {
    std::fprintf(stderr,
                 "cgra_trace: %s has neither a traceEvents nor an attempts "
                 "array\n",
                 path);
    return 1;
  }

  // Replay each thread track's B/E stream. Export order within a track
  // is already chronological with nesting-correct tie-breaks, so a
  // simple stack replay reconstructs the span tree exactly.
  std::map<long, std::vector<Frame>> stacks;
  std::map<std::string, NameStats> by_name;
  std::map<std::string, double> by_stack;  // collapsed-stack self time
  std::uint64_t unbalanced = 0;

  for (const Json& e : events->items()) {
    const Json* ph = e.Find("ph");
    if (!ph || !ph->is_string()) continue;
    const std::string& kind = ph->AsString();
    if (kind != "B" && kind != "E") continue;
    const long tid = e.Find("tid") ? static_cast<long>(e.Find("tid")->AsInt())
                                   : 0;
    if (only_tid >= 0 && tid != only_tid) continue;
    const double ts = e.Find("ts") ? e.Find("ts")->AsDouble() : 0.0;
    std::vector<Frame>& stack = stacks[tid];
    if (kind == "B") {
      Frame f;
      if (const Json* name = e.Find("name")) f.name = name->AsString();
      f.start_us = ts;
      stack.push_back(std::move(f));
      continue;
    }
    if (stack.empty()) {
      ++unbalanced;
      continue;
    }
    const Frame done = stack.back();
    stack.pop_back();
    const double total = ts - done.start_us;
    const double self = total > done.child_us ? total - done.child_us : 0.0;
    if (!stack.empty()) stack.back().child_us += total;

    NameStats& s = by_name[done.name];
    if (s.count == 0) {
      s.min_us = s.max_us = total;
    } else {
      s.min_us = std::min(s.min_us, total);
      s.max_us = std::max(s.max_us, total);
    }
    ++s.count;
    s.total_us += total;
    s.self_us += self;

    if (collapse) {
      std::string key;
      for (const Frame& f : stack) {
        key += f.name;
        key += ';';
      }
      key += done.name;
      by_stack[key] += self;
    }
  }
  for (const auto& [tid, stack] : stacks) unbalanced += stack.size();
  if (unbalanced) {
    std::fprintf(stderr, "cgra_trace: warning: %llu unbalanced B/E event(s)\n",
                 static_cast<unsigned long long>(unbalanced));
  }

  if (collapse) {
    // flamegraph.pl wants integer sample counts; microseconds of self
    // time serve as the counts.
    for (const auto& [key, self_us] : by_stack) {
      const long long us = static_cast<long long>(self_us + 0.5);
      if (us > 0) std::printf("%s %lld\n", key.c_str(), us);
    }
    return 0;
  }

  std::vector<std::pair<std::string, NameStats>> rows(by_name.begin(),
                                                      by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_us > b.second.self_us;
  });
  double total_self = 0.0;
  for (const auto& [name, s] : rows) total_self += s.self_us;

  if (const Json* other = doc->Find("otherData")) {
    const long long dropped = IntField(*other, "dropped_spans");
    if (dropped > 0) {
      std::fprintf(stderr,
                   "cgra_trace: warning: trace lost %lld span(s) to ring "
                   "overflow\n",
                   dropped);
    }
  }

  std::printf("%-24s %8s %12s %12s %7s %10s %10s %10s\n", "span", "count",
              "total ms", "self ms", "self%", "min ms", "mean ms", "max ms");
  for (const auto& [name, s] : rows) {
    std::printf("%-24s %8llu %12.3f %12.3f %6.1f%% %10.3f %10.3f %10.3f\n",
                name.c_str(), static_cast<unsigned long long>(s.count),
                s.total_us / 1e3, s.self_us / 1e3,
                total_self > 0 ? 100.0 * s.self_us / total_self : 0.0,
                s.min_us / 1e3, s.total_us / 1e3 / s.count, s.max_us / 1e3);
  }
  if (rows.empty()) std::printf("(no duration events)\n");
  return 0;
}
