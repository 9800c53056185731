#include "mappers/common.hpp"

#include <algorithm>
#include <cassert>
#include <queue>

#include "graph/algos.hpp"
#include "mapping/perf.hpp"
#include "support/str.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace cgra {
namespace {

/// Attempt-level metrics, registered once. These are the numbers the
/// batch report's metrics snapshot and the Prometheus dump aggregate
/// across every mapper in the process (docs/OBSERVABILITY.md).
struct AttemptMetrics {
  telemetry::Counter& ok = telemetry::MetricsRegistry::Global().GetCounter(
      "cgra_attempt_ok_total", "II attempts that produced a mapping");
  telemetry::Counter& fail = telemetry::MetricsRegistry::Global().GetCounter(
      "cgra_attempt_fail_total", "II attempts that failed");
  telemetry::Histogram& seconds =
      telemetry::MetricsRegistry::Global().GetHistogram(
          "cgra_attempt_seconds",
          {0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0},
          "wall time of one II attempt");
  telemetry::Histogram& ii = telemetry::MetricsRegistry::Global().GetHistogram(
      "cgra_attempt_ii", {1, 2, 3, 4, 6, 8, 12, 16, 24, 32},
      "achieved II of successful attempts");
  telemetry::Histogram& router_queries =
      telemetry::MetricsRegistry::Global().GetHistogram(
          "cgra_attempt_router_queries",
          {10, 100, 1000, 10000, 100000, 1000000},
          "router queries issued by one II attempt");
};

AttemptMetrics& Metrics() {
  static AttemptMetrics m;
  return m;
}

void ObserveAttemptMetrics(bool ok, int ii, double seconds,
                           const PerfCounters& perf) {
  AttemptMetrics& m = Metrics();
  (ok ? m.ok : m.fail).Add(1);
  m.seconds.Observe(seconds);
  if (ok) m.ii.Observe(static_cast<double>(ii));
  m.router_queries.Observe(static_cast<double>(perf.router_queries));
}

}  // namespace

MiiBounds ComputeMii(const Dfg& dfg, const Architecture& arch, int max_ii) {
  MiiBounds b;
  // Resource MII per capability class.
  int n_mem_ops = 0, n_io_ops = 0, n_mul_ops = 0, n_alu_ops = 0;
  for (const Op& op : dfg.ops()) {
    if (arch.IsFolded(op.opcode)) continue;
    if (IsMemoryOp(op.opcode)) {
      ++n_mem_ops;
    } else if (IsIoOp(op.opcode)) {
      ++n_io_ops;
    } else if (op.opcode == Opcode::kMul || op.opcode == Opcode::kDiv) {
      ++n_mul_ops;
    } else {
      ++n_alu_ops;
    }
  }
  int mem_cells = 0, io_cells = 0, mul_cells = 0, alu_cells = 0;
  for (int c = 0; c < arch.num_cells(); ++c) {
    const CellCaps& caps = arch.caps(c);
    if (caps.mem) ++mem_cells;
    if (caps.io) ++io_cells;
    if (caps.mul) ++mul_cells;
    if (caps.alu) ++alu_cells;
  }
  auto class_mii = [](int ops, int cells) {
    if (ops == 0) return 1;
    if (cells == 0) return 1 << 20;  // impossible; caller surfaces it
    return (ops + cells - 1) / cells;
  };
  // Memory throughput is capped by bank ports as well as LSU cells.
  mem_cells = std::min(mem_cells,
                       arch.params().num_banks * arch.params().bank_ports);
  b.res_mii = std::max({class_mii(n_mem_ops, mem_cells),
                        class_mii(n_io_ops, io_cells),
                        class_mii(n_mul_ops, mul_cells),
                        // Every op ultimately needs an FU slot.
                        class_mii(n_mem_ops + n_io_ops + n_mul_ops + n_alu_ops,
                                  arch.num_cells())});

  // Recurrence MII: the least II in [1, max_ii] whose modulo schedule
  // exists, by binary search with ModuloAsap as the feasibility test;
  // max_ii + 1 when max_ii itself admits none.
  auto feasible = [&](int ii) { return !ModuloAsap(dfg, arch, ii).empty(); };
  if (!feasible(max_ii)) {
    b.rec_mii = max_ii + 1;
    return b;
  }
  int lo = 1, hi = max_ii;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (feasible(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  b.rec_mii = lo;
  return b;
}

std::vector<int> ModuloAsap(const Dfg& dfg, const Architecture& arch, int ii) {
  // Dependence edges that constrain timing (edges from folded producers
  // do not: immediates are available at every cycle).
  std::vector<DfgEdge> edges = dfg.Edges(/*include_pred=*/true);
  std::erase_if(edges, [&](const DfgEdge& e) {
    return arch.IsFolded(dfg.op(e.from).opcode);
  });
  const int n = dfg.num_ops();
  std::vector<int> t(static_cast<size_t>(n), 0);
  for (int pass = 0; pass <= n; ++pass) {
    bool changed = false;
    for (const DfgEdge& e : edges) {
      const int lower = t[static_cast<size_t>(e.from)] + 1 - ii * e.distance;
      if (lower > t[static_cast<size_t>(e.to)]) {
        t[static_cast<size_t>(e.to)] = lower;
        changed = true;
      }
    }
    if (!changed) return t;
  }
  return {};  // positive cycle: recurrence infeasible at this II
}

std::vector<OpId> HeightPriorityOrder(const Dfg& dfg, const Architecture& arch) {
  // Height = longest same-iteration path to any sink (timing edges).
  Digraph g(dfg.num_ops());
  std::vector<std::int64_t> w;
  for (const DfgEdge& e : dfg.Edges(true)) {
    if (e.distance > 0) continue;
    if (arch.IsFolded(dfg.op(e.from).opcode)) continue;
    g.AddEdge(e.from, e.to);
    w.push_back(1);
  }
  const auto height = DagLongestPathToSinks(g, w);
  std::vector<OpId> order = MappableOps(dfg, arch);
  std::sort(order.begin(), order.end(), [&](OpId a, OpId b) {
    if (height[static_cast<size_t>(a)] != height[static_cast<size_t>(b)]) {
      return height[static_cast<size_t>(a)] > height[static_cast<size_t>(b)];
    }
    return a < b;
  });
  return order;
}

std::vector<OpId> ScheduleOrder(std::vector<OpId> ops,
                                const std::vector<int>& times) {
  std::sort(ops.begin(), ops.end(), [&](OpId a, OpId b) {
    return times[static_cast<size_t>(a)] != times[static_cast<size_t>(b)]
               ? times[static_cast<size_t>(a)] < times[static_cast<size_t>(b)]
               : a < b;
  });
  return ops;
}

std::vector<std::vector<int>> CandidateCellTable(const Dfg& dfg,
                                                 const Architecture& arch,
                                                 const std::vector<int>* region) {
  std::vector<std::vector<int>> table(static_cast<size_t>(dfg.num_ops()));
  for (OpId op = 0; op < dfg.num_ops(); ++op) {
    if (arch.IsFolded(dfg.op(op).opcode)) continue;
    const auto& pool = region ? *region : [&] {
      static thread_local std::vector<int> all;
      all.clear();
      for (int c = 0; c < arch.num_cells(); ++c) all.push_back(c);
      return all;
    }();
    for (int c : pool) {
      if (arch.CanExecute(c, dfg.op(op))) {
        table[static_cast<size_t>(op)].push_back(c);
      }
    }
  }
  return table;
}

Status CheckMappable(const Dfg& dfg, const Architecture& arch) {
  for (OpId op = 0; op < dfg.num_ops(); ++op) {
    const Op& o = dfg.op(op);
    if (arch.IsFolded(o.opcode)) continue;
    if (o.opcode == Opcode::kIterIdx && !arch.params().has_hw_loop) {
      return Error::Unmappable(StrFormat(
          "op %s needs the loop counter but the fabric has no hardware loop "
          "unit (lower kIterIdx first)",
          o.name.c_str()));
    }
    bool any = false;
    for (int c = 0; c < arch.num_cells(); ++c) {
      if (arch.CanExecute(c, o)) {
        any = true;
        break;
      }
    }
    if (!any) {
      return Error::Unmappable(
          StrFormat("no cell can execute op %s (%s)", o.name.c_str(),
                    std::string(OpName(o.opcode)).c_str()));
    }
  }
  return Status::Ok();
}

Result<Mapping> ImsPlaceRoute(const Dfg& dfg, const Architecture& arch,
                              int ii, const std::vector<OpId>& order,
                              const ImsOptions& options) {
  telemetry::Span phase_span("phase.place_route");
  const std::vector<int> est = [&] {
    telemetry::Span schedule_span("phase.schedule");
    return ModuloAsap(dfg, arch, ii);
  }();
  if (est.empty()) {
    return Error::Unmappable(StrFormat("recurrences infeasible at II=%d", ii));
  }
  PlaceRouteState state(dfg, arch, ii);
  const auto candidates = options.candidate_cells
                              ? *options.candidate_cells
                              : CandidateCellTable(dfg, arch);

  // Rank = position in `order` (requeued ops keep their rank).
  std::vector<int> rank(static_cast<size_t>(dfg.num_ops()), 1 << 30);
  for (size_t i = 0; i < order.size(); ++i) rank[static_cast<size_t>(order[i])] = static_cast<int>(i);

  using QItem = std::pair<int, OpId>;  // (rank, op)
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> queue;
  std::vector<bool> queued(static_cast<size_t>(dfg.num_ops()), false);
  auto enqueue = [&](OpId op) {
    if (!queued[static_cast<size_t>(op)]) {
      queued[static_cast<size_t>(op)] = true;
      queue.push({rank[static_cast<size_t>(op)], op});
    }
  };
  for (OpId op : order) enqueue(op);

  int budget = options.eviction_budget_factor * static_cast<int>(order.size()) + 16;
  // Per-op "schedule no earlier than" floor, advanced on repeated failure.
  std::vector<int> floor_time(est.begin(), est.end());

  while (!queue.empty()) {
    if (options.stop.StopRequested()) {
      return Error::ResourceLimit("IMS cancelled");
    }
    if (options.deadline.Expired()) {
      return Error::ResourceLimit("IMS deadline expired");
    }
    const OpId op = queue.top().second;
    queue.pop();
    queued[static_cast<size_t>(op)] = false;

    // Dynamic window from placed neighbours.
    int t0 = floor_time[static_cast<size_t>(op)];
    int ub = 1 << 30;
    std::vector<OpId> upper_blockers;
    for (int ei : state.IncidentEdges(op)) {
      const DfgEdge& e = state.edge(ei);
      if (e.to == op && e.from != op && state.IsPlaced(e.from) &&
          !arch.IsFolded(dfg.op(e.from).opcode)) {
        t0 = std::max(t0, state.placement(e.from).time + 1 - ii * e.distance);
      }
      if (e.from == op && e.to != op && state.IsPlaced(e.to)) {
        const int limit = state.placement(e.to).time - 1 + ii * e.distance;
        if (limit < ub) ub = limit;
        if (limit < t0) upper_blockers.push_back(e.to);
      }
    }

    bool placed = false;
    if (t0 <= ub) {
      // Affinity-ordered candidate cells.
      std::vector<int> cells = candidates[static_cast<size_t>(op)];
      if (options.rng) options.rng->Shuffle(cells);
      cells = state.ByAffinity(op, std::move(cells));

      // Window: the classic II slots plus slack start cycles — routing
      // and spatial (II=1) fabrics need room to slide before evicting.
      const int window_end = std::min(ub, t0 + ii - 1 + options.extra_slack);
      for (int t = t0; t <= window_end && !placed; ++t) {
        for (const int cell : cells) {
          if (state.TryPlace(op, cell, t)) {
            placed = true;
            break;
          }
        }
      }
    }

    if (!placed) {
      if (--budget <= 0) {
        return Error::ResourceLimit(
            StrFormat("IMS eviction budget exhausted at II=%d", ii));
      }
      // Evict the placed neighbours (and upper-bound blockers) that box
      // this op in, then retry; if nothing to evict, slide the window.
      std::vector<OpId> evict = upper_blockers;
      for (int ei : state.IncidentEdges(op)) {
        const DfgEdge& e = state.edge(ei);
        const OpId other = e.from == op ? e.to : e.from;
        if (other != op && state.IsPlaced(other) &&
            !arch.IsFolded(dfg.op(other).opcode)) {
          evict.push_back(other);
        }
      }
      std::sort(evict.begin(), evict.end());
      evict.erase(std::unique(evict.begin(), evict.end()), evict.end());
      if (evict.empty()) {
        // No neighbours to blame: the window itself is congested.
        floor_time[static_cast<size_t>(op)] += 1;
        const int max_start =
            *std::max_element(est.begin(), est.end()) + ii + options.extra_slack;
        if (floor_time[static_cast<size_t>(op)] > max_start) {
          return Error::Unmappable(
              StrFormat("op %s cannot be scheduled at II=%d",
                        dfg.op(op).name.c_str(), ii));
        }
      } else {
        for (OpId victim : evict) {
          state.Unplace(victim);
          enqueue(victim);
        }
      }
      enqueue(op);
    }
  }

  Mapping m = state.Finalize();
  return m;
}

Result<Mapping> BindAtFixedTimes(const Dfg& dfg, const Architecture& arch,
                                 int ii, const std::vector<int>& times,
                                 const Deadline& deadline,
                                 const StopToken& stop) {
  telemetry::Span phase_span("phase.bind");
  PlaceRouteState state(dfg, arch, ii);
  const std::vector<OpId> order = ScheduleOrder(state.MappableOps(), times);
  const auto candidates = CandidateCellTable(dfg, arch);
  int budget = 20000;  // search nodes
  bool timed_out = false;

  std::function<bool(size_t)> dfs = [&](size_t depth) -> bool {
    if (depth == order.size()) return true;
    if (--budget <= 0 || deadline.Expired() || stop.StopRequested()) {
      timed_out = true;
      return false;
    }
    const OpId op = order[depth];
    // Affinity order: cells near already-placed neighbours first.
    for (const int cell :
         state.ByAffinity(op, candidates[static_cast<size_t>(op)])) {
      if (state.TryPlace(op, cell, times[static_cast<size_t>(op)])) {
        if (dfs(depth + 1)) return true;
        state.Unplace(op);
        if (timed_out) return false;
      }
    }
    return false;
  };

  if (dfs(0)) return state.Finalize();
  if (timed_out) {
    return Error::ResourceLimit("fixed-time binding budget exhausted");
  }
  return Error::Unmappable("no binding exists for this schedule");
}

bool DirectlyReadable(const Architecture& arch, int producer, int consumer) {
  const auto& r = arch.ReadableFrom(consumer);
  return std::find(r.begin(), r.end(), producer) != r.end();
}

Result<Mapping> RealizePinned(const Dfg& dfg, const Architecture& arch,
                              int ii, const std::vector<Placement>& pins) {
  PlaceRouteState state(dfg, arch, ii);
  std::vector<OpId> order = state.MappableOps();
  std::sort(order.begin(), order.end(), [&](OpId a, OpId b) {
    return pins[static_cast<size_t>(a)].time < pins[static_cast<size_t>(b)].time;
  });
  for (OpId op : order) {
    if (!state.TryPlace(op, pins[static_cast<size_t>(op)].cell,
                        pins[static_cast<size_t>(op)].time)) {
      return Error::Unmappable("pinned placement not realizable");
    }
  }
  return state.Finalize();
}

Result<Mapping> EscalateIi(const Mapper& self, const Dfg& dfg,
                           const Architecture& arch,
                           const MapperOptions& options,
                           const std::function<Result<Mapping>(int)>& attempt) {
  if (Status s = CheckMappable(dfg, arch); !s.ok()) return s.error();
  const int hi = std::min(options.max_ii, arch.MaxIi());
  const MiiBounds bounds = ComputeMii(dfg, arch, hi);
  const int lo = std::min(std::max(options.min_ii, bounds.mii()), hi);
  Error last = Error::Unmappable("no II attempted");
  for (int ii = lo; ii <= hi; ++ii) {
    if (options.stop.StopRequested()) {
      return Error::ResourceLimit("mapper cancelled during II escalation");
    }
    if (options.deadline.Expired()) {
      return Error::ResourceLimit("mapper deadline expired during II escalation");
    }
    Result<Mapping> r =
        ObservedAttempt(self, options, ii, [&] { return attempt(ii); });
    if (r.ok()) return r;
    last = r.error();
  }
  return last;
}

Result<Mapping> ObservedAttempt(const Mapper& self,
                                const MapperOptions& options, int ii,
                                const std::function<Result<Mapping>()>& attempt) {
  if (options.stop.StopRequested()) {
    return Error::ResourceLimit("mapper cancelled before its attempt");
  }
  if (options.deadline.Expired()) {
    return Error::ResourceLimit("mapper deadline expired before its attempt");
  }
  MapEvent event;
  event.kind = MapEvent::Kind::kAttemptStart;
  event.mapper = self.name();
  event.ii = ii;
  NotifyObserver(options.observer, event);

  const PerfCounters perf_before = ThreadPerfCounters();
  WallTimer timer;
  // The span and the kAttemptDone event share one correlation id,
  // joining the MapTrace row to its trace spans.
  event.correlation = telemetry::Enabled() ? telemetry::NewCorrelation() : 0;
  // Search introspection: one collector per attempt, installed in the
  // thread-local slot for the attempt's extent only. Gated on an
  // observer being present — without one the log would have nowhere
  // to go.
  std::shared_ptr<telemetry::SearchLog> search;
  if (options.observer != nullptr &&
      telemetry::GetSearchDetail() != telemetry::SearchDetail::kOff) {
    search = std::make_shared<telemetry::SearchLog>();
  }
  Result<Mapping> r = [&] {
    telemetry::Span span(
        "attempt",
        telemetry::Enabled()
            ? StrFormat("%s ii=%d", event.mapper.c_str(), ii)
            : "",
        event.correlation);
    telemetry::ScopedSearchLog scoped(search.get());
    return attempt();
  }();

  event.kind = MapEvent::Kind::kAttemptDone;
  event.ok = r.ok();
  event.seconds = timer.Seconds();
  event.perf = ThreadPerfCounters() - perf_before;
  if (!r.ok()) {
    event.error_code = r.error().code;
    event.message = r.error().message;
  }
  if (search != nullptr && search->Any()) event.search = std::move(search);
  NotifyObserver(options.observer, event);
  ObserveAttemptMetrics(event.ok, ii, event.seconds, event.perf);
  return r;
}

}  // namespace cgra
