// Hot-path performance counters.
//
// The router and the resource tracker are the PathFinder-style inner
// loop every mapper funnels through (§II-B routing; DRESC [22] and EMS
// [37] spend their time here), and the exact mappers add the effort of
// their backing solver. These counters make that work observable at
// near-zero cost: each worker thread accumulates into its own
// thread-local PerfCounters, and the attempt bracket in mappers/common
// (ObservedAttempt) snapshots the delta into the attempt's record, so
// every kAttemptDone MapEvent — and therefore every MapTrace JSON —
// carries the router/tracker/solver effort behind it. bench/perf_suite
// turns the same counters into queries/sec and hit-rate columns of
// BENCH_perf.json.
//
// Thread model: counters are strictly per-thread (no atomics, no
// sharing). A mapper attempt runs on one thread, so the delta around
// attempt() is exactly that attempt's work; the portfolio engine's
// racing mappers each accumulate into their own thread's counters.
#pragma once

#include <cstdint>
#include <iterator>
#include <span>

namespace cgra {

struct PerfCounters {
  /// Saturating add: MapTrace::TotalPerf sums counters across
  /// thousands of batch attempts, and a wrapped uint64 would report a
  /// tiny total instead of "a lot". Pegging at max is the honest
  /// aggregate.
  static std::uint64_t SatAdd(std::uint64_t a, std::uint64_t b) {
    const std::uint64_t s = a + b;
    return s < a ? ~std::uint64_t{0} : s;
  }

  // Router (mapping/router.cpp).
  std::uint64_t router_queries = 0;     ///< RouteValue calls
  std::uint64_t router_routed = 0;      ///< ... that returned a route
  /// Always 0: nothing batches routes any more. Outside
  /// kPerfCounterFields; kept only for readers that still name it.
  std::uint64_t fanout_batches = 0;
  std::uint64_t router_pushes = 0;      ///< priority-queue pushes
  std::uint64_t router_pops = 0;        ///< priority-queue pops
  std::uint64_t router_expansions = 0;  ///< states expanded (out-links walked)
  // Router scratch arena (flat best/parent state, epoch-stamped).
  std::uint64_t arena_reuses = 0;       ///< queries served by a warm arena
  std::uint64_t arena_grows = 0;        ///< arena (re)allocations
  // Resource tracker (mapping/tracker.cpp).
  std::uint64_t tracker_checks = 0;     ///< CanOccupy calls
  std::uint64_t tracker_check_hits = 0; ///< ... that said yes
  std::uint64_t tracker_occupies = 0;   ///< Occupy calls
  std::uint64_t tracker_releases = 0;   ///< Release calls
  // Backing solver of the exact mappers (CountSolverRun).
  std::uint64_t solver_runs = 0;        ///< finished solver runs
  std::uint64_t solver_steps = 0;       ///< their conflicts / search nodes / B&B nodes

  /// Aggregation saturates instead of wrapping (see SatAdd). The
  /// per-thread accumulators this diffs over are nowhere near 2^64, so
  /// only cross-attempt aggregation needed the guard.
  PerfCounters& operator+=(const PerfCounters& o);

  /// Counter-wise difference (for before/after snapshots around an
  /// attempt). Counters are monotonic per thread, so `after - before`
  /// never underflows when taken on the same thread.
  PerfCounters operator-(const PerfCounters& o) const;

  bool operator==(const PerfCounters&) const = default;

  bool Any() const {
    return router_queries | router_pushes | router_pops | tracker_checks |
           tracker_occupies | tracker_releases;
  }
};

/// Every counter under its JSON key. The arithmetic, the JSON writer
/// (engine/trace.hpp WritePerfCounters) and the sandbox wire frame
/// (engine/sandbox.cpp) iterate this table; nothing else spells the
/// fields out.
struct PerfCounterField {
  const char* name;
  std::uint64_t PerfCounters::*member;
};

inline constexpr PerfCounterField kPerfCounterFields[] = {
    {"router_queries", &PerfCounters::router_queries},
    {"router_routed", &PerfCounters::router_routed},
    {"router_pushes", &PerfCounters::router_pushes},
    {"router_pops", &PerfCounters::router_pops},
    {"router_expansions", &PerfCounters::router_expansions},
    {"arena_reuses", &PerfCounters::arena_reuses},
    {"arena_grows", &PerfCounters::arena_grows},
    {"tracker_checks", &PerfCounters::tracker_checks},
    {"tracker_check_hits", &PerfCounters::tracker_check_hits},
    {"tracker_occupies", &PerfCounters::tracker_occupies},
    {"tracker_releases", &PerfCounters::tracker_releases},
    {"solver_runs", &PerfCounters::solver_runs},
    {"solver_steps", &PerfCounters::solver_steps},
};

/// The router and tracker counters: the keys of a "perf" JSON object.
/// The two solver counters trail the table; MapTrace reports their
/// effort beside the object as the "solver_steps" row key.
inline constexpr std::span<const PerfCounterField> kHotPathCounterFields(
    kPerfCounterFields, std::size(kPerfCounterFields) - 2);

inline PerfCounters& PerfCounters::operator+=(const PerfCounters& o) {
  for (const PerfCounterField& f : kPerfCounterFields) {
    this->*f.member = SatAdd(this->*f.member, o.*f.member);
  }
  return *this;
}

inline PerfCounters PerfCounters::operator-(const PerfCounters& o) const {
  PerfCounters d;
  for (const PerfCounterField& f : kPerfCounterFields) {
    d.*f.member = this->*f.member - o.*f.member;
  }
  return d;
}

/// This thread's accumulator. Router and tracker bump it directly;
/// consumers snapshot before/after a unit of work and diff.
inline PerfCounters& ThreadPerfCounters() {
  static thread_local PerfCounters counters;
  return counters;
}

/// Charges one finished solver run of `steps` (SAT/SMT conflicts, CP
/// search nodes or ILP branch-and-bound nodes) to this thread.
inline void CountSolverRun(std::int64_t steps) {
  PerfCounters& c = ThreadPerfCounters();
  ++c.solver_runs;
  c.solver_steps += static_cast<std::uint64_t>(steps);
}

}  // namespace cgra
