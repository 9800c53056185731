// Time-extended router (§II-B "Routing": "use an existing link without
// interfering with already existing communications using this link").
//
// Routes one value from its producer's latch to a hold readable by the
// consumer at exactly the consumer's issue cycle, by A* (Dijkstra plus
// an admissible lower bound) over (MRRG node, absolute time) states.
// Hold self-links let a value wait in a register, so any arrival cycle
// >= producer+1 is reachable if capacity permits.
//
// RouteValue is the only route query: a placer routes each data edge
// with one call. The search state lives in a per-thread scratch arena:
// flat best-cost / parent vectors indexed by the packed (node, time,
// stay) state, plus per-node goal marks and A* hop bounds, all stamped
// with one query epoch, so consecutive queries reuse the arrays without
// clearing them. This is the hot path of every PathFinder-style
// negotiated-routing mapper (DRESC [22], EMS [37]); see docs/PERF.md
// for the measured effect of the flat rewrite.
#pragma once

#include <cstddef>
#include <cstdint>

#include "arch/mrrg.hpp"
#include "mapping/mapping.hpp"
#include "mapping/tracker.hpp"
#include "support/status.hpp"

namespace cgra {

struct RouteRequest {
  int from_cell = -1;
  int from_time = -1;  ///< producer issue cycle
  int to_cell = -1;
  int to_time = -1;    ///< consumer issue cycle + II*distance (absolute)
  ValueId value = -1;  ///< producer op id (nets sharing a value share steps)
};

/// Every (node, time) step a route occupies costs one unit, so the
/// router returns a route with the fewest steps; a query gives up after
/// 2^18 state expansions (guards pathological searches). Before any
/// search, a query whose window (to_time - from_time - 1 cycles) is
/// shorter than the fabric hop distance from the producer's cell to
/// every readable goal fails at once, in every mode: each cell hop
/// costs one cycle, so no such query can route.
struct RouterOptions {
  /// DRESC-style congestion-negotiating mode: ignore capacities and do
  /// NOT record occupancy in the tracker — the caller accounts overuse
  /// itself and anneals it away (Mei et al. [22]).
  bool ignore_capacity = false;
  /// Guide the search with an admissible A* heuristic built from the
  /// hop-distance tables the Architecture precomputes: remaining steps
  /// >= max(cycles-to-deadline, hops-to-consumer). Never
  /// changes which routes are reachable or their cost; prunes states
  /// that provably cannot reach the consumer in time (the root-level
  /// hop check above applies the same bound once per query, in both
  /// modes). Off by default
  /// because A* pops equal-cost states in a different order than plain
  /// Dijkstra, which can return a different (equal-cost) route and so
  /// perturb tie-break-sensitive search mappers; turn it on when exact
  /// route identity with the Dijkstra order does not matter.
  bool use_heuristic = false;
};

/// False when `request` fails before any search, whatever the mode and
/// the tracker: the consumer issues before the producer's latch, or its
/// window is hop-infeasible (see RouterOptions). RouteValue answers
/// such a request with kUnmappable.
bool WithinReach(const Mrrg& mrrg, const RouteRequest& request);

/// On success the returned route's steps are already recorded in the
/// tracker (call ReleaseRoute to undo). Fails with kUnmappable when no
/// capacity-respecting path of the exact required latency exists; a
/// query that is hop-infeasible (see RouterOptions) fails with the same
/// error without touching the scratch arena, and every other query
/// runs the same search, so the exit never changes a returned route.
Result<Route> RouteValue(const Mrrg& mrrg, ResourceTracker& tracker,
                         const RouteRequest& request,
                         const RouterOptions& options = {});

/// Releases every step of `route` for `value`.
void ReleaseRoute(ResourceTracker& tracker, const Route& route, ValueId value);

// Test-only visibility into this thread's router scratch arena (the
// epoch mechanism is a correctness feature: a stale best/parent entry
// surviving into a later query — e.g. across II-escalation retries
// inside one mapper run — would corrupt routes, so tests pin it down).
namespace router_internal {

struct ScratchStats {
  std::uint32_t epoch = 0;     ///< current query stamp
  std::size_t capacity = 0;    ///< allocated (node, time, stay) states
};

/// Stats of the calling thread's arena.
ScratchStats CurrentScratchStats();

/// Drops the calling thread's arena (next query reallocates).
void ResetScratchForTest();

/// Forces the epoch counter, e.g. to just below wrap-around, so tests
/// can exercise the wrap path without 2^32 queries.
void SetEpochForTest(std::uint32_t epoch);

}  // namespace router_internal

}  // namespace cgra
