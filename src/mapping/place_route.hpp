// Incremental place-and-route state shared by the heuristic and
// meta-heuristic mappers.
//
// Maintains a partial mapping at a fixed II: op placements, FU/RF/route
// occupancy, memory-bank port usage, and the routes of every data edge
// whose two endpoints are placed. TryPlace is transactional — if any
// incident edge cannot be routed the placement rolls back — which is
// what lets schedulers backtrack cheaply (the Das et al. [24] style of
// exploring partial solutions).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "arch/arch.hpp"
#include "arch/mrrg.hpp"
#include "ir/dfg.hpp"
#include "mapping/mapping.hpp"
#include "mapping/router.hpp"
#include "mapping/tracker.hpp"

namespace cgra {

/// The ops a mapping places, in id order: every op but the folded ones
/// (constants, and the loop counter on fabrics with a hardware loop).
std::vector<OpId> MappableOps(const Dfg& dfg, const Architecture& arch);

class PlaceRouteState {
 public:
  /// Routes on arch.mrrg(); `dfg` and `arch` must outlive the state.
  /// `ii` >= 1.
  PlaceRouteState(const Dfg& dfg, const Architecture& arch, int ii);

  const Dfg& dfg() const { return *dfg_; }
  const Architecture& arch() const { return *arch_; }
  int ii() const { return ii_; }

  bool IsPlaced(OpId op) const {
    return place_[static_cast<size_t>(op)].cell >= 0;
  }
  const Placement& placement(OpId op) const {
    return place_[static_cast<size_t>(op)];
  }

  /// Ops that must be placed: MappableOps(dfg, arch).
  const std::vector<OpId>& MappableOps() const { return mappable_; }

  /// Edge `e` of the DFG, indexed in Dfg::Edges(true) order.
  const DfgEdge& edge(int e) const { return edges_[static_cast<size_t>(e)]; }

  /// Indices of the edges incident to `op`, in Dfg::Edges(true) order;
  /// a self-loop is listed once.
  const std::vector<int>& IncidentEdges(OpId op) const {
    return edges_of_[static_cast<size_t>(op)];
  }

  /// Attempts to place `op` on `cell` at absolute `time`, routing every
  /// data edge whose other endpoint is already placed (one RouteValue
  /// per edge, in IncidentEdges order) and checking ordering edges and
  /// bank ports. All-or-nothing: a failure releases the routes this call
  /// made, and only a committed placement's routes reach the search log.
  bool TryPlace(OpId op, int cell, int time);

  /// Removes `op`, releasing its FU slot, bank port and incident routes.
  void Unplace(OpId op);

  /// Removes every placement and route, leaving the state a fresh
  /// PlaceRouteState at the same II starts in, without reallocating
  /// (population mappers score many genomes per II).
  void Reset();

  /// Number of ops currently placed.
  int placed_count() const { return placed_count_; }

  /// The FU, register and route occupancy of the placed ops.
  const ResourceTracker& tracker() const { return tracker_; }

  /// The least start time >= `floor` for `op` that every placed
  /// producer allows: t >= producer time + 1 - II * distance over its
  /// incoming edges (self-loops and folded producers excluded).
  int EarliestStart(OpId op, int floor) const;

  /// `cells` stably sorted by affinity: the summed hop distance from
  /// each cell to the placed other ends of `op`'s non-self edges, least
  /// first (a neighbour on two edges counts twice).
  std::vector<int> ByAffinity(OpId op, std::vector<int> cells) const;

  /// Total route steps created by the last successful TryPlace (the
  /// routing cost of that placement; used by cost-driven mappers).
  int last_route_steps() const { return last_route_steps_; }

  /// Why the last TryPlace failed (diagnostics for RAMP-style
  /// failure-driven escalation).
  enum class FailReason {
    kNone,
    kIncompatibleCell,
    kFuBusy,
    kBankPortConflict,
    kTimingViolated,  ///< an incident edge's latency would be < 1
    kRouteCongested,  ///< router found no capacity-respecting path
  };
  FailReason last_fail() const { return last_fail_; }

  /// Assembles the final Mapping; call only when every mappable op is
  /// placed.
  Mapping Finalize() const;

 private:
  bool RouteEdge(int edge_index);
  void UnrouteEdge(int edge_index);
  int BankOf(int cell) const { return arch_->caps(cell).bank; }

  const Dfg* dfg_;
  const Architecture* arch_;
  int ii_;
  ResourceTracker tracker_;
  std::vector<Placement> place_;
  std::vector<DfgEdge> edges_;             ///< Dfg::Edges(true) order
  std::vector<std::optional<Route>> routes_;
  std::vector<std::vector<int>> edges_of_; ///< op -> incident edge indices
  std::vector<std::vector<int>> bank_load_;///< bank -> per-slot access count
  int placed_count_ = 0;
  std::vector<OpId> mappable_;
  FailReason last_fail_ = FailReason::kNone;
  int last_route_steps_ = 0;
  std::vector<int> routed_;  ///< edges routed by the current TryPlace
};

}  // namespace cgra
