// Shared machinery for the mapper collection.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "arch/arch.hpp"
#include "arch/mrrg.hpp"
#include "graph/embed.hpp"
#include "ir/dfg.hpp"
#include "mapping/mapper.hpp"
#include "mapping/place_route.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"

namespace cgra {

/// True when options.stop or options.deadline says to give up; the
/// standard poll long loops pair with their iteration checks.
inline bool ShouldAbort(const MapperOptions& options) {
  return options.stop.StopRequested() || options.deadline.Expired();
}

/// Lower bounds on the initiation interval (§II-B modulo scheduling).
struct MiiBounds {
  int res_mii = 1;  ///< resource-constrained (per capability class)
  int rec_mii = 1;  ///< recurrence-constrained
  int mii() const { return res_mii > rec_mii ? res_mii : rec_mii; }
};
MiiBounds ComputeMii(const Dfg& dfg, const Architecture& arch, int max_ii);

/// Modulo-aware earliest start times: the least t per op satisfying
/// t_v >= t_u + 1 - II*distance over all dependence edges (Bellman-Ford
/// longest path; empty when the recurrence is infeasible at this II).
std::vector<int> ModuloAsap(const Dfg& dfg, const Architecture& arch, int ii);

/// Height-based priority: ops on longer paths to a sink first
/// (classic IMS ordering). Ties broken by op id for determinism.
std::vector<OpId> HeightPriorityOrder(const Dfg& dfg, const Architecture& arch);

/// The mappable ops in a topological order of the same-iteration edges
/// (TopologicalOrder over Dfg::ToDigraph(false), folded ops dropped):
/// the dependence-first order of the constructive and exact placers.
/// kInvalidArgument "DFG has a same-iteration cycle" when none exists.
Result<std::vector<OpId>> DependenceOrder(const Dfg& dfg,
                                          const Architecture& arch);

/// `ops` sorted by (times[op], op): the order the fixed-schedule
/// binders place ops in, so producers tend to precede consumers.
std::vector<OpId> ScheduleOrder(std::vector<OpId> ops,
                                const std::vector<int>& times);

/// The cells that can execute each op (capability filter), in cell
/// order and indexed by op id; empty for folded ops.
std::vector<std::vector<int>> CandidateCellTable(const Dfg& dfg,
                                                 const Architecture& arch);

/// The workhorse: iterative modulo place-and-route at a fixed II.
/// Schedules ops in `order`, placing each on one of its `candidates`
/// cells at the earliest feasible time no earlier than its `asap`
/// time; on failure within the time window it evicts the blocking ops
/// (IMS-style "force and re-schedule") up to `budget` evictions. The
/// window runs options.extra_slack cycles beyond the II slots, and
/// options.deadline and options.stop end the search. Randomisation
/// (`rng` non-null) turns it into CRIMSON-style randomized IMS.
struct ImsOptions {
  int eviction_budget_factor = 8;  ///< budget = factor * num_ops
  Rng* rng = nullptr;              ///< shuffle cell order / time choice
};
Result<Mapping> ImsPlaceRoute(const Dfg& dfg, const Architecture& arch, int ii,
                              const std::vector<int>& asap,
                              const std::vector<OpId>& order,
                              const std::vector<std::vector<int>>& candidates,
                              const MapperOptions& options,
                              const ImsOptions& ims = {});

/// Adds route = kRoute(producer), named "<producer>_rt", and moves every
/// second same-iteration operand of `producer` among ops
/// [0, consumers_end) onto it, in op then operand order: the routing
/// node EPIMap inserts and RAMP's remedy for a congested net. Returns
/// the route op.
OpId InsertRouteNode(Dfg& dfg, OpId producer, OpId consumers_end);

/// The fabric's "cell q reads cell p's register file over one direct
/// link" relation (Architecture::ReadableFrom) as a table: epimap's
/// embedding and PlacementSpace's restricted routing read it.
CellReads CellReadsOf(const Architecture& arch);

/// How PlaceDepthFirst ended: every op placed (the state holds the
/// mapping), every choice tried, or node budget / deadline / stop.
enum class DepthFirstOutcome { kPlaced, kExhausted, kStopped };

/// Fills `out` (empty on entry) with `op`'s (cell, time) choices in the
/// order to try them. Called when the search reaches `op`, so it may
/// read the placements made so far.
using PlaceChoices = std::function<void(OpId op, std::vector<Placement>& out)>;

/// The exact mappers' one backtracking placement search: at depth k it
/// tries each of choices(order[k]) with TryPlace, descends on success
/// and unplaces on the way back. Entering a node costs one unit of
/// `node_budget` and checks `deadline` and `stop`; a stopped search
/// unwinds at once. Unless placed, the state ends as it began.
DepthFirstOutcome PlaceDepthFirst(PlaceRouteState& state,
                                  const std::vector<OpId>& order,
                                  long long node_budget, const Deadline& deadline,
                                  const StopToken& stop, const PlaceChoices& choices);

/// The exact mappers' restricted-routing placement space: the one
/// statement of which op may sit on which cell at which cycle, up to a
/// horizon, and which consumer placements can read a producer. Every
/// ILP row, SAT clause and CP constraint of the exact column of Table I
/// ([34][41][15][53], [43][17][44]) is stated against it, as SAT-MapIt
/// (Tirelli et al.) and Walker & Anderson's connectivity ILP build
/// their space once.
///
/// Restricted routing ([34]'s direct-connect mode, [44]'s restricted
/// routing networks): a value waits in its producer's register file and
/// is read by a cell with a direct link. A dependence with iteration
/// distance d holds between its producer at (p, t) and its consumer at
/// (q, t2) when t2 + II*d >= t + 1 and q reads p over one link (or the
/// edge only orders the two ops). Longer routes are the heuristics'
/// territory: the exact mappers prove optimality or infeasibility only
/// within this relation and their horizon, which is the trade-off
/// §III-A describes, and each "no mapping" names that horizon.
class PlacementSpace {
 public:
  /// An edge whose producer is not folded, in Dfg::Edges() order,
  /// with dense endpoints (u == v for a self-loop).
  struct Dependence {
    std::size_t u, v;
    int distance;
    bool order_only;  ///< an ordering edge: timing alone
  };

  /// The space over cells x [0, horizon) at `ii`, every ASAP time 0.
  PlacementSpace(const Dfg& dfg, const Architecture& arch, int ii = 1,
                 int horizon = 1);
  /// The space at `ii` with the attempt's ModuloAsap times `asap` and
  /// the horizon T = max ASAP + `slack`.
  static PlacementSpace AtIi(const Dfg& dfg, const Architecture& arch, int ii,
                             const std::vector<int>& asap, int slack);

  /// MappableOps: op ops()[i] has dense index i.
  const std::vector<OpId>& ops() const { return ops_; }
  std::size_t size() const { return ops_.size(); }
  int cells() const { return cells_; }
  int horizon() const { return horizon_; }  ///< T: times run over [0, T)
  const std::vector<int>& asap() const { return asap_; }  ///< per op id
  int asap(std::size_t i) const { return asap_[static_cast<std::size_t>(ops_[i])]; }

  bool Capable(std::size_t i, int c) const { return capable_[i * cells_ + c] != 0; }
  /// Op i's domain: a capable cell, no earlier than its ASAP time.
  bool Allowed(std::size_t i, int c, int t) const {
    return Capable(i, c) && t >= asap(i);
  }
  /// (c, t) as one number, and (op i, c, t) as one dense index over
  /// ops, then cells, then times.
  int Pair(int c, int t) const { return c * horizon_ + t; }
  int Var(std::size_t i, int c, int t = 0) const {
    return static_cast<int>(i) * cells_ * horizon_ + Pair(c, t);
  }

  const std::vector<Dependence>& dependences() const { return deps_; }
  /// Cell q reads cell p's register file over one direct link.
  bool Reads(int p, int q) const {
    return ((reads_.Producers(q)[p / 64] >> (p % 64)) & 1) != 0;
  }
  /// The relation: `d` holds with its producer at (p, t) and its
  /// consumer at (q, t2).
  bool Consumes(const Dependence& d, int p, int t, int q, int t2) const {
    return t2 + ii_ * d.distance >= t + 1 && (d.order_only || Reads(p, q));
  }

  /// A solved model as RealizePinned's pins (by op id): op ops()[i] at
  /// the first (c, t), cells then times, that chosen(i, c, t) holds.
  std::vector<Placement> Pins(
      const std::function<bool(std::size_t, int, int)>& chosen) const;

  /// kUnmappable "<method> proved: no mapping at II=<ii> within a
  /// <T>-cycle horizon under restricted routing".
  Error NoMapping(const char* method) const;
  /// A solver's kUnmappable as NoMapping(method) plus its own text;
  /// any other error unchanged.
  Error Reword(const char* method, const Error& solver_error) const;

 private:
  std::vector<OpId> ops_;
  int cells_, ii_, horizon_;
  std::vector<int> asap_;
  std::vector<char> capable_;  ///< [i * cells + c]
  CellReads reads_;
  std::vector<Dependence> deps_;
};

/// Places every mappable op at the (cell, time) it is pinned to, in
/// pin-time order (std::sort of the ops in id order on time alone),
/// routing as it goes: the exact mappers' post-solve realization,
/// epimap's embedding realization, and epimap's and RAMP's projection
/// of a route-node-transformed mapping onto the original DFG (`pins`
/// may run past the DFG's ops). kUnmappable when a pin cannot be placed
/// or routed.
Result<Mapping> RealizePinned(const Dfg& dfg, const Architecture& arch,
                              int ii, const std::vector<Placement>& pins);

/// One II attempt's search: the II and its ModuloAsap schedule (each
/// op's earliest start at that II), which the attempt bracket computes.
using IiAttempt =
    std::function<Result<Mapping>(int ii, const std::vector<int>& asap)>;

/// Runs `attempt` in the attempt bracket for ii from max(mii, min_ii)
/// to min(max_ii, arch max), returning the first success. The bracket
/// computes the II's ModuloAsap schedule under a `phase.schedule` span
/// inside ObservedAttempt, and fails the attempt with "recurrences
/// infeasible at II=<ii>" when there is none. Runs CheckMappable first
/// and checks options.stop / options.deadline before every attempt
/// (this is how every escalating mapper meets the MapperOptions
/// cancellation contract).
Result<Mapping> EscalateIi(const Mapper& self, const Dfg& dfg,
                           const Architecture& arch,
                           const MapperOptions& options,
                           const IiAttempt& attempt);

/// A spatial mapper's one attempt: CheckMappable, then the same
/// bracket as EscalateIi's at II = 1 alone.
Result<Mapping> SpatialAttempt(const Mapper& self, const Dfg& dfg,
                               const Architecture& arch,
                               const MapperOptions& options,
                               const IiAttempt& attempt);

/// The observed half of the attempt bracket: every II attempt of every
/// mapper runs inside one. Checks stop/deadline, then runs `attempt()`
/// under an `attempt` span and the gated per-attempt SearchLog
/// collector, and reports it to options.observer as a kAttemptStart /
/// kAttemptDone pair under `self`'s name; the done event carries the
/// attempt's AttemptRecord (mapping/observer.hpp). EscalateIi and
/// SpatialAttempt call it once per II, the SMT mapper's schedule-length
/// loop once per length.
Result<Mapping> ObservedAttempt(const Mapper& self,
                                const MapperOptions& options, int ii,
                                const std::function<Result<Mapping>()>& attempt);

/// True when every op of the DFG has at least one compatible cell (a
/// cheap pre-check that gives exact mappers their "prove infeasible"
/// behaviour early).
Status CheckMappable(const Dfg& dfg, const Architecture& arch);

}  // namespace cgra
