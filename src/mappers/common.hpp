// Shared machinery for the mapper collection.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "arch/arch.hpp"
#include "arch/mrrg.hpp"
#include "arch/mrrg_cache.hpp"
#include "ir/dfg.hpp"
#include "mapping/mapper.hpp"
#include "mapping/place_route.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"

namespace cgra {

/// The time-extended resource graph for `arch`: served from
/// options.mrrg_cache when the portfolio engine shares one, freshly
/// built otherwise. Mappers hold the returned pointer for the duration
/// of Map() so a cache Clear() cannot pull the graph out from under a
/// running search.
std::shared_ptr<const Mrrg> AcquireMrrg(const Architecture& arch,
                                        const MapperOptions& options);

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

/// `ops` sorted by (times[op], op): the order the fixed-schedule
/// binders place ops in, so producers tend to precede consumers.
std::vector<OpId> ScheduleOrder(std::vector<OpId> ops,
                                const std::vector<int>& times);

/// Cells allowed for each op (capability filter), optionally
/// restricted to `region` (HiMap-style sub-arrays).
std::vector<std::vector<int>> CandidateCellTable(
    const Dfg& dfg, const Architecture& arch,
    const std::vector<int>* region = nullptr);

/// The workhorse: iterative modulo place-and-route at a fixed II.
/// Schedules ops in `order`, placing each at the earliest feasible
/// (cell, time); on failure within the time window it evicts the
/// blocking ops (IMS-style "force and re-schedule") up to `budget`
/// evictions. Randomisation (`rng` non-null) turns it into CRIMSON-
/// style randomized IMS.
struct ImsOptions {
  int eviction_budget_factor = 8;  ///< budget = factor * num_ops
  Rng* rng = nullptr;              ///< shuffle cell order / time choice
  const std::vector<std::vector<int>>* candidate_cells = nullptr;
  int extra_slack = 8;             ///< window beyond ASAP for start times
  Deadline deadline;
  StopToken stop;                  ///< cooperative cancellation
};
Result<Mapping> ImsPlaceRoute(const Dfg& dfg, const Architecture& arch,
                              const Mrrg& mrrg, int ii,
                              const std::vector<OpId>& order,
                              const ImsOptions& options);

/// Binds ops to cells under an externally fixed schedule: depth-first
/// search in time order over affinity-ordered candidate cells, with a
/// budget of 20000 search nodes. Used by the decoupled schedulers (ILP
/// scheduling, CP realizations) whose "binding is someone else's
/// problem".
Result<Mapping> BindAtFixedTimes(const Dfg& dfg, const Architecture& arch,
                                 const Mrrg& mrrg, int ii,
                                 const std::vector<int>& times,
                                 const Deadline& deadline,
                                 const StopToken& stop = {});

/// True when `consumer` can read `producer`'s register file over one
/// direct link: the restricted-routing relation of the exact mappers.
bool DirectlyReadable(const Architecture& arch, int producer, int consumer);

/// Places every mappable op at the (cell, time) it is pinned to, in
/// pin-time order (std::sort of the ops in id order on time alone),
/// routing as it goes: the exact mappers' post-solve realization,
/// epimap's embedding realization, and epimap's and RAMP's projection
/// of a route-node-transformed mapping onto the original DFG (`pins`
/// may run past the DFG's ops). kUnmappable when a pin cannot be placed
/// or routed.
Result<Mapping> RealizePinned(const Dfg& dfg, const Architecture& arch,
                              const Mrrg& mrrg, int ii,
                              const std::vector<Placement>& pins);

/// Runs ObservedAttempt(ii) for ii from max(mii, 1) to min(max_ii,
/// arch max), returning the first success. Checks options.stop /
/// options.deadline before every attempt (this is how every escalating
/// mapper meets the MapperOptions cancellation contract).
Result<Mapping> EscalateIi(const Mapper& self, const Dfg& dfg,
                           const Architecture& arch,
                           const MapperOptions& options,
                           const std::function<Result<Mapping>(int)>& attempt);

/// The attempt bracket: every II attempt of every mapper runs inside
/// one. Checks stop/deadline, then runs `attempt()` under an `attempt`
/// span and the gated per-attempt SearchLog collector, and reports it
/// to options.observer as a kAttemptStart / kAttemptDone pair under
/// `self`'s name; the done event carries the attempt's AttemptRecord
/// (mapping/observer.hpp). Mappers that try exactly one II (the
/// spatial ones, pinned to II = 1) call it directly; EscalateIi and
/// the SMT mapper's schedule-length loop call it once per step.
Result<Mapping> ObservedAttempt(const Mapper& self,
                                const MapperOptions& options, int ii,
                                const std::function<Result<Mapping>()>& attempt);

/// True when every op of the DFG has at least one compatible cell (a
/// cheap pre-check that gives exact mappers their "prove infeasible"
/// behaviour early).
Status CheckMappable(const Dfg& dfg, const Architecture& arch);

}  // namespace cgra
