// The mapper collection: one representative implementation per cell of
// the survey's Table I. See DESIGN.md §3 for the coverage map and the
// lineage of each algorithm.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "mapping/mapper.hpp"

namespace cgra {

// ---- heuristics -------------------------------------------------------------
std::unique_ptr<Mapper> MakeSpatialGreedyMapper();      ///< spatial, greedy list
std::unique_ptr<Mapper> MakeGraphDrawingMapper();       ///< spatial, Yoon [23]
std::unique_ptr<Mapper> MakeIterativeModuloScheduler(); ///< temporal, Rau IMS / Mei [61]
std::unique_ptr<Mapper> MakeUltraFastScheduler();       ///< temporal, Lee&Carlson [16]
std::unique_ptr<Mapper> MakeEdgeCentricMapper();        ///< temporal, EMS [37]
std::unique_ptr<Mapper> MakeRampMapper();               ///< temporal, RAMP [38]
std::unique_ptr<Mapper> MakeEpimapStyleMapper();        ///< binding, EPIMap [28]
std::unique_ptr<Mapper> MakeBackwardBeamMapper();       ///< binding, Peyret [47]/Das [24]
std::unique_ptr<Mapper> MakeCrimsonScheduler();         ///< scheduling, CRIMSON [52]
std::unique_ptr<Mapper> MakeHierarchicalMapper();       ///< temporal, HiMap [26]

// ---- meta-heuristics ---------------------------------------------------------
std::unique_ptr<Mapper> MakeAnnealingSpatialMapper();   ///< spatial SA, SNAFU/DSAGEN
std::unique_ptr<Mapper> MakeDrescAnnealingMapper();     ///< temporal SA, DRESC [22]
std::unique_ptr<Mapper> MakeAnnealingBinder();          ///< binding SA, SPR [49]
std::unique_ptr<Mapper> MakeGeneticSpatialMapper();     ///< spatial GA, GenMap [19]
std::unique_ptr<Mapper> MakeQeaBinder();                ///< binding QEA, Lee [48]

// ---- exact: ILP / branch & bound ---------------------------------------------
std::unique_ptr<Mapper> MakeIlpSpatialMapper();         ///< Chin&Anderson [34]
std::unique_ptr<Mapper> MakeIlpTemporalMapper();        ///< Brenner [41]
std::unique_ptr<Mapper> MakeIlpBinder();                ///< Guo [15]
std::unique_ptr<Mapper> MakeIlpScheduler();             ///< Mu [53]
std::unique_ptr<Mapper> MakeBranchBoundMapper();        ///< DNestMap [42] + pruning [24]

// ---- exact: CSP ----------------------------------------------------------------
std::unique_ptr<Mapper> MakeCpTemporalMapper();         ///< Raffin [43]
std::unique_ptr<Mapper> MakeSatTemporalMapper();        ///< Miyasaka [17]
std::unique_ptr<Mapper> MakeSmtTemporalMapper();        ///< Donovick [44]

// ---- test fixtures (registry Find-only; never enumerated) -------------------
std::unique_ptr<Mapper> MakeThrowingMapper();           ///< throws from Map()
// The `crashy` family: survivable only behind the process sandbox
// (EngineOptions::isolation); the chaos harness races them by name.
std::unique_ptr<Mapper> MakeSegvMapper();               ///< SIGSEGVs in Map()
std::unique_ptr<Mapper> MakeSpinMapper();               ///< never returns
std::unique_ptr<Mapper> MakeAllocBombMapper();          ///< allocates forever

// Test-only visibility into the annealers' incremental cost and their
// capacity-blind route memo (src/mappers/annealing.cpp).
namespace annealing_internal {

struct CostCheck {
  int cost_checks = 0;       ///< incremental cost compared with a recount
  int cost_mismatches = 0;
  int route_checks = 0;      ///< memoised routes compared with the router
  int route_mismatches = 0;
};

/// Runs `moves` seeded annealer moves at `ii` on (dfg, arch), undoing
/// each with probability 1/2; times move freely, or stay fixed at the
/// modulo-ASAP schedule when `fixed_times`. After the initial
/// assignment and after every Mutate and Undo, compares the incremental
/// cost with a full recount, and the moved op's memoised routes (every
/// op's after the initial assignment) with fresh blind RouteValue calls
/// for the same request and for it shifted by +1 and by +ii cycles.
CostCheck CheckIncrementalCost(const Dfg& dfg, const Architecture& arch, int ii,
                               bool fixed_times, std::uint64_t seed, int moves);

}  // namespace annealing_internal

// Test-only visibility into the population mappers' per-II genome memo
// (src/mappers/evolutionary.cpp).
namespace evolutionary_internal {

struct MemoCheck {
  int scored = 0;        ///< genomes scored through the memoising scorers
  int hits = 0;          ///< of those, answered from the memo
  std::string mismatch;  ///< the first disagreement; empty when none
};

/// Draws one seeded stream of `genomes` genomes over (dfg, arch) that
/// repeats earlier genomes and redraws one gene of earlier genomes on
/// purpose, and scores it at `ii` and at `ii + 1` through one memoising
/// scorer per II, as ga-spatial and qea-bind keep them. Every genome is
/// also realized on a fresh PlaceRouteState; `mismatch` names the first
/// whose placed count or route steps differ. A genome that places every
/// op ends the mappers' search, so it is left out of the scorers.
MemoCheck CheckGenomeMemo(const Dfg& dfg, const Architecture& arch, int ii,
                          std::uint64_t seed, int genomes);

}  // namespace evolutionary_internal

}  // namespace cgra
