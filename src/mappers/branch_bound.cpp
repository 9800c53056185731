// Branch-and-bound temporal mapper, after DNestMap [42].
//
// Exhaustive DFS over (cell, time) assignments in dependence order,
// with TryPlace pruning the subtree the moment a partial assignment is
// unroutable. Within its time horizon (ASAP + slack) the search is
// complete: if it terminates without a solution, no mapping exists at
// that II with schedule lengths inside the horizon — the exact-method
// behaviour Table I attributes to B&B. A deadline turns it into an
// anytime method (kResourceLimit instead of kUnmappable).
#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "mappers/common.hpp"
#include "mappers/mappers.hpp"
#include "support/str.hpp"

namespace cgra {
namespace {

class BranchBoundMapper final : public Mapper {
 public:
  BranchBoundMapper()
      : Mapper({"bnb", TechniqueClass::kExactIlp, MappingKind::kTemporal,
                "branch & bound over placements (DNestMap, Karunaratne et al. [42])"}) {}

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    const auto candidates = CandidateCellTable(dfg, arch);
    const auto order = DependenceOrder(dfg, arch);
    if (!order.ok()) return order.error();

    return EscalateIi(*this, dfg, arch, options,
                      [&](int ii, const std::vector<int>& asap) -> Result<Mapping> {
      // Start times run from the op's earliest start to the horizon.
      const PlacementSpace space = PlacementSpace::AtIi(
          dfg, arch, ii, asap, std::min(options.extra_slack, ii + 2) + 1);
      PlaceRouteState state(dfg, arch, ii);
      const DepthFirstOutcome outcome = PlaceDepthFirst(
          state, *order, std::numeric_limits<long long>::max(),
          options.deadline, options.stop,
          [&](OpId op, std::vector<Placement>& out) {
            const int t0 =
                state.EarliestStart(op, asap[static_cast<size_t>(op)]);
            for (int t = t0; t < space.horizon(); ++t) {
              for (const int cell : candidates[static_cast<size_t>(op)]) {
                out.push_back(Placement{cell, t});
              }
            }
          });
      if (outcome == DepthFirstOutcome::kPlaced) return state.Finalize();
      if (outcome == DepthFirstOutcome::kStopped) {
        return Error::ResourceLimit("branch & bound hit the deadline");
      }
      return Error::Unmappable(StrFormat(
          "B&B proved: no mapping at II=%d within a %d-cycle horizon", ii,
          space.horizon()));
    });
  }
};

}  // namespace

std::unique_ptr<Mapper> MakeBranchBoundMapper() {
  return std::make_unique<BranchBoundMapper>();
}

}  // namespace cgra
