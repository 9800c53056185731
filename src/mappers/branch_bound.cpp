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
#include <functional>

#include "graph/algos.hpp"
#include "mappers/common.hpp"
#include "mappers/mappers.hpp"

namespace cgra {
namespace {

class BranchBoundMapper final : public Mapper {
 public:
  std::string name() const override { return "bnb"; }
  TechniqueClass technique() const override { return TechniqueClass::kExactIlp; }
  MappingKind kind() const override { return MappingKind::kTemporal; }
  std::string lineage() const override {
    return "branch & bound over placements (DNestMap, Karunaratne et al. [42])";
  }

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    const auto mrrg_ref = AcquireMrrg(arch, options);
    const Mrrg& mrrg = *mrrg_ref;
    const auto candidates = CandidateCellTable(dfg, arch);
    const auto topo = TopologicalOrder(dfg.ToDigraph(/*include_carried=*/false));
    if (!topo) return Error::InvalidArgument("DFG has a same-iteration cycle");
    std::vector<OpId> order;
    for (OpId op : *topo) {
      if (!arch.IsFolded(dfg.op(op).opcode)) order.push_back(op);
    }

    return EscalateIi(*this, dfg, arch, options, [&](int ii) -> Result<Mapping> {
      const auto est = ModuloAsap(dfg, arch, ii);
      if (est.empty()) {
        return Error::Unmappable("recurrences infeasible at this II");
      }
      const int horizon = *std::max_element(est.begin(), est.end()) +
                          std::min(options.extra_slack, ii + 2);
      PlaceRouteState state(dfg, arch, mrrg, ii);
      bool timed_out = false;

      // Depth-first with explicit recursion over `order`.
      std::function<bool(size_t)> dfs = [&](size_t depth) -> bool {
        if (depth == order.size()) return true;
        if (ShouldAbort(options)) {
          timed_out = true;
          return false;
        }
        const OpId op = order[depth];
        const int t0 = state.EarliestStart(op, est[static_cast<size_t>(op)]);
        for (int t = t0; t <= horizon; ++t) {
          for (int cell : candidates[static_cast<size_t>(op)]) {
            if (state.TryPlace(op, cell, t)) {
              if (dfs(depth + 1)) return true;
              state.Unplace(op);
              if (timed_out) return false;
            }
          }
        }
        return false;
      };

      if (dfs(0)) return state.Finalize();
      if (timed_out) {
        return Error::ResourceLimit("branch & bound hit the deadline");
      }
      return Error::Unmappable(
          "B&B proved: no mapping at this II within the schedule horizon");
    });
  }
};

}  // namespace

std::unique_ptr<Mapper> MakeBranchBoundMapper() {
  return std::make_unique<BranchBoundMapper>();
}

}  // namespace cgra
