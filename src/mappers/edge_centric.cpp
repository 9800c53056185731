// Edge-centric modulo scheduling, after Park et al.'s EMS [37].
//
// Op-centric schedulers pick a slot first and hope the routes exist;
// EMS inverts this: routing cost drives placement. For every op we
// evaluate ALL feasible (cell, time) pairs in its window and commit to
// the one whose incident edges route most cheaply — placement falls
// out of the routing search rather than preceding it. Ops are visited
// in decreasing edge criticality (height, then id).
#include <cstddef>
#include <limits>

#include "mappers/common.hpp"
#include "mappers/mappers.hpp"

namespace cgra {
namespace {

class EdgeCentricMapper final : public Mapper {
 public:
  EdgeCentricMapper()
      : Mapper({"ems", TechniqueClass::kHeuristic, MappingKind::kTemporal,
                "edge-centric modulo scheduling (Park et al. [37])"}) {}

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    const auto candidates = CandidateCellTable(dfg, arch);
    // Criticality order: height, then id.
    const std::vector<OpId> order = HeightPriorityOrder(dfg, arch);

    return EscalateIi(*this, dfg, arch, options,
                      [&](int ii, const std::vector<int>& est) -> Result<Mapping> {
      PlaceRouteState state(dfg, arch, ii);
      for (OpId op : order) {
        if (ShouldAbort(options)) {
          return Error::ResourceLimit("EMS deadline expired");
        }
        const int t0 = state.EarliestStart(op, est[static_cast<size_t>(op)]);
        // Exhaustive window scan; keep the cheapest-routing placement.
        // The window spans the II slots plus slack start cycles (at
        // II=1 a bare window would be a single candidate time).
        int best_cost = std::numeric_limits<int>::max();
        int best_cell = -1, best_time = -1;
        for (int t = t0; t < t0 + ii + options.extra_slack; ++t) {
          for (int cell : candidates[static_cast<size_t>(op)]) {
            if (!state.TryPlace(op, cell, t)) continue;
            const int cost = state.last_route_steps() * ii + (t - t0);
            state.Unplace(op);
            if (cost < best_cost) {
              best_cost = cost;
              best_cell = cell;
              best_time = t;
            }
          }
        }
        if (best_cell < 0 || !state.TryPlace(op, best_cell, best_time)) {
          return Error::Unmappable("no routable placement in the window");
        }
      }
      return state.Finalize();
    });
  }
};

}  // namespace

std::unique_ptr<Mapper> MakeEdgeCentricMapper() {
  return std::make_unique<EdgeCentricMapper>();
}

}  // namespace cgra
