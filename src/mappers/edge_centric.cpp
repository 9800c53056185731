// Edge-centric modulo scheduling, after Park et al.'s EMS [37].
//
// Op-centric schedulers pick a slot first and hope the routes exist;
// EMS inverts this: routing cost drives placement. For every op we
// evaluate ALL feasible (cell, time) pairs in its window and commit to
// the one whose incident edges route most cheaply — placement falls
// out of the routing search rather than preceding it. Ops are visited
// in decreasing edge criticality (height, then fan-out).
#include <algorithm>
#include <cstddef>
#include <limits>

#include "mappers/common.hpp"
#include "mappers/mappers.hpp"

namespace cgra {
namespace {

class EdgeCentricMapper final : public Mapper {
 public:
  std::string name() const override { return "ems"; }
  TechniqueClass technique() const override { return TechniqueClass::kHeuristic; }
  MappingKind kind() const override { return MappingKind::kTemporal; }
  std::string lineage() const override {
    return "edge-centric modulo scheduling (Park et al. [37])";
  }

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    const auto mrrg_ref = AcquireMrrg(arch, options);
    const Mrrg& mrrg = *mrrg_ref;
    const auto candidates = CandidateCellTable(dfg, arch);
    // Criticality order: height first, fan-out as tie-break (edges of
    // high-fan-out ops are the hardest nets to route).
    std::vector<OpId> order = HeightPriorityOrder(dfg, arch);
    const auto fan = dfg.FanOut();
    std::stable_sort(order.begin(), order.end(), [&](OpId a, OpId b) {
      return fan[static_cast<size_t>(a)] > fan[static_cast<size_t>(b)];
    });
    // Re-apply height as the primary key (stable sort keeps fan order
    // within equal heights).
    {
      std::vector<OpId> by_height = HeightPriorityOrder(dfg, arch);
      std::vector<int> hrank(static_cast<size_t>(dfg.num_ops()), 0);
      for (size_t i = 0; i < by_height.size(); ++i) hrank[static_cast<size_t>(by_height[i])] = static_cast<int>(i);
      std::stable_sort(order.begin(), order.end(), [&](OpId a, OpId b) {
        return hrank[static_cast<size_t>(a)] < hrank[static_cast<size_t>(b)];
      });
    }

    return EscalateIi(*this, dfg, arch, options, [&](int ii) -> Result<Mapping> {
      const auto est = ModuloAsap(dfg, arch, ii);
      if (est.empty()) {
        return Error::Unmappable("recurrences infeasible at this II");
      }
      PlaceRouteState state(dfg, arch, mrrg, ii);
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
