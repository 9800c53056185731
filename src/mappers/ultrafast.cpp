// Ultra-fast scheduler, after Lee & Carlson [16].
//
// Built for run-time (re)compilation: a single greedy pass, no
// eviction, no backtracking — every op is dropped at its earliest
// feasible slot on the first cell that accepts it, with candidate cell
// lists precomputed once. When the pass fails the II escalates
// immediately. Trades mapping quality (higher II) for orders of
// magnitude less work, which is exactly the trade the Table I bench
// shows against IMS.
#include <algorithm>
#include <cstddef>

#include "mappers/common.hpp"
#include "mappers/mappers.hpp"

namespace cgra {
namespace {

class UltraFastScheduler final : public Mapper {
 public:
  UltraFastScheduler()
      : Mapper({"ultrafast", TechniqueClass::kHeuristic, MappingKind::kTemporal,
                "ultra-fast single-pass scheduling (Lee & Carlson [16])"}) {}

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    const auto candidates = CandidateCellTable(dfg, arch);
    // Dependence order (not height priority: cheapest possible order).
    const auto order = DependenceOrder(dfg, arch);
    if (!order.ok()) return order.error();

    return EscalateIi(*this, dfg, arch, options,
                      [&](int ii, const std::vector<int>& est) -> Result<Mapping> {
      PlaceRouteState state(dfg, arch, ii);
      for (const OpId op : *order) {
        const int t = state.EarliestStart(op, est[static_cast<size_t>(op)]);
        // Carried self-dependences cap how far the op may slide.
        bool can_slide = true;
        for (const int e : state.IncidentEdges(op)) {
          const DfgEdge& edge = state.edge(e);
          if (edge.from == op && edge.to == op && edge.distance > 0) {
            can_slide = false;
          }
        }
        bool placed = false;
        // One window of II slots, first-fit cell; no second chances.
        for (int dt = 0; dt < ii + options.extra_slack && !placed; ++dt) {
          for (int cell : candidates[static_cast<size_t>(op)]) {
            if (state.TryPlace(op, cell, t + dt)) {
              placed = true;
              break;
            }
          }
          if (!can_slide) break;
        }
        if (!placed) {
          return Error::Unmappable("single-pass scheduling failed at this II");
        }
      }
      return state.Finalize();
    });
  }
};

}  // namespace

std::unique_ptr<Mapper> MakeUltraFastScheduler() {
  return std::make_unique<UltraFastScheduler>();
}

}  // namespace cgra
