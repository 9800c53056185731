// Graph-drawing-based spatial mapper, after Yoon et al. [23].
//
// Treats placement as a drawing problem: a force-directed layout of
// the DFG pulls connected ops together; the continuous positions are
// then legalised onto the PE grid with a minimum-cost assignment
// (Hungarian), with per-pair costs mixing geometric distance and
// capability feasibility. Scheduling is ASAP; routing uses the real
// router. Retries with fresh layouts on failure.
#include <cmath>
#include <cstddef>

#include "graph/layout.hpp"
#include "graph/matching.hpp"
#include "mappers/common.hpp"
#include "mappers/mappers.hpp"
#include "support/rng.hpp"

namespace cgra {
namespace {

class GraphDrawingMapper final : public Mapper {
 public:
  GraphDrawingMapper()
      : Mapper({"graph-drawing", TechniqueClass::kHeuristic, MappingKind::kSpatial,
                "graph drawing based spatial mapping (Yoon et al. [23])"}) {}

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    Rng rng(options.seed);

    const std::vector<OpId> mappable = MappableOps(dfg, arch);
    if (static_cast<int>(mappable.size()) > arch.num_cells()) {
      return Error::Unmappable("more ops than cells: spatial mapping impossible");
    }

    // The drawing operates on the compacted op graph.
    Digraph g(static_cast<int>(mappable.size()));
    std::vector<int> compact(static_cast<size_t>(dfg.num_ops()), -1);
    for (size_t i = 0; i < mappable.size(); ++i) compact[static_cast<size_t>(mappable[i])] = static_cast<int>(i);
    for (const DfgEdge& e : dfg.Edges()) {
      if (compact[static_cast<size_t>(e.from)] >= 0 && compact[static_cast<size_t>(e.to)] >= 0) {
        g.AddEdge(compact[static_cast<size_t>(e.from)], compact[static_cast<size_t>(e.to)]);
      }
    }

    // All layout restarts are one II=1 attempt from the trace's point
    // of view.
    return SpatialAttempt(*this, dfg, arch, options,
                          [&](int ii, const std::vector<int>& est) -> Result<Mapping> {
    const std::vector<OpId> order = ScheduleOrder(mappable, est);
    Error last = Error::Unmappable("no layout attempt succeeded");
    for (int attempt = 0; attempt < 8; ++attempt) {
      if (ShouldAbort(options)) {
        return Error::ResourceLimit("graph-drawing deadline expired");
      }
      LayoutOptions lo;
      lo.area_width = arch.cols();
      lo.area_height = arch.rows();
      const auto pos = ForceDirectedLayout(g, rng, lo);

      // Legalise: assignment ops -> cells minimising distance; forbid
      // incompatible pairs.
      std::vector<std::vector<std::int64_t>> cost(
          mappable.size(),
          std::vector<std::int64_t>(static_cast<size_t>(arch.num_cells()), 0));
      for (size_t i = 0; i < mappable.size(); ++i) {
        for (int c = 0; c < arch.num_cells(); ++c) {
          if (!arch.CanExecute(c, dfg.op(mappable[i]))) {
            cost[i][static_cast<size_t>(c)] = kInfeasibleAssign;
            continue;
          }
          const double dx = pos[i].x - (arch.ColOf(c) + 0.5);
          const double dy = pos[i].y - (arch.RowOf(c) + 0.5);
          cost[i][static_cast<size_t>(c)] =
              static_cast<std::int64_t>(100.0 * std::sqrt(dx * dx + dy * dy));
        }
      }
      const std::vector<int> assign = HungarianAssign(cost);
      if (assign.empty()) {
        last = Error::Unmappable("no feasible legalisation of the drawing");
        continue;
      }

      // Place in ASAP order on the assigned cells and route for real.
      PlaceRouteState state(dfg, arch, ii);
      bool ok = true;
      for (OpId op : order) {
        const int cell = assign[static_cast<size_t>(compact[static_cast<size_t>(op)])];
        // Earliest time compatible with already-placed producers.
        const int t = state.EarliestStart(op, est[static_cast<size_t>(op)]);
        bool placed = false;
        for (int dt = 0; dt <= options.extra_slack && !placed; ++dt) {
          placed = state.TryPlace(op, cell, t + dt);
        }
        if (!placed) {
          ok = false;
          last = Error::Unmappable("drawing legalisation not routable");
          break;
        }
      }
      if (ok) return state.Finalize();
    }
    return last;
    });
  }
};

}  // namespace

std::unique_ptr<Mapper> MakeGraphDrawingMapper() {
  return std::make_unique<GraphDrawingMapper>();
}

}  // namespace cgra
