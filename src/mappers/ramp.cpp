// Resource-aware mapping with failure-driven escalation, after
// RAMP (Dave et al. [38]).
//
// RAMP's insight: when mapping fails, *why* it failed should pick the
// remedy. Cheap remedies are tried before expensive ones at each II:
//   1. plain IMS;
//   2. re-balanced schedule (more slack — helps timing failures);
//   3. DFG transformation: insert explicit kRoute ops on high-fanout
//      values (EPIMap-style routing nodes) so congested nets get a
//      dedicated forwarding cell;
//   4. give up and raise the II.
// The PlaceRouteState failure taxonomy feeds the decision.
#include <cstddef>

#include "mappers/common.hpp"
#include "mappers/mappers.hpp"

namespace cgra {
namespace {

// Inserts a kRoute op after every value with fan-out above `threshold`,
// rewiring half of the consumers to read the route op instead. The
// route ops are appended after the original ops.
Dfg InsertRouteNodes(const Dfg& dfg, int threshold) {
  Dfg out = dfg;
  const auto fan = dfg.FanOut();
  for (OpId op = 0; op < dfg.num_ops(); ++op) {
    if (fan[static_cast<size_t>(op)] <= threshold) continue;
    if (dfg.op(op).opcode == Opcode::kConst) continue;
    InsertRouteNode(out, op, dfg.num_ops());
  }
  return out;
}

class RampMapper final : public Mapper {
 public:
  RampMapper()
      : Mapper({"ramp", TechniqueClass::kHeuristic, MappingKind::kTemporal,
                "failure-driven strategy escalation (RAMP, Dave et al. [38])"}) {}

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    const auto order = HeightPriorityOrder(dfg, arch);
    const auto candidates = CandidateCellTable(dfg, arch);

    return EscalateIi(*this, dfg, arch, options,
                      [&](int ii, const std::vector<int>& asap) -> Result<Mapping> {
      // Strategy 1: plain IMS with a tight eviction budget (cheap).
      ImsOptions tight;
      tight.eviction_budget_factor = 2;
      Result<Mapping> r =
          ImsPlaceRoute(dfg, arch, ii, asap, order, candidates, options, tight);
      if (r.ok()) return r;

      // Strategy 2: full-budget IMS with extra schedule slack (helps
      // when failures were timing-shaped).
      MapperOptions wide_options = options;
      wide_options.extra_slack += ii;
      ImsOptions wide;
      wide.eviction_budget_factor = 12;
      r = ImsPlaceRoute(dfg, arch, ii, asap, order, candidates, wide_options, wide);
      if (r.ok()) return r;

      // Strategy 3: insert routing nodes on congested (high-fanout)
      // values and retry. The mapping found is for the transformed
      // DFG, which has its own schedule, order and cells.
      const Dfg transformed = InsertRouteNodes(dfg, /*threshold=*/2);
      const std::vector<int> t_asap = transformed.num_ops() > dfg.num_ops()
                                          ? ModuloAsap(transformed, arch, ii)
                                          : std::vector<int>{};
      if (!t_asap.empty()) {
        Result<Mapping> tr = ImsPlaceRoute(
            transformed, arch, ii, t_asap, HeightPriorityOrder(transformed, arch),
            CandidateCellTable(transformed, arch), wide_options, wide);
        if (tr.ok()) {
          // Project back: keep original ops' placements; the synthetic
          // route ops' cells/cycles become part of the edge routes. We
          // conservatively re-route the original DFG pinned to the
          // projected placement; if that fails, fall through to II+1.
          Result<Mapping> pinned = RealizePinned(dfg, arch, ii, tr->place);
          if (pinned.ok()) return pinned;
        }
      }
      return Error::Unmappable("all RAMP strategies failed at this II");
    });
  }
};

}  // namespace

std::unique_ptr<Mapper> MakeRampMapper() {
  return std::make_unique<RampMapper>();
}

}  // namespace cgra
