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
// rewiring half of the consumers to read the route op instead. Returns
// the transformed DFG plus a map from new ops back to kNoOp (they are
// synthetic) so the final Mapping can be translated back.
struct RouteInsertion {
  Dfg dfg;
  int synthetic_from = 0;  ///< ops >= this index are synthetic routes
};

RouteInsertion InsertRouteNodes(const Dfg& dfg, int threshold) {
  RouteInsertion out;
  out.dfg = dfg;
  out.synthetic_from = dfg.num_ops();
  const auto fan = dfg.FanOut();
  for (OpId op = 0; op < dfg.num_ops(); ++op) {
    if (fan[static_cast<size_t>(op)] <= threshold) continue;
    if (dfg.op(op).opcode == Opcode::kConst) continue;
    // Add route = kRoute(op); rewire every second same-iteration
    // consumer port from `op` to the route op.
    const OpId route = out.dfg.AddUnary(Opcode::kRoute, op,
                                        dfg.op(op).name + "_rt");
    int toggle = 0;
    for (OpId consumer = 0; consumer < out.synthetic_from; ++consumer) {
      if (consumer == route) continue;
      Op& c = out.dfg.mutable_op(consumer);
      for (Operand& operand : c.operands) {
        if (operand.producer == op && operand.distance == 0 &&
            consumer != route) {
          if (toggle++ % 2 == 1) operand.producer = route;
        }
      }
    }
  }
  return out;
}

// Shrinks a mapping over the transformed DFG back to the original op
// set. Synthetic route ops keep their placements invisible: their FU
// slots were genuinely consumed, so the mapping stays valid only in
// the transformed DFG — we therefore return the TRANSFORMED pair.
// The caller exposes the transformed DFG alongside the mapping.

class RampMapper final : public Mapper {
 public:
  std::string name() const override { return "ramp"; }
  TechniqueClass technique() const override { return TechniqueClass::kHeuristic; }
  MappingKind kind() const override { return MappingKind::kTemporal; }
  std::string lineage() const override {
    return "failure-driven strategy escalation (RAMP, Dave et al. [38])";
  }

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    const auto order = HeightPriorityOrder(dfg, arch);

    return EscalateIi(*this, dfg, arch, options, [&](int ii) -> Result<Mapping> {
      // Strategy 1: plain IMS with a tight eviction budget (cheap).
      ImsOptions tight;
      tight.deadline = options.deadline;
      tight.stop = options.stop;
      tight.eviction_budget_factor = 2;
      tight.extra_slack = options.extra_slack;
      Result<Mapping> r = ImsPlaceRoute(dfg, arch, ii, order, tight);
      if (r.ok()) return r;

      // Strategy 2: full-budget IMS with extra schedule slack (helps
      // when failures were timing-shaped).
      ImsOptions wide;
      wide.deadline = options.deadline;
      wide.stop = options.stop;
      wide.eviction_budget_factor = 12;
      wide.extra_slack = options.extra_slack + ii;
      r = ImsPlaceRoute(dfg, arch, ii, order, wide);
      if (r.ok()) return r;

      // Strategy 3: insert routing nodes on congested (high-fanout)
      // values and retry. Note the returned mapping is for the
      // transformed DFG — callers must remap through the same
      // transformation; to keep the public contract simple we only
      // accept it if it also validates against a re-derived transform.
      const RouteInsertion transformed = InsertRouteNodes(dfg, /*threshold=*/2);
      if (transformed.dfg.num_ops() > transformed.synthetic_from) {
        const auto t_order = HeightPriorityOrder(transformed.dfg, arch);
        Result<Mapping> tr =
            ImsPlaceRoute(transformed.dfg, arch, ii, t_order, wide);
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
