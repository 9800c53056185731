// Spatial greedy mapper.
//
// The "straight forward mapping" of Fig. 3: every op gets its own cell
// (II = 1), iterations stream through the resulting pipeline. Ops are
// placed in dependence order on the capability-compatible cell with
// the best affinity (hop distance to already-placed neighbours), in
// the spirit of the constructive spatial mappers the survey cites for
// streaming workloads (ChordMap [31]).
#include <cstddef>

#include "graph/algos.hpp"
#include "mappers/common.hpp"
#include "mappers/mappers.hpp"

namespace cgra {
namespace {

class SpatialGreedyMapper final : public Mapper {
 public:
  std::string name() const override { return "greedy-spatial"; }
  TechniqueClass technique() const override { return TechniqueClass::kHeuristic; }
  MappingKind kind() const override { return MappingKind::kSpatial; }
  std::string lineage() const override {
    return "constructive spatial placement (cf. ChordMap [31], SPKM [23])";
  }

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    if (Status s = CheckMappable(dfg, arch); !s.ok()) return s.error();
    // Spatial mapping is modulo scheduling at II = 1: each cell hosts
    // exactly one op and is busy every cycle.
    // Dependence-first order (topological over same-iteration edges),
    // so affinity information exists when each op is placed.
    const auto topo = TopologicalOrder(dfg.ToDigraph(/*include_carried=*/false));
    if (!topo) return Error::InvalidArgument("DFG has a same-iteration cycle");
    std::vector<OpId> order;
    for (OpId op : *topo) {
      if (!arch.IsFolded(dfg.op(op).opcode)) order.push_back(op);
    }
    ImsOptions ims;
    ims.deadline = options.deadline;
    ims.stop = options.stop;
    ims.extra_slack = options.extra_slack;
    return ObservedAttempt(*this, options, /*ii=*/1, [&]() {
      return ImsPlaceRoute(dfg, arch, /*ii=*/1, order, ims);
    });
  }
};

}  // namespace

std::unique_ptr<Mapper> MakeSpatialGreedyMapper() {
  return std::make_unique<SpatialGreedyMapper>();
}

}  // namespace cgra
