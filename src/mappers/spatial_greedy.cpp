// Spatial greedy mapper.
//
// The "straight forward mapping" of Fig. 3: every op gets its own cell
// (II = 1), iterations stream through the resulting pipeline. Ops are
// placed in dependence order on the capability-compatible cell with
// the best affinity (hop distance to already-placed neighbours), in
// the spirit of the constructive spatial mappers the survey cites for
// streaming workloads (ChordMap [31]).
#include <cstddef>

#include "mappers/common.hpp"
#include "mappers/mappers.hpp"

namespace cgra {
namespace {

class SpatialGreedyMapper final : public Mapper {
 public:
  SpatialGreedyMapper()
      : Mapper({"greedy-spatial", TechniqueClass::kHeuristic, MappingKind::kSpatial,
                "constructive spatial placement (cf. ChordMap [31], SPKM [23])"}) {}

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    // Spatial mapping is modulo scheduling at II = 1: each cell hosts
    // exactly one op and is busy every cycle.
    // Dependence-first order, so affinity information exists when each
    // op is placed.
    const auto order = DependenceOrder(dfg, arch);
    if (!order.ok()) return order.error();
    const auto candidates = CandidateCellTable(dfg, arch);
    return SpatialAttempt(*this, dfg, arch, options,
                          [&](int ii, const std::vector<int>& asap) {
                            return ImsPlaceRoute(dfg, arch, ii, asap, *order,
                                                 candidates, options);
                          });
  }
};

}  // namespace

std::unique_ptr<Mapper> MakeSpatialGreedyMapper() {
  return std::make_unique<SpatialGreedyMapper>();
}

}  // namespace cgra
