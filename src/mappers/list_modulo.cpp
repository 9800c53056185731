// Iterative modulo scheduling (IMS) and its randomized variant.
//
// IMS is the survey's "most widely used technique to map loops on the
// CGRA" (§III-B2): height-priority list scheduling into a modulo
// reservation table, with eviction ("force and re-schedule") when an
// op's window is full, escalating II when the budget runs out — the
// shape introduced by Rau and brought to CGRAs by Mei et al. [61].
//
// CRIMSON [52] observed that the deterministic priority order explores
// a tiny corner of the solution space and randomizes it: random
// priority perturbations and randomized (cell, time) choices across
// restarts, keeping the best II found.
#include <algorithm>
#include <cstddef>

#include "mappers/common.hpp"
#include "mappers/mappers.hpp"
#include "support/rng.hpp"

namespace cgra {
namespace {

class IterativeModuloScheduler final : public Mapper {
 public:
  IterativeModuloScheduler()
      : Mapper({"ims", TechniqueClass::kHeuristic, MappingKind::kTemporal,
                "iterative modulo scheduling (Rau; Mei et al. [61], DRESC flow)"}) {}

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    const auto order = HeightPriorityOrder(dfg, arch);
    const auto candidates = CandidateCellTable(dfg, arch);
    return EscalateIi(*this, dfg, arch, options,
                      [&](int ii, const std::vector<int>& asap) {
                        return ImsPlaceRoute(dfg, arch, ii, asap, order,
                                             candidates, options);
                      });
  }
};

class CrimsonScheduler final : public Mapper {
 public:
  CrimsonScheduler()
      : Mapper({"crimson", TechniqueClass::kHeuristic, MappingKind::kScheduling,
                "randomized iterative modulo scheduling (CRIMSON [52])"}) {}

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    Rng rng(options.seed);
    const auto base_order = HeightPriorityOrder(dfg, arch);
    const auto candidates = CandidateCellTable(dfg, arch);
    constexpr int kRestartsPerIi = 6;

    return EscalateIi(*this, dfg, arch, options,
                      [&](int ii, const std::vector<int>& asap) -> Result<Mapping> {
      Error last = Error::Unmappable("no randomized restart succeeded");
      for (int restart = 0; restart < kRestartsPerIi; ++restart) {
        if (ShouldAbort(options)) {
          return Error::ResourceLimit("CRIMSON deadline expired");
        }
        // Random priority perturbation: swap a few adjacent ranks.
        std::vector<OpId> order = base_order;
        const int swaps = static_cast<int>(order.size()) / 3 + 1;
        for (int s = 0; s < swaps && order.size() > 1; ++s) {
          const size_t i = rng.NextIndex(order.size() - 1);
          std::swap(order[i], order[i + 1]);
        }
        Rng attempt_rng = rng.Split();
        ImsOptions ims;
        ims.rng = &attempt_rng;
        Result<Mapping> r =
            ImsPlaceRoute(dfg, arch, ii, asap, order, candidates, options, ims);
        if (r.ok()) return r;
        last = r.error();
      }
      return last;
    });
  }
};

}  // namespace

std::unique_ptr<Mapper> MakeIterativeModuloScheduler() {
  return std::make_unique<IterativeModuloScheduler>();
}

std::unique_ptr<Mapper> MakeCrimsonScheduler() {
  return std::make_unique<CrimsonScheduler>();
}

}  // namespace cgra
