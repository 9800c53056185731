// Hierarchical mapping for scalability, after HiMap [26].
//
// Flat mappers degrade on big arrays because the search space grows
// with (cells x slots)^ops. HiMap's answer — and this mapper's — is
// divide and conquer: cluster the DFG (Kernighan-Lin recursive
// bisection), carve the fabric into sub-arrays (quadrants), pin each
// cluster into its own sub-array, and let the detailed placer work in
// the tiny per-cluster space; only inter-cluster edges cross regions.
// The scalability bench (DESIGN.md "§IV-B scalability") measures this
// against flat IMS on 4x4 -> 16x16 fabrics.
#include <algorithm>
#include <cstddef>

#include "graph/partition.hpp"
#include "mappers/common.hpp"
#include "mappers/mappers.hpp"
#include "support/rng.hpp"

namespace cgra {
namespace {

class HierarchicalMapper final : public Mapper {
 public:
  std::string name() const override { return "himap"; }
  TechniqueClass technique() const override { return TechniqueClass::kHeuristic; }
  MappingKind kind() const override { return MappingKind::kTemporal; }
  std::string lineage() const override {
    return "hierarchical clustering + per-region mapping (HiMap [26])";
  }

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    const auto order = HeightPriorityOrder(dfg, arch);
    Rng rng(options.seed);

    // Small fabrics gain nothing from hierarchy: delegate to flat IMS.
    const bool split = arch.rows() >= 4 && arch.cols() >= 4 &&
                       static_cast<int>(order.size()) >= 6;
    std::vector<std::vector<int>> restricted;
    if (split) {
      // Quadrant regions.
      std::vector<std::vector<int>> region(4);
      for (int c = 0; c < arch.num_cells(); ++c) {
        const int qr = arch.RowOf(c) < arch.rows() / 2 ? 0 : 1;
        const int qc = arch.ColOf(c) < arch.cols() / 2 ? 0 : 1;
        region[static_cast<size_t>(qr * 2 + qc)].push_back(c);
      }
      // DFG clusters (4-way).
      const Digraph g = dfg.ToDigraph(true);
      const std::vector<int> cluster = RecursiveBisection(g, 4, rng);
      // Per-op candidate cells: capability within the cluster's region,
      // falling back to the whole fabric when the region lacks the
      // needed capability (e.g. memory column in one quadrant only).
      restricted.resize(static_cast<size_t>(dfg.num_ops()));
      for (OpId op = 0; op < dfg.num_ops(); ++op) {
        if (arch.IsFolded(dfg.op(op).opcode)) continue;
        for (int c : region[static_cast<size_t>(cluster[static_cast<size_t>(op)])]) {
          if (arch.CanExecute(c, dfg.op(op))) {
            restricted[static_cast<size_t>(op)].push_back(c);
          }
        }
        if (restricted[static_cast<size_t>(op)].empty()) {
          for (int c = 0; c < arch.num_cells(); ++c) {
            if (arch.CanExecute(c, dfg.op(op))) {
              restricted[static_cast<size_t>(op)].push_back(c);
            }
          }
        }
      }
    }

    return EscalateIi(*this, dfg, arch, options, [&](int ii) -> Result<Mapping> {
      ImsOptions ims;
      ims.deadline = options.deadline;
      ims.stop = options.stop;
      ims.extra_slack = options.extra_slack;
      if (split) ims.candidate_cells = &restricted;
      Result<Mapping> r = ImsPlaceRoute(dfg, arch, ii, order, ims);
      if (r.ok() || !split) return r;
      // HiMap "terminates when a valid mapping is found": if the
      // hierarchical restriction was too tight at this II, retry flat
      // before escalating.
      ims.candidate_cells = nullptr;
      return ImsPlaceRoute(dfg, arch, ii, order, ims);
    });
  }
};

}  // namespace

std::unique_ptr<Mapper> MakeHierarchicalMapper() {
  return std::make_unique<HierarchicalMapper>();
}

}  // namespace cgra
