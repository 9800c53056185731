// EPIMap-style binding, after Hamzeh et al. [28] (the backward
// simultaneous variant of Peyret [47] uses the same compatibility
// machinery).
//
// The schedule is produced first (modulo-ASAP levels); binding is then
// the problem of embedding the scheduled DFG into the time-extended
// CGRA graph. EPIMap keeps only complete embeddings, and with time
// fixed that is subgraph monomorphism over space: the first full
// embedding of the scheduled ops into (cell, slot) pairs where every
// op's cell can execute it at its slot and every dependence is a
// one-hop-or-wait transfer (the space/time decoupling of Tirelli et
// al., PAPERS.md; graph/embed.hpp). When no full embedding exists, the
// DFG is transformed the EPIMap way — a kRoute node is inserted to
// stretch the failing edge — and the process repeats (the
// "epimorphism" iteration).
#include <cstddef>

#include "graph/embed.hpp"
#include "mappers/common.hpp"
#include "mappers/mappers.hpp"

namespace cgra {
namespace {

class EpimapStyleMapper final : public Mapper {
 public:
  std::string name() const override { return "epimap"; }
  TechniqueClass technique() const override { return TechniqueClass::kHeuristic; }
  MappingKind kind() const override { return MappingKind::kBinding; }
  std::string lineage() const override {
    return "first full embedding (monomorphism) after the schedule fixes "
           "time, with recompute/route transforms (EPIMap [28]; cf. "
           "Peyret et al. [47], Tirelli et al.)";
  }

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    // A dependence p -> q binds when q reads p's cell directly.
    CellReads reads(arch.num_cells());
    for (int q = 0; q < arch.num_cells(); ++q) {
      for (const int p : arch.ReadableFrom(q)) reads.Add(q, p);
    }
    return EscalateIi(*this, dfg, arch, options, [&](int ii) -> Result<Mapping> {
      Dfg work = dfg;  // transformed copy (route insertions)
      for (int transform_round = 0; transform_round < 4; ++transform_round) {
        if (ShouldAbort(options)) {
          return Error::ResourceLimit("EPIMap deadline expired");
        }
        Result<Mapping> r = TryBind(work, dfg, arch, reads, ii, options);
        if (r.ok()) return r;
        // Transform: stretch the longest same-iteration edge of the
        // highest-fanout op with a route node, then retry.
        const auto fan = work.FanOut();
        OpId worst = kNoOp;
        int worst_fan = 1;
        for (OpId op = 0; op < work.num_ops(); ++op) {
          if (arch.IsFolded(work.op(op).opcode)) continue;
          if (fan[static_cast<size_t>(op)] > worst_fan) {
            worst_fan = fan[static_cast<size_t>(op)];
            worst = op;
          }
        }
        if (worst == kNoOp) return r;
        const OpId route =
            work.AddUnary(Opcode::kRoute, worst, work.op(worst).name + "_rt");
        int toggle = 0;
        for (OpId consumer = 0; consumer < work.num_ops(); ++consumer) {
          if (consumer == route) continue;
          for (Operand& o : work.mutable_op(consumer).operands) {
            if (o.producer == worst && o.distance == 0 && toggle++ % 2 == 1) {
              o.producer = route;
            }
          }
        }
      }
      return Error::Unmappable("EPIMap transforms exhausted at this II");
    });
  }

 private:
  // One embed attempt for the (possibly transformed) DFG `work`. When
  // `work` has route nodes the result is projected onto `original`:
  // synthetic routes are appended, so the original ops' placements are
  // a prefix, re-pinned and routed on their own.
  Result<Mapping> TryBind(const Dfg& work, const Dfg& original,
                          const Architecture& arch, const CellReads& reads,
                          int ii, const MapperOptions& options) const {
    const auto times = ModuloAsap(work, arch, ii);
    if (times.empty()) {
      return Error::Unmappable("recurrences infeasible at this II");
    }

    // Pattern: mappable scheduled ops with their dependence edges, each
    // op restricted to the cells that can execute it at its slot.
    const std::vector<OpId> mappable = MappableOps(work, arch);
    std::vector<int> compact(static_cast<size_t>(work.num_ops()), -1);
    EmbedDomains domains;
    domains.ii = ii;
    for (const OpId op : mappable) {
      compact[static_cast<size_t>(op)] = static_cast<int>(domains.slot.size());
      domains.slot.push_back(((times[static_cast<size_t>(op)] % ii) + ii) % ii);
      std::vector<int>& cells = domains.cells.emplace_back();
      for (int cell = 0; cell < arch.num_cells(); ++cell) {
        if (arch.CanExecute(cell, work.op(op))) cells.push_back(cell);
      }
    }
    Digraph a(static_cast<int>(mappable.size()));
    for (const DfgEdge& e : work.Edges(true)) {
      if (e.to_port == kOrderPort) continue;
      if (arch.IsFolded(work.op(e.from).opcode)) continue;
      a.AddEdge(compact[static_cast<size_t>(e.from)],
                compact[static_cast<size_t>(e.to)]);
    }

    EmbedLimits limits;
    limits.deadline = options.deadline.RemainingSeconds() > 2.0
                          ? Deadline::AfterSeconds(2.0)
                          : options.deadline;
    limits.stop = options.stop;
    const auto match = FirstEmbedding(a, domains, reads, limits);
    if (!match) {
      return Error::Unmappable("no full embedding of the scheduled ops");
    }

    // Realize with the real router at the matched cells and times.
    std::vector<Placement> pins(static_cast<size_t>(work.num_ops()));
    for (const auto& [va, cell] : *match) {
      const OpId op = mappable[static_cast<size_t>(va)];
      pins[static_cast<size_t>(op)] = Placement{cell, times[static_cast<size_t>(op)]};
    }
    Result<Mapping> full = RealizePinned(work, arch, ii, pins);
    if (!full.ok() || work.num_ops() == original.num_ops()) return full;
    // Project the transformed mapping back onto the original DFG.
    return RealizePinned(original, arch, ii, full->place);
  }
};

}  // namespace

std::unique_ptr<Mapper> MakeEpimapStyleMapper() {
  return std::make_unique<EpimapStyleMapper>();
}

}  // namespace cgra
