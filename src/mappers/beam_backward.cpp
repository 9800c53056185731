// Backward simultaneous scheduling/binding with stochastically pruned
// partial solutions, after Peyret et al. [47] and Das et al. [24].
//
// Ops are mapped from the outputs backward (consumers first), so every
// placement decision immediately knows where its consumers sit and can
// bind close to them. All partial solutions live in a beam; when the
// beam overflows, the best ones survive deterministically and ONE
// survivor is chosen at random — the [24] trick that keeps the
// population diverse while bounding its size ("the partial solutions
// are stochastically pruned to keep under control their number").
#include <algorithm>
#include <cstddef>
#include <numeric>
#include <optional>

#include "graph/algos.hpp"
#include "mappers/common.hpp"
#include "mappers/mappers.hpp"
#include "support/rng.hpp"
#include "telemetry/search_log.hpp"

namespace cgra {
namespace {

class BackwardBeamMapper final : public Mapper {
 public:
  std::string name() const override { return "bwd-beam"; }
  TechniqueClass technique() const override { return TechniqueClass::kHeuristic; }
  MappingKind kind() const override { return MappingKind::kBinding; }
  std::string lineage() const override {
    return "backward simultaneous scheduling/binding with stochastic "
           "pruning (Peyret et al. [47], Das et al. [24])";
  }

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    Rng rng(options.seed);
    const auto candidates = CandidateCellTable(dfg, arch);
    constexpr int kBeamWidth = 6;
    constexpr int kExpansionsPerState = 10;

    // Reverse topological order (outputs first).
    const auto topo = TopologicalOrder(dfg.ToDigraph(/*include_carried=*/false));
    if (!topo) return Error::InvalidArgument("DFG has a same-iteration cycle");
    std::vector<OpId> order;
    for (auto it = topo->rbegin(); it != topo->rend(); ++it) {
      if (!arch.IsFolded(dfg.op(*it).opcode)) order.push_back(*it);
    }

    return EscalateIi(*this, dfg, arch, options, [&](int ii) -> Result<Mapping> {
      const auto est = ModuloAsap(dfg, arch, ii);
      if (est.empty()) {
        return Error::Unmappable("recurrences infeasible at this II");
      }
      // Going backward we anchor times at ALAP-style targets: critical
      // path length plus slack gives the output row.
      const int horizon =
          *std::max_element(est.begin(), est.end()) + options.extra_slack;

      struct State {
        PlaceRouteState prs;
        int route_steps = 0;
      };
      // A tried child that placed: its parent in the beam, where it
      // went, and its accumulated routing cost. Only the survivors of
      // the pruning are ever built as full states.
      struct Child {
        std::size_t parent;
        int cell;
        int time;
        int route_steps;
      };
      std::vector<State> beam;
      beam.push_back(State{PlaceRouteState(dfg, arch, ii), 0});
      PlaceRouteState trial(dfg, arch, ii);
      std::vector<Child> next;

      for (OpId op : order) {
        if (ShouldAbort(options)) {
          return Error::ResourceLimit("beam search deadline expired");
        }
        next.clear();
        for (std::size_t p = 0; p < beam.size(); ++p) {
          const State& s = beam[p];
          // Time window: below every placed consumer, above ASAP.
          int hi = horizon;
          for (const int ei : s.prs.IncidentEdges(op)) {
            const DfgEdge& e = s.prs.edge(ei);
            if (e.from != op || e.to == op) continue;
            if (s.prs.IsPlaced(e.to)) {
              hi = std::min(hi, s.prs.placement(e.to).time - 1 + ii * e.distance);
            }
          }
          const int lo = std::max(est[static_cast<size_t>(op)], hi - ii + 1);
          int expansions = 0;
          // Every child is tried on `trial`, a copy of its parent. A
          // failed TryPlace rolls itself back, so the copy is refreshed
          // only after a placement succeeded.
          bool trial_is_parent = false;
          // Prefer late times (backward construction packs upward).
          for (int t = hi; t >= lo && expansions < kExpansionsPerState; --t) {
            std::vector<int> cells = candidates[static_cast<size_t>(op)];
            rng.Shuffle(cells);
            for (int cell : cells) {
              if (expansions >= kExpansionsPerState) break;
              if (!trial_is_parent) {
                trial = s.prs;
                trial_is_parent = true;
              }
              if (trial.TryPlace(op, cell, t)) {
                next.push_back(
                    Child{p, cell, t, s.route_steps + trial.last_route_steps()});
                trial_is_parent = false;
                ++expansions;
              }
            }
          }
        }
        if (next.empty()) {
          return Error::Unmappable("beam died: no placement for " +
                                   dfg.op(op).name);
        }
        // Deterministic survivors + one stochastic survivor [24].
        std::sort(next.begin(), next.end(), [](const Child& a, const Child& b) {
          return a.route_steps < b.route_steps;
        });
        if (static_cast<int>(next.size()) > kBeamWidth) {
          const size_t wild =
              kBeamWidth - 1 +
              rng.NextIndex(next.size() - (kBeamWidth - 1));
          std::swap(next[kBeamWidth - 1], next[wild]);
          next.erase(next.begin() + kBeamWidth, next.end());
        }
        // Build the survivors by replaying their placement on their
        // parent: the same call on the same state routes the same way,
        // so the order they are built in cannot matter. Each parent is
        // copied for all but its last survivor and moved into that one;
        // parents with fewer survivors go first, so unused parents are
        // dropped before anything is built and no more than one beam of
        // states is ever alive. The search log already counted these
        // placements.
        std::vector<std::vector<std::size_t>> kids(beam.size());
        for (std::size_t i = 0; i < next.size(); ++i) {
          kids[next[i].parent].push_back(i);
        }
        std::vector<std::size_t> parents(beam.size());
        std::iota(parents.begin(), parents.end(), std::size_t{0});
        std::stable_sort(parents.begin(), parents.end(),
                         [&](std::size_t a, std::size_t b) {
                           return kids[a].size() < kids[b].size();
                         });
        std::vector<std::optional<State>> built(next.size());
        telemetry::SuspendedSearchLog replay;
        for (const std::size_t p : parents) {
          PlaceRouteState& prs = beam[p].prs;
          if (kids[p].empty()) {
            const PlaceRouteState dropped(std::move(prs));
            continue;
          }
          for (const std::size_t i : kids[p]) {
            const Child& c = next[i];
            State& child = i == kids[p].back()
                               ? built[i].emplace(State{std::move(prs), c.route_steps})
                               : built[i].emplace(State{prs, c.route_steps});
            if (!child.prs.TryPlace(op, c.cell, c.time)) {
              return Error::Internal("bwd-beam survivor failed to replay");
            }
          }
        }
        beam.clear();
        for (std::optional<State>& child : built) beam.push_back(std::move(*child));
      }
      return beam.front().prs.Finalize();
    });
  }
};

}  // namespace

std::unique_ptr<Mapper> MakeBackwardBeamMapper() {
  return std::make_unique<BackwardBeamMapper>();
}

}  // namespace cgra
