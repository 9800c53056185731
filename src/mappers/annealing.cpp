// The simulated-annealing family (Table I's "local search" column).
//
// One annealer core, three mappers:
//  * dresc-sa  — DRESC [22]: anneals BOTH binding and schedule slots at
//    a fixed II, with congestion-negotiating (capacity-blind) routing;
//    overuse is a cost term that the cooling schedule drives to zero.
//  * spr-sa    — SPR [49] / Hatanaka [30]: the schedule comes from list
//    modulo scheduling and stays fixed; annealing explores binding only.
//  * sa-spatial — SNAFU [33]/DSAGEN [32] style: II = 1 placement
//    annealing for spatial fabrics.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <tuple>

#include "mappers/common.hpp"
#include "mappers/mappers.hpp"
#include "support/rng.hpp"
#include "telemetry/search_log.hpp"

namespace cgra {
namespace {

struct SaConfig {
  bool move_time = true;   ///< DRESC moves slots too; binders do not
  int iterations_per_op = 400;
  double t0_scale = 2.0;
  double cooling = 0.995;
};

// Use counts per (resource, slot) for one cost evaluation: a flat
// array, re-zeroed through the list of entries it touched.
class SlotUse {
 public:
  explicit SlotUse(std::size_t entries) : count_(entries, 0) {}

  void Add(std::size_t i) {
    if (count_[i]++ == 0) touched_.push_back(i);
  }

  /// Sum over touched entries of max(0, count - limit(entry)); leaves
  /// every count at zero again.
  template <typename Limit>
  int DrainOveruse(Limit limit) {
    int over = 0;
    for (const std::size_t i : touched_) {
      over += std::max(0, count_[i] - limit(i));
      count_[i] = 0;
    }
    touched_.clear();
    return over;
  }

 private:
  std::vector<int> count_;
  std::vector<std::size_t> touched_;
};

// Annealer working state: a full assignment op -> (cell, time), with
// per-edge capacity-blind routes and an overuse score.
class Annealer {
 public:
  Annealer(const Dfg& dfg, const Architecture& arch, const Mrrg& mrrg, int ii,
           const std::vector<int>& est, Rng& rng)
      : dfg_(dfg),
        arch_(arch),
        mrrg_(mrrg),
        ii_(ii),
        est_(est),
        rng_(rng),
        blind_tracker_(mrrg, ii),
        candidates_(CandidateCellTable(dfg, arch)),
        place_(static_cast<size_t>(dfg.num_ops())),
        edges_of_(static_cast<size_t>(dfg.num_ops())),
        fu_use_(static_cast<size_t>(arch.num_cells()) * static_cast<size_t>(ii)),
        bank_use_(static_cast<size_t>(std::max(1, arch.params().num_banks)) *
                  static_cast<size_t>(ii)),
        route_use_(static_cast<size_t>(mrrg.num_nodes()) *
                   static_cast<size_t>(ii)) {
    edges_ = dfg_.Edges(true);
    for (size_t e = 0; e < edges_.size(); ++e) {
      edges_of_[static_cast<size_t>(edges_[e].from)].push_back(static_cast<int>(e));
      if (edges_[e].to != edges_[e].from) {
        edges_of_[static_cast<size_t>(edges_[e].to)].push_back(static_cast<int>(e));
      }
    }
    routes_.resize(edges_.size());
  }

  /// Random initial assignment: ASAP slot (plus jitter when times move),
  /// random capable cell.
  void RandomInit(bool jitter_time) {
    for (OpId op = 0; op < dfg_.num_ops(); ++op) {
      if (arch_.IsFolded(dfg_.op(op).opcode)) continue;
      const auto& cells = candidates_[static_cast<size_t>(op)];
      const int cell = cells[rng_.NextIndex(cells.size())];
      int t = est_[static_cast<size_t>(op)];
      if (jitter_time) t += static_cast<int>(rng_.NextIndex(static_cast<size_t>(ii_)));
      place_[static_cast<size_t>(op)] = Placement{cell, t};
    }
    for (size_t e = 0; e < edges_.size(); ++e) RerouteEdge(static_cast<int>(e));
  }

  void SetTimesFixed(const std::vector<int>& times) {
    for (OpId op = 0; op < dfg_.num_ops(); ++op) {
      if (arch_.IsFolded(dfg_.op(op).opcode)) continue;
      place_[static_cast<size_t>(op)].time = times[static_cast<size_t>(op)];
    }
    for (size_t e = 0; e < edges_.size(); ++e) RerouteEdge(static_cast<int>(e));
  }

  double Cost() const {
    // FU and bank-port overuse per (resource, slot). Every term is a
    // small integer count, so the integer sums convert to exactly the
    // doubles a term-by-term double accumulation would give.
    const size_t ii = static_cast<size_t>(ii_);
    int timing_violations = 0;
    for (OpId op = 0; op < dfg_.num_ops(); ++op) {
      if (arch_.IsFolded(dfg_.op(op).opcode)) continue;
      const Placement& p = place_[static_cast<size_t>(op)];
      const size_t slot = static_cast<size_t>(Slot(p.time));
      fu_use_.Add(static_cast<size_t>(p.cell) * ii + slot);
      const int bank = arch_.caps(p.cell).bank;
      if (IsMemoryOp(dfg_.op(op).opcode) && bank >= 0) {
        bank_use_.Add(static_cast<size_t>(bank) * ii + slot);
      }
    }
    int over = fu_use_.DrainOveruse([](size_t) { return 1; });
    over += bank_use_.DrainOveruse(
        [&](size_t) { return arch_.params().bank_ports; });
    // Route overuse from cached routes (net-shared steps deduped).
    occupied_.clear();
    int steps = 0;
    for (size_t e = 0; e < edges_.size(); ++e) {
      const DfgEdge& edge = edges_[e];
      if (edge.to_port == kOrderPort) {
        const int arrive = place_[static_cast<size_t>(edge.to)].time + ii_ * edge.distance;
        if (!arch_.IsFolded(dfg_.op(edge.from).opcode) &&
            arrive < place_[static_cast<size_t>(edge.from)].time + 1) {
          timing_violations += 1;
        }
        continue;
      }
      if (arch_.IsFolded(dfg_.op(edge.from).opcode)) continue;
      if (!routes_[e].has_value()) {
        timing_violations += 1;  // unroutable (usually a timing problem)
        continue;
      }
      for (const RouteStep& s : routes_[e]->steps) {
        occupied_.emplace_back(edge.from, s.node, s.time);
      }
      steps += static_cast<int>(routes_[e]->steps.size());
    }
    std::sort(occupied_.begin(), occupied_.end());
    occupied_.erase(std::unique(occupied_.begin(), occupied_.end()),
                    occupied_.end());
    for (const auto& [v, node, time] : occupied_) {
      (void)v;
      route_use_.Add(static_cast<size_t>(node) * ii +
                     static_cast<size_t>(Slot(time)));
    }
    over += route_use_.DrainOveruse([&](size_t i) {
      return mrrg_.capacity(static_cast<int>(i / ii));
    });
    return 100.0 * static_cast<double>(timing_violations) +
           10.0 * static_cast<double>(over) + 0.01 * static_cast<double>(steps);
  }

  /// Applies one random move; returns (op, old placement) for undo.
  std::pair<OpId, Placement> Mutate(bool move_time) {
    OpId op;
    do {
      op = static_cast<OpId>(rng_.NextIndex(static_cast<size_t>(dfg_.num_ops())));
    } while (arch_.IsFolded(dfg_.op(op).opcode));
    const Placement old = place_[static_cast<size_t>(op)];
    const auto& cells = candidates_[static_cast<size_t>(op)];
    Placement next = old;
    next.cell = cells[rng_.NextIndex(cells.size())];
    if (move_time && rng_.NextBool(0.5)) {
      next.time = est_[static_cast<size_t>(op)] +
                  static_cast<int>(rng_.NextIndex(static_cast<size_t>(2 * ii_)));
    }
    place_[static_cast<size_t>(op)] = next;
    for (int e : edges_of_[static_cast<size_t>(op)]) RerouteEdge(e);
    return {op, old};
  }

  void Undo(const std::pair<OpId, Placement>& undo) {
    place_[static_cast<size_t>(undo.first)] = undo.second;
    for (int e : edges_of_[static_cast<size_t>(undo.first)]) RerouteEdge(e);
  }

  /// Tries to rebuild the current assignment with hard capacities.
  Result<Mapping> Realize() const {
    PlaceRouteState state(dfg_, arch_, mrrg_, ii_);
    // Place in time order so producers tend to precede consumers.
    std::vector<OpId> order;
    for (OpId op = 0; op < dfg_.num_ops(); ++op) {
      if (!arch_.IsFolded(dfg_.op(op).opcode)) order.push_back(op);
    }
    std::sort(order.begin(), order.end(), [&](OpId a, OpId b) {
      const int ta = place_[static_cast<size_t>(a)].time;
      const int tb = place_[static_cast<size_t>(b)].time;
      return ta != tb ? ta < tb : a < b;
    });
    for (OpId op : order) {
      const Placement& p = place_[static_cast<size_t>(op)];
      if (!state.TryPlace(op, p.cell, p.time)) {
        return Error::Unmappable("hard-capacity realization failed");
      }
    }
    return state.Finalize();
  }

 private:
  int Slot(int t) const { return ((t % ii_) + ii_) % ii_; }

  void RerouteEdge(int e) {
    const DfgEdge& edge = edges_[static_cast<size_t>(e)];
    routes_[static_cast<size_t>(e)].reset();
    if (edge.to_port == kOrderPort) return;
    if (arch_.IsFolded(dfg_.op(edge.from).opcode)) return;
    const Placement& pf = place_[static_cast<size_t>(edge.from)];
    const Placement& pt = place_[static_cast<size_t>(edge.to)];
    RouteRequest req;
    req.from_cell = pf.cell;
    req.from_time = pf.time;
    req.to_cell = pt.cell;
    req.to_time = pt.time + ii_ * edge.distance;
    req.value = edge.from;
    RouterOptions blind;
    blind.ignore_capacity = true;
    auto r = RouteValue(mrrg_, blind_tracker_, req, blind);
    if (r.ok()) routes_[static_cast<size_t>(e)] = std::move(r).value();
  }

  const Dfg& dfg_;
  const Architecture& arch_;
  const Mrrg& mrrg_;
  int ii_;
  std::vector<int> est_;
  Rng& rng_;
  mutable ResourceTracker blind_tracker_;  // untouched in blind mode
  std::vector<std::vector<int>> candidates_;
  std::vector<Placement> place_;
  std::vector<DfgEdge> edges_;
  std::vector<std::vector<int>> edges_of_;
  std::vector<std::optional<Route>> routes_;
  // Cost() scratch, reused across calls.
  mutable SlotUse fu_use_;     ///< (cell, slot) issues
  mutable SlotUse bank_use_;   ///< (bank, slot) memory accesses
  mutable SlotUse route_use_;  ///< (node, slot) distinct route occupants
  mutable std::vector<std::tuple<ValueId, int, int>> occupied_;
};

Result<Mapping> AnnealAtIi(const Dfg& dfg, const Architecture& arch,
                           const Mrrg& mrrg, int ii, const SaConfig& cfg,
                           const MapperOptions& options, Rng& rng,
                           const std::vector<int>* fixed_times) {
  const auto est = ModuloAsap(dfg, arch, ii);
  if (est.empty()) {
    return Error::Unmappable("recurrences infeasible at this II");
  }
  Annealer annealer(dfg, arch, mrrg, ii, est, rng);
  annealer.RandomInit(/*jitter_time=*/cfg.move_time);
  if (fixed_times) annealer.SetTimesFixed(*fixed_times);

  double cost = annealer.Cost();
  double temperature = std::max(1.0, cost * cfg.t0_scale);
  const int total_iters = cfg.iterations_per_op * std::max(1, dfg.num_ops());
  for (int iter = 0; iter < total_iters; ++iter) {
    if ((iter & 63) == 0 && ShouldAbort(options)) {
      return Error::ResourceLimit("SA deadline expired");
    }
    if (cost < 1e-9 || (cost < 1.0 && (iter & 15) == 0)) {
      // Overuse-free: try to realize with hard capacities.
      Result<Mapping> m = annealer.Realize();
      if (m.ok()) return m;
    }
    const auto undo = annealer.Mutate(cfg.move_time && fixed_times == nullptr);
    const double next = annealer.Cost();
    const double delta = next - cost;
    if (delta <= 0 || rng.NextDouble() < std::exp(-delta / temperature)) {
      cost = next;
    } else {
      annealer.Undo(undo);
    }
    temperature = std::max(0.01, temperature * cfg.cooling);
    // Energy-vs-iteration curve, decimated inside the log (iteration-
    // keyed, so repeated identical runs record identical curves).
    telemetry::SearchRecordCost(iter, cost);
  }
  if (cost < 1.0) {
    Result<Mapping> m = annealer.Realize();
    if (m.ok()) return m;
  }
  return Error::Unmappable("annealing did not reach an overuse-free state");
}

class DrescAnnealingMapper final : public Mapper {
 public:
  std::string name() const override { return "dresc-sa"; }
  TechniqueClass technique() const override {
    return TechniqueClass::kMetaLocalSearch;
  }
  MappingKind kind() const override { return MappingKind::kTemporal; }
  std::string lineage() const override {
    return "simulated annealing over the MRRG with congestion negotiation "
           "(DRESC, Mei et al. [22])";
  }

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    const auto mrrg_ref = AcquireMrrg(arch, options);
    const Mrrg& mrrg = *mrrg_ref;
    Rng rng(options.seed);
    SaConfig cfg;
    cfg.move_time = true;
    return EscalateIi(*this, dfg, arch, options, [&](int ii) {
      return AnnealAtIi(dfg, arch, mrrg, ii, cfg, options, rng, nullptr);
    });
  }
};

class AnnealingBinder final : public Mapper {
 public:
  std::string name() const override { return "spr-sa"; }
  TechniqueClass technique() const override {
    return TechniqueClass::kMetaLocalSearch;
  }
  MappingKind kind() const override { return MappingKind::kBinding; }
  std::string lineage() const override {
    return "annealed binding under a fixed modulo schedule (SPR [49], "
           "Hatanaka & Bagherzadeh [30])";
  }

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    const auto mrrg_ref = AcquireMrrg(arch, options);
    const Mrrg& mrrg = *mrrg_ref;
    Rng rng(options.seed);
    SaConfig cfg;
    cfg.move_time = false;
    return EscalateIi(*this, dfg, arch, options, [&](int ii) -> Result<Mapping> {
      // Fixed schedule: modulo-ASAP times (the decoupled "scheduling
      // then binding" split of Table I's Binding row).
      const auto times = ModuloAsap(dfg, arch, ii);
      if (times.empty()) {
        return Error::Unmappable("recurrences infeasible at this II");
      }
      return AnnealAtIi(dfg, arch, mrrg, ii, cfg, options, rng, &times);
    });
  }
};

class AnnealingSpatialMapper final : public Mapper {
 public:
  std::string name() const override { return "sa-spatial"; }
  TechniqueClass technique() const override {
    return TechniqueClass::kMetaLocalSearch;
  }
  MappingKind kind() const override { return MappingKind::kSpatial; }
  std::string lineage() const override {
    return "annealed spatial placement (SNAFU [33], DSAGEN [32])";
  }

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    const auto mrrg_ref = AcquireMrrg(arch, options);
    const Mrrg& mrrg = *mrrg_ref;
    Rng rng(options.seed);
    if (Status s = CheckMappable(dfg, arch); !s.ok()) return s.error();
    SaConfig cfg;
    cfg.move_time = true;  // pipeline stage may still slide in time
    return AnnealAtIi(dfg, arch, mrrg, /*ii=*/1, cfg, options, rng, nullptr);
  }
};

}  // namespace

std::unique_ptr<Mapper> MakeDrescAnnealingMapper() {
  return std::make_unique<DrescAnnealingMapper>();
}
std::unique_ptr<Mapper> MakeAnnealingBinder() {
  return std::make_unique<AnnealingBinder>();
}
std::unique_ptr<Mapper> MakeAnnealingSpatialMapper() {
  return std::make_unique<AnnealingSpatialMapper>();
}

}  // namespace cgra
