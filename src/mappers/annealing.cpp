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
#include <cassert>
#include <climits>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "mappers/common.hpp"
#include "mappers/mappers.hpp"
#include "support/rng.hpp"
#include "telemetry/search_log.hpp"

namespace cgra {
namespace {

// Annealing schedule: moves per DFG op, the start temperature as a
// multiple of the initial cost, and the per-move cooling factor.
constexpr int kIterationsPerOp = 400;
constexpr double kT0Scale = 2.0;
constexpr double kCooling = 0.995;

// Capacity-blind routes by (from_cell, to_cell, to_time - from_time).
// In blind mode the router never reads the tracker, indexes its states
// relative to the producer's latch cycle and orders its heap by cost
// alone, so a request shifted in time gets the same route shifted: one
// answer per key serves every move that asks for it. Requests the
// router would fail before searching (most random moves on a large
// fabric) are answered without it and never stored. Steps are stored
// relative to the latch in one flat array behind an open-addressing
// index; an unroutable key stores no steps.
class BlindRouteMemo {
 public:
  /// Steps [offset, offset + length) of steps(), or no route when
  /// length < 0.
  struct Ref {
    std::uint32_t offset = 0;
    std::int32_t length = -1;
  };

  BlindRouteMemo(const Mrrg& mrrg, int ii)
      : mrrg_(mrrg), tracker_(mrrg, ii), index_(std::size_t{1} << kInitialBits) {}

  /// The blind route of `request`, routed on first sight.
  Ref Get(const RouteRequest& request) {
    if (!WithinReach(mrrg_, request)) return Ref{};
    const std::uint64_t key =
        (static_cast<std::uint64_t>(request.from_cell) *
             static_cast<std::uint64_t>(mrrg_.arch().num_cells()) +
         static_cast<std::uint64_t>(request.to_cell))
            << 32 |
        static_cast<std::uint32_t>(request.to_time - request.from_time);
    const std::size_t mask = index_.size() - 1;
    std::size_t i = Home(key);
    for (; index_[i].ref.length != kEmpty; i = (i + 1) & mask) {
      if (index_[i].key == key) return index_[i].ref;
    }
    Ref ref;
    RouterOptions blind;
    blind.ignore_capacity = true;
    auto route = RouteValue(mrrg_, tracker_, request, blind);
    if (route.ok()) {
      ref.offset = static_cast<std::uint32_t>(steps_.size());
      ref.length = static_cast<std::int32_t>(route->steps.size());
      const int latch = request.from_time + 1;
      for (const RouteStep& step : route->steps) {
        steps_.push_back(RouteStep{step.node, step.time - latch});
      }
    }
    index_[i] = Entry{key, ref};
    if (2 * ++size_ > index_.size()) Grow();
    return ref;
  }

  /// Step times are relative to the latch cycle (from_time + 1).
  const RouteStep* steps() const { return steps_.data(); }

 private:
  static constexpr int kInitialBits = 6;
  static constexpr std::int32_t kEmpty = INT32_MIN;

  struct Entry {
    std::uint64_t key = 0;
    Ref ref{0, kEmpty};
  };

  std::size_t Home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void Grow() {
    std::vector<Entry> old(index_.size() * 2);
    old.swap(index_);
    --shift_;
    const std::size_t mask = index_.size() - 1;
    for (const Entry& e : old) {
      if (e.ref.length == kEmpty) continue;
      std::size_t i = Home(e.key);
      while (index_[i].ref.length != kEmpty) i = (i + 1) & mask;
      index_[i] = e;
    }
  }

  const Mrrg& mrrg_;
  ResourceTracker tracker_;  // untouched in blind mode
  std::vector<Entry> index_;
  int shift_ = 64 - kInitialBits;
  std::size_t size_ = 0;
  std::vector<RouteStep> steps_;
};

// Annealer working state: a full assignment op -> (cell, time), with
// per-edge capacity-blind routes and an overuse cost whose integer
// terms are kept up to date move by move. Mutate and Undo take the
// moved op's terms out before its placement changes (order-port terms
// read both endpoints' times) and add them back after its edges have
// their routes again; Recount rebuilds every term from scratch.
class Annealer {
 public:
  Annealer(const Dfg& dfg, const Architecture& arch, int ii,
           const std::vector<int>& est,
           const std::vector<std::vector<int>>& candidates, Rng& rng)
      : dfg_(dfg),
        arch_(arch),
        mrrg_(arch.mrrg()),
        ii_(ii),
        est_(est),
        rng_(rng),
        memo_(mrrg_, ii),
        candidates_(candidates),
        place_(static_cast<size_t>(dfg.num_ops())),
        edges_of_(static_cast<size_t>(dfg.num_ops())),
        fu_use_(static_cast<size_t>(arch.num_cells()) * static_cast<size_t>(ii)),
        bank_use_(static_cast<size_t>(std::max(1, arch.params().num_banks)) *
                  static_cast<size_t>(ii)),
        route_use_(static_cast<size_t>(mrrg_.num_nodes()) *
                   static_cast<size_t>(ii)),
        occupants_(static_cast<size_t>(dfg.num_ops())) {
    edges_ = dfg_.Edges();
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
    Recount();
  }

  void SetTimesFixed(const std::vector<int>& times) {
    for (OpId op = 0; op < dfg_.num_ops(); ++op) {
      if (arch_.IsFolded(dfg_.op(op).opcode)) continue;
      place_[static_cast<size_t>(op)].time = times[static_cast<size_t>(op)];
    }
    for (size_t e = 0; e < edges_.size(); ++e) RerouteEdge(static_cast<int>(e));
    Recount();
  }

  /// 100 per timing violation (or unroutable edge), 10 per unit of FU,
  /// bank-port or route overuse, 0.01 per route step. Every term is an
  /// integer count, so the value is the double a term-by-term sum over
  /// the whole assignment would give.
  double Cost() const {
    return 100.0 * static_cast<double>(timing_violations_) +
           10.0 * static_cast<double>(overuse_) +
           0.01 * static_cast<double>(steps_);
  }

  /// Rebuilds every cost term from the current assignment and routes.
  void Recount() {
    std::fill(fu_use_.begin(), fu_use_.end(), 0);
    std::fill(bank_use_.begin(), bank_use_.end(), 0);
    std::fill(route_use_.begin(), route_use_.end(), 0);
    for (auto& list : occupants_) list.clear();
    timing_violations_ = overuse_ = steps_ = 0;
    for (OpId op = 0; op < dfg_.num_ops(); ++op) {
      if (!arch_.IsFolded(dfg_.op(op).opcode)) CountOp(op, +1);
    }
    for (size_t e = 0; e < edges_.size(); ++e) CountEdge(static_cast<int>(e), +1);
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
    CountMoved(op, -1);
    saved_.clear();
    for (int e : edges_of_[static_cast<size_t>(op)]) {
      saved_.push_back(routes_[static_cast<size_t>(e)]);
    }
    place_[static_cast<size_t>(op)] = next;
    for (int e : edges_of_[static_cast<size_t>(op)]) RerouteEdge(e);
    CountMoved(op, +1);
    return {op, old};
  }

  /// Reverts the Mutate that returned `undo`, restoring its saved routes.
  void Undo(const std::pair<OpId, Placement>& undo) {
    const auto& edges = edges_of_[static_cast<size_t>(undo.first)];
    CountMoved(undo.first, -1);
    place_[static_cast<size_t>(undo.first)] = undo.second;
    for (size_t i = 0; i < edges.size(); ++i) {
      routes_[static_cast<size_t>(edges[i])] = saved_[i];
    }
    CountMoved(undo.first, +1);
  }

  /// Tries to rebuild the current assignment with hard capacities.
  Result<Mapping> Realize() const {
    PlaceRouteState state(dfg_, arch_, ii_);
    std::vector<int> times(place_.size());
    for (size_t op = 0; op < place_.size(); ++op) times[op] = place_[op].time;
    for (const OpId op : ScheduleOrder(state.MappableOps(), times)) {
      const Placement& p = place_[static_cast<size_t>(op)];
      if (!state.TryPlace(op, p.cell, p.time)) {
        return Error::Unmappable("hard-capacity realization failed");
      }
    }
    return state.Finalize();
  }

  const std::vector<int>& edges_of(OpId op) const {
    return edges_of_[static_cast<size_t>(op)];
  }

  /// Test hook: true when edge `e`'s memoised answer, shifted by
  /// `shift` cycles, differs from a fresh blind RouteValue for its
  /// request shifted the same; false for edges that route nothing.
  /// `blind` is any tracker of this MRRG and II.
  bool MemoDiffersFromRouter(int e, int shift, ResourceTracker& blind) const {
    const DfgEdge& edge = edges_[static_cast<size_t>(e)];
    if (edge.to_port == kOrderPort || arch_.IsFolded(dfg_.op(edge.from).opcode)) {
      return false;
    }
    RouteRequest req = Request(edge);
    req.from_time += shift;
    req.to_time += shift;
    RouterOptions options;
    options.ignore_capacity = true;
    const auto fresh = RouteValue(mrrg_, blind, req, options);
    const EdgeRoute& memo = routes_[static_cast<size_t>(e)];
    if (!fresh.ok() || memo.ref.length < 0) return fresh.ok() != (memo.ref.length >= 0);
    if (fresh->steps.size() != static_cast<size_t>(memo.ref.length)) return true;
    const RouteStep* steps = memo_.steps() + memo.ref.offset;
    for (size_t i = 0; i < fresh->steps.size(); ++i) {
      const RouteStep shifted{steps[i].node, memo.latch + shift + steps[i].time};
      if (!(fresh->steps[i] == shifted)) return true;
    }
    return false;
  }

 private:
  // A memoised blind route placed at `latch` (the producer's issue
  // cycle + 1).
  struct EdgeRoute {
    BlindRouteMemo::Ref ref;
    int latch = 0;
  };

  // One distinct (node, time) step of a value's routes, shared by
  // `count` of its edges.
  struct Occupant {
    int node;
    int time;
    int count;
  };

  int Slot(int t) const { return ((t % ii_) + ii_) % ii_; }

  // Adds `sign` (+1 or -1) to a use count; returns the change in
  // max(0, count - limit).
  static int Bump(int& count, int sign, int limit) {
    if (sign > 0) return count++ >= limit ? 1 : 0;
    return --count >= limit ? -1 : 0;
  }

  RouteRequest Request(const DfgEdge& edge) const {
    const Placement& pf = place_[static_cast<size_t>(edge.from)];
    const Placement& pt = place_[static_cast<size_t>(edge.to)];
    RouteRequest req;
    req.from_cell = pf.cell;
    req.from_time = pf.time;
    req.to_cell = pt.cell;
    req.to_time = pt.time + ii_ * edge.distance;
    req.value = edge.from;
    return req;
  }

  void RerouteEdge(int e) {
    const DfgEdge& edge = edges_[static_cast<size_t>(e)];
    EdgeRoute& route = routes_[static_cast<size_t>(e)];
    route = EdgeRoute{};
    if (edge.to_port == kOrderPort) return;
    if (arch_.IsFolded(dfg_.op(edge.from).opcode)) return;
    const RouteRequest req = Request(edge);
    route.ref = memo_.Get(req);
    route.latch = req.from_time + 1;
  }

  // FU and bank-port terms of one placed op.
  void CountOp(OpId op, int sign) {
    const Placement& p = place_[static_cast<size_t>(op)];
    const size_t ii = static_cast<size_t>(ii_);
    const size_t slot = static_cast<size_t>(Slot(p.time));
    overuse_ += Bump(fu_use_[static_cast<size_t>(p.cell) * ii + slot], sign, 1);
    const int bank = arch_.caps(p.cell).bank;
    if (IsMemoryOp(dfg_.op(op).opcode) && bank >= 0) {
      overuse_ += Bump(bank_use_[static_cast<size_t>(bank) * ii + slot], sign,
                       arch_.params().bank_ports);
    }
  }

  // Timing, step and route-occupancy terms of one edge.
  void CountEdge(int e, int sign) {
    const DfgEdge& edge = edges_[static_cast<size_t>(e)];
    if (arch_.IsFolded(dfg_.op(edge.from).opcode)) return;
    if (edge.to_port == kOrderPort) {
      const int arrive = place_[static_cast<size_t>(edge.to)].time + ii_ * edge.distance;
      if (arrive < place_[static_cast<size_t>(edge.from)].time + 1) {
        timing_violations_ += sign;
      }
      return;
    }
    const EdgeRoute& route = routes_[static_cast<size_t>(e)];
    if (route.ref.length < 0) {
      timing_violations_ += sign;  // unroutable (usually a timing problem)
      return;
    }
    steps_ += sign * route.ref.length;
    const RouteStep* steps = memo_.steps() + route.ref.offset;
    for (std::int32_t i = 0; i < route.ref.length; ++i) {
      Occupy(edge.from, steps[i].node, route.latch + steps[i].time, sign);
    }
  }

  // Route load counts distinct (value, node, time) occupants per
  // (node, slot): edges of one value share their common steps.
  void Occupy(ValueId value, int node, int time, int sign) {
    std::vector<Occupant>& list = occupants_[static_cast<size_t>(value)];
    auto it = std::find_if(list.begin(), list.end(), [&](const Occupant& o) {
      return o.node == node && o.time == time;
    });
    if (sign > 0) {
      if (it != list.end()) {
        ++it->count;
        return;
      }
      list.push_back(Occupant{node, time, 1});
    } else {
      assert(it != list.end());
      if (--it->count > 0) return;
      *it = list.back();
      list.pop_back();
    }
    const size_t use = static_cast<size_t>(node) * static_cast<size_t>(ii_) +
                       static_cast<size_t>(Slot(time));
    overuse_ += Bump(route_use_[use], sign, mrrg_.capacity(node));
  }

  void CountMoved(OpId op, int sign) {
    CountOp(op, sign);
    for (int e : edges_of_[static_cast<size_t>(op)]) CountEdge(e, sign);
  }

  const Dfg& dfg_;
  const Architecture& arch_;
  const Mrrg& mrrg_;
  int ii_;
  const std::vector<int>& est_;
  Rng& rng_;
  BlindRouteMemo memo_;
  const std::vector<std::vector<int>>& candidates_;
  std::vector<Placement> place_;
  std::vector<DfgEdge> edges_;
  std::vector<std::vector<int>> edges_of_;
  std::vector<EdgeRoute> routes_;
  std::vector<EdgeRoute> saved_;  ///< the last Mutate's replaced routes
  // Cost terms and the use counts behind them.
  int timing_violations_ = 0;
  int overuse_ = 0;
  int steps_ = 0;
  std::vector<int> fu_use_;    ///< (cell, slot) issues
  std::vector<int> bank_use_;  ///< (bank, slot) memory accesses
  std::vector<int> route_use_; ///< (node, slot) distinct route occupants
  std::vector<std::vector<Occupant>> occupants_;  ///< per value
};

// Anneals at `ii` from the attempt's ModuloAsap schedule `est`. With
// `move_time` slots move too (DRESC, sa-spatial); without it the
// schedule stays fixed at `est` and only binding moves (spr-sa, the
// decoupled "scheduling then binding" split of Table I's Binding row).
Result<Mapping> AnnealAtIi(const Dfg& dfg, const Architecture& arch, int ii,
                           const std::vector<int>& est,
                           const std::vector<std::vector<int>>& candidates,
                           const MapperOptions& options, Rng& rng,
                           bool move_time) {
  Annealer annealer(dfg, arch, ii, est, candidates, rng);
  annealer.RandomInit(/*jitter_time=*/move_time);
  if (!move_time) annealer.SetTimesFixed(est);

  double cost = annealer.Cost();
  double temperature = std::max(1.0, cost * kT0Scale);
  const int total_iters = kIterationsPerOp * std::max(1, dfg.num_ops());
  for (int iter = 0; iter < total_iters; ++iter) {
    if ((iter & 63) == 0 && ShouldAbort(options)) {
      return Error::ResourceLimit("SA deadline expired");
    }
    if (cost < 1e-9 || (cost < 1.0 && (iter & 15) == 0)) {
      // Overuse-free: try to realize with hard capacities.
      Result<Mapping> m = annealer.Realize();
      if (m.ok()) return m;
    }
    const auto undo = annealer.Mutate(move_time);
    const double next = annealer.Cost();
    const double delta = next - cost;
    if (delta <= 0 || rng.NextDouble() < std::exp(-delta / temperature)) {
      cost = next;
    } else {
      annealer.Undo(undo);
    }
    temperature = std::max(0.01, temperature * kCooling);
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
  DrescAnnealingMapper()
      : Mapper({"dresc-sa", TechniqueClass::kMetaLocalSearch, MappingKind::kTemporal,
                "simulated annealing over the MRRG with congestion negotiation "
                "(DRESC, Mei et al. [22])"}) {}

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    Rng rng(options.seed);
    const auto candidates = CandidateCellTable(dfg, arch);
    return EscalateIi(*this, dfg, arch, options,
                      [&](int ii, const std::vector<int>& est) {
                        return AnnealAtIi(dfg, arch, ii, est, candidates, options,
                                          rng, /*move_time=*/true);
                      });
  }
};

class AnnealingBinder final : public Mapper {
 public:
  AnnealingBinder()
      : Mapper({"spr-sa", TechniqueClass::kMetaLocalSearch, MappingKind::kBinding,
                "annealed binding under a fixed modulo schedule (SPR [49], "
                "Hatanaka & Bagherzadeh [30])"}) {}

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    Rng rng(options.seed);
    const auto candidates = CandidateCellTable(dfg, arch);
    return EscalateIi(*this, dfg, arch, options,
                      [&](int ii, const std::vector<int>& est) {
                        return AnnealAtIi(dfg, arch, ii, est, candidates, options,
                                          rng, /*move_time=*/false);
                      });
  }
};

class AnnealingSpatialMapper final : public Mapper {
 public:
  AnnealingSpatialMapper()
      : Mapper({"sa-spatial", TechniqueClass::kMetaLocalSearch, MappingKind::kSpatial,
                "annealed spatial placement (SNAFU [33], DSAGEN [32])"}) {}

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    Rng rng(options.seed);
    const auto candidates = CandidateCellTable(dfg, arch);
    // Pipeline stages may still slide in time (no fixed schedule).
    return SpatialAttempt(*this, dfg, arch, options,
                          [&](int ii, const std::vector<int>& est) {
                            return AnnealAtIi(dfg, arch, ii, est, candidates,
                                              options, rng, /*move_time=*/true);
                          });
  }
};

}  // namespace

namespace annealing_internal {

CostCheck CheckIncrementalCost(const Dfg& dfg, const Architecture& arch, int ii,
                               bool fixed_times, std::uint64_t seed, int moves) {
  CostCheck check;
  const auto est = ModuloAsap(dfg, arch, ii);
  if (est.empty()) return check;
  const auto candidates = CandidateCellTable(dfg, arch);
  Rng rng(seed);
  Rng coin(seed + 1);
  Annealer annealer(dfg, arch, ii, est, candidates, rng);
  annealer.RandomInit(/*jitter_time=*/!fixed_times);
  if (fixed_times) annealer.SetTimesFixed(est);
  ResourceTracker blind(arch.mrrg(), ii);
  auto compare_cost = [&] {
    const double incremental = annealer.Cost();
    annealer.Recount();
    ++check.cost_checks;
    if (incremental != annealer.Cost()) ++check.cost_mismatches;
  };
  auto compare_routes = [&](OpId op) {
    for (int e : annealer.edges_of(op)) {
      for (const int shift : {0, 1, ii}) {
        ++check.route_checks;
        if (annealer.MemoDiffersFromRouter(e, shift, blind)) ++check.route_mismatches;
      }
    }
  };
  compare_cost();
  for (OpId op = 0; op < dfg.num_ops(); ++op) compare_routes(op);
  for (int m = 0; m < moves; ++m) {
    const auto undo = annealer.Mutate(/*move_time=*/!fixed_times);
    compare_cost();
    compare_routes(undo.first);
    if (coin.NextBool(0.5)) {
      annealer.Undo(undo);
      compare_cost();
      compare_routes(undo.first);
    }
  }
  return check;
}

}  // namespace annealing_internal

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
