// ILP-based mappers (the Table I "ILP/B&B" column), on the in-tree
// branch-and-bound MILP solver.
//
// All four formulations state their rows against the exact mappers'
// placement space and its restricted-routing relation, described once
// at PlacementSpace in mappers/common.hpp: a value waits in its
// producer's register file and is read over one direct link. The exact
// mappers prove optimality/infeasibility within that relation.
//
//  * ilp-spatial  — Chin & Anderson [34]: x[op][cell] binaries.
//  * ilp-temporal — Brenner et al. [41]: x[op][cell][t], modulo
//    exclusivity, implication rows for dependencies.
//  * ilp-bind     — Guo et al. [15]: binding under a fixed schedule
//    with data-arrival feasibility rows.
//  * ilp-sched    — Mu et al. [53]: time-indexed scheduling that
//    maximises inter-op routing slack, then greedy binding.
#include <algorithm>
#include <cstddef>

#include "mappers/common.hpp"
#include "mappers/mappers.hpp"
#include "solver/ilp.hpp"
#include "telemetry/telemetry.hpp"

namespace cgra {
namespace {

// Solves under the mapper's deadline and stop token, charging a
// finished run's branch-and-bound nodes to the attempt.
Result<IlpModel::Solution> SolveCounted(const IlpModel& model,
                                        const MapperOptions& options) {
  IlpModel::SolveOptions so;
  so.deadline = options.deadline;
  so.stop = options.stop;
  auto sol = model.Solve(so);
  if (sol.ok()) CountSolverRun(sol->nodes_explored);
  return sol;
}

class IlpSpatialMapper final : public Mapper {
 public:
  IlpSpatialMapper()
      : Mapper({"ilp-spatial", TechniqueClass::kExactIlp, MappingKind::kSpatial,
                "architecture-agnostic ILP placement (Chin & Anderson [34])"}) {}

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    return SpatialAttempt(*this, dfg, arch, options,
                          [&](int ii, const std::vector<int>& est) -> Result<Mapping> {
      const PlacementSpace space(dfg, arch);
      const int cells = space.cells();

      IlpModel model;
      // x[i][c] is variable space.Var(i, c).
      for (int k = 0; k < space.Var(space.size(), 0); ++k) model.AddBinary();
      for (size_t i = 0; i < space.size(); ++i) {
        std::vector<LinearTerm> one;
        for (int c = 0; c < cells; ++c) {
          one.push_back({space.Var(i, c), 1.0});
          if (!space.Capable(i, c)) {
            model.AddConstraint({{space.Var(i, c), 1.0}}, Rel::kEq, 0);
          }
        }
        model.AddConstraint(std::move(one), Rel::kEq, 1);
      }
      for (int c = 0; c < cells; ++c) {
        std::vector<LinearTerm> cap;
        for (size_t i = 0; i < space.size(); ++i) cap.push_back({space.Var(i, c), 1.0});
        model.AddConstraint(std::move(cap), Rel::kLe, 1);
      }
      // Dependence reach: [34] models the routing fabric, so an edge may
      // span up to kMaxHops link hops (each extra hop costs a cycle
      // through a neighbour's routing channel at realization time).
      constexpr int kMaxHops = 2;
      for (const PlacementSpace::Dependence& d : space.dependences()) {
        // Ordering edges carry no value; a self loop is trivially readable.
        if (d.order_only || d.u == d.v) continue;
        for (int p = 0; p < cells; ++p) {
          // If u sits on p, v must sit within routing reach of p.
          std::vector<LinearTerm> row{{space.Var(d.u, p), -1.0}};
          for (int q = 0; q < cells; ++q) {
            const int hops = arch.HopDistance(p, q);
            if (q != p && hops >= 0 && hops <= kMaxHops) {
              row.push_back({space.Var(d.v, q), 1.0});
            }
          }
          model.AddConstraint(std::move(row), Rel::kGe, 0);
        }
      }
      if (Status s = model.CheckSize(); !s.ok()) return s.error();
      auto sol = SolveCounted(model, options);
      if (!sol.ok()) return sol.error();
      const std::vector<Placement> solved = space.Pins(
          [&](size_t i, int c, int) { return sol->Int(space.Var(i, c)) == 1; });

      // Realize: cells are fixed by the solver; search schedule offsets
      // with backtracking (2-hop routes contend for routing channels, so
      // a one-way greedy slide is not enough).
      const auto order = DependenceOrder(dfg, arch);
      if (!order.ok()) return order.error();
      PlaceRouteState state(dfg, arch, ii);
      switch (PlaceDepthFirst(
          state, *order, /*node_budget=*/20000, options.deadline, options.stop,
          [&](OpId op, std::vector<Placement>& out) {
            const int cell = solved[static_cast<size_t>(op)].cell;
            int t = est[static_cast<size_t>(op)];
            for (const int ei : state.IncidentEdges(op)) {
              const DfgEdge& e = state.edge(ei);
              if (e.to != op || e.from == op) continue;
              if (arch.IsFolded(dfg.op(e.from).opcode)) continue;
              if (state.IsPlaced(e.from)) {
                const Placement& pf = state.placement(e.from);
                t = std::max(t, pf.time +
                                    std::max(1, arch.HopDistance(pf.cell, cell)) -
                                    ii * e.distance);
              }
            }
            for (int dt = 0; dt <= options.extra_slack; ++dt) {
              out.push_back(Placement{cell, t + dt});
            }
          })) {
        case DepthFirstOutcome::kPlaced:
          return state.Finalize();
        case DepthFirstOutcome::kStopped:
          return Error::ResourceLimit(
              "ILP spatial realization stopped (node budget, deadline or stop)");
        case DepthFirstOutcome::kExhausted:
          break;
      }
      return Error::Unmappable("ILP spatial placement not routable");
    });
  }
};

class IlpTemporalMapper final : public Mapper {
 public:
  IlpTemporalMapper()
      : Mapper({"ilp-temporal", TechniqueClass::kExactIlp, MappingKind::kTemporal,
                "simultaneous scheduling+binding MILP (Brenner et al. [41])"}) {}

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    return EscalateIi(*this, dfg, arch, options,
                      [&](int ii, const std::vector<int>& asap) -> Result<Mapping> {
      const PlacementSpace space =
          PlacementSpace::AtIi(dfg, arch, ii, asap, std::min(3, ii) + 2);
      const int cells = space.cells();
      const int T = space.horizon();

      IlpModel model;
      // x[i][c][t] is variable space.Var(i, c, t); the model always
      // has at least one.
      do {
        model.AddBinary();
      } while (model.num_vars() < space.Var(space.size(), 0));
      if (Status s = model.CheckSize(); !s.ok()) return s.error();

      for (size_t i = 0; i < space.size(); ++i) {
        std::vector<LinearTerm> one;
        for (int c = 0; c < cells; ++c) {
          for (int t = 0; t < T; ++t) {
            if (space.Allowed(i, c, t)) {
              one.push_back({space.Var(i, c, t), 1.0});
            } else {
              model.AddConstraint({{space.Var(i, c, t), 1.0}}, Rel::kEq, 0);
            }
          }
        }
        model.AddConstraint(std::move(one), Rel::kEq, 1);
      }
      // Modulo FU exclusivity.
      for (int c = 0; c < cells; ++c) {
        for (int slot = 0; slot < ii; ++slot) {
          std::vector<LinearTerm> cap;
          for (size_t i = 0; i < space.size(); ++i) {
            for (int t = slot; t < T; t += ii) cap.push_back({space.Var(i, c, t), 1.0});
          }
          model.AddConstraint(std::move(cap), Rel::kLe, 1);
        }
      }
      // Dependence implications.
      for (const PlacementSpace::Dependence& d : space.dependences()) {
        const bool self = d.u == d.v;
        for (int p = 0; p < cells; ++p) {
          for (int t = 0; t < T; ++t) {
            std::vector<LinearTerm> row{{space.Var(d.u, p, t), -1.0}};
            for (int q = 0; q < cells; ++q) {
              for (int t2 = 0; t2 < T; ++t2) {
                // A self-loop is satisfied by its own placement alone.
                if (space.Consumes(d, p, t, q, t2) &&
                    (!self || (q == p && t2 == t))) {
                  row.push_back({space.Var(d.v, q, t2), 1.0});
                }
              }
            }
            if (self && row.size() == 1) {
              // Self edge impossible from (p, t): forbid it.
              model.AddConstraint({{space.Var(d.u, p, t), 1.0}}, Rel::kEq, 0);
            } else {
              model.AddConstraint(std::move(row), Rel::kGe, 0);
            }
          }
        }
        if (Status s = model.CheckSize(); !s.ok()) return s.error();
      }

      auto sol = SolveCounted(model, options);
      if (!sol.ok()) return space.Reword("ILP", sol.error());
      return RealizePinned(dfg, arch, ii, space.Pins([&](size_t i, int c, int t) {
        return sol->Int(space.Var(i, c, t)) == 1;
      }));
    });
  }
};

class IlpBinder final : public Mapper {
 public:
  IlpBinder()
      : Mapper({"ilp-bind", TechniqueClass::kExactIlp, MappingKind::kBinding,
                "ILP binding with data-arrival feasibility (Guo et al. [15])"}) {}

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    return EscalateIi(*this, dfg, arch, options,
                      [&](int ii, const std::vector<int>& asap) -> Result<Mapping> {
      // The schedule is fixed at the space's ASAP times; its horizon
      // only bounds the readback.
      const PlacementSpace space =
          PlacementSpace::AtIi(dfg, arch, ii, asap, /*slack=*/1);
      const int cells = space.cells();
      auto y = [cells](size_t i, int c) { return static_cast<int>(i) * cells + c; };

      IlpModel model;
      for (int k = 0; k < y(space.size(), 0); ++k) model.AddBinary();
      for (size_t i = 0; i < space.size(); ++i) {
        std::vector<LinearTerm> one;
        for (int c = 0; c < cells; ++c) {
          if (space.Capable(i, c)) {
            one.push_back({y(i, c), 1.0});
          } else {
            model.AddConstraint({{y(i, c), 1.0}}, Rel::kEq, 0);
          }
        }
        model.AddConstraint(std::move(one), Rel::kEq, 1);
      }
      // FU exclusivity per (cell, slot) under the fixed schedule.
      for (int c = 0; c < cells; ++c) {
        for (int slot = 0; slot < ii; ++slot) {
          std::vector<LinearTerm> cap;
          for (size_t i = 0; i < space.size(); ++i) {
            if (((space.asap(i) % ii) + ii) % ii == slot) cap.push_back({y(i, c), 1.0});
          }
          if (cap.size() > 1) model.AddConstraint(std::move(cap), Rel::kLe, 1);
        }
      }
      // Data arrival: the consumer must read the producer.
      for (const PlacementSpace::Dependence& d : space.dependences()) {
        if (d.order_only || d.u == d.v) continue;
        for (int p = 0; p < cells; ++p) {
          std::vector<LinearTerm> row{{y(d.u, p), -1.0}};
          for (int q = 0; q < cells; ++q) {
            if (space.Reads(p, q)) row.push_back({y(d.v, q), 1.0});
          }
          model.AddConstraint(std::move(row), Rel::kGe, 0);
        }
      }
      if (Status s = model.CheckSize(); !s.ok()) return s.error();

      auto sol = SolveCounted(model, options);
      if (!sol.ok()) return sol.error();
      return RealizePinned(dfg, arch, ii, space.Pins([&](size_t i, int c, int t) {
        return t == space.asap(i) && sol->Int(y(i, c)) == 1;
      }));
    });
  }
};

class IlpScheduler final : public Mapper {
 public:
  IlpScheduler()
      : Mapper({"ilp-sched", TechniqueClass::kExactIlp, MappingKind::kScheduling,
                "routability-enhanced time-indexed ILP scheduling (Mu et al. [53])"}) {}

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    const auto candidates = CandidateCellTable(dfg, arch);
    return EscalateIi(*this, dfg, arch, options,
                      [&](int ii, const std::vector<int>& asap) -> Result<Mapping> {
      const PlacementSpace space = PlacementSpace::AtIi(dfg, arch, ii, asap, ii + 1);
      const int T = space.horizon();
      const std::vector<OpId>& ops = space.ops();

      IlpModel model;
      std::vector<std::vector<int>> z(ops.size());
      for (size_t i = 0; i < ops.size(); ++i) {
        for (int t = 0; t < T; ++t) z[i].push_back(model.AddBinary());
        std::vector<LinearTerm> one;
        for (int t = 0; t < T; ++t) one.push_back({z[i][static_cast<size_t>(t)], 1.0});
        model.AddConstraint(std::move(one), Rel::kEq, 1);
        for (int t = 0; t < space.asap(i); ++t) {
          model.AddConstraint({{z[i][static_cast<size_t>(t)], 1.0}}, Rel::kEq, 0);
        }
      }
      // Resource-class capacity per modulo slot.
      auto class_of = [&](OpId op) -> int {
        const Op& o = dfg.op(op);
        if (IsMemoryOp(o.opcode)) return 0;
        if (IsIoOp(o.opcode)) return 1;
        if (o.opcode == Opcode::kMul || o.opcode == Opcode::kDiv) return 2;
        return 3;
      };
      int class_cells[4] = {0, 0, 0, 0};
      for (int c = 0; c < arch.num_cells(); ++c) {
        if (arch.caps(c).mem) ++class_cells[0];
        if (arch.caps(c).io) ++class_cells[1];
        if (arch.caps(c).mul) ++class_cells[2];
        ++class_cells[3];
      }
      for (int k = 0; k < 4; ++k) {
        for (int slot = 0; slot < ii; ++slot) {
          std::vector<LinearTerm> cap;
          for (size_t i = 0; i < ops.size(); ++i) {
            if (class_of(ops[i]) != k && k != 3) continue;
            for (int t = slot; t < T; t += ii) cap.push_back({z[i][static_cast<size_t>(t)], 1.0});
          }
          if (!cap.empty()) model.AddConstraint(std::move(cap), Rel::kLe, class_cells[k]);
        }
      }
      // Precedence on expected times. Objective: minimise total edge
      // latency, so values spend the least possible time parked in
      // registers — the routability-enhancing objective in the spirit
      // of [53] (slack where it helps, no gratuitous register pressure).
      std::vector<double> objective(static_cast<size_t>(model.num_vars()), 0.0);
      for (const PlacementSpace::Dependence& d : space.dependences()) {
        if (d.u == d.v) continue;
        std::vector<LinearTerm> row;
        for (int t = 0; t < T; ++t) {
          const int zu = z[d.u][static_cast<size_t>(t)];
          const int zv = z[d.v][static_cast<size_t>(t)];
          row.push_back({zv, static_cast<double>(t)});
          row.push_back({zu, -static_cast<double>(t)});
          objective[static_cast<size_t>(zv)] += t;
          objective[static_cast<size_t>(zu)] -= t;
        }
        model.AddConstraint(std::move(row), Rel::kGe, 1.0 - ii * d.distance);
      }
      if (Status s = model.CheckSize(); !s.ok()) return s.error();
      model.SetObjective(std::move(objective), /*maximize=*/false);

      auto sol = SolveCounted(model, options);
      if (!sol.ok()) return sol.error();
      std::vector<int> times;
      for (const Placement& p : space.Pins([&](size_t i, int, int t) {
             return sol->Int(z[i][static_cast<size_t>(t)]) == 1;
           })) {
        times.push_back(p.time);
      }

      // Bind at the solved times: depth-first in (time, id) order over
      // affinity-ordered candidate cells, within 20000 search nodes —
      // the binding [53] leaves to someone else.
      telemetry::Span phase_span("phase.bind");
      PlaceRouteState state(dfg, arch, ii);
      switch (PlaceDepthFirst(
          state, ScheduleOrder(state.MappableOps(), times),
          /*node_budget=*/20000, options.deadline, options.stop,
          [&](OpId op, std::vector<Placement>& out) {
            // Cells near already-placed neighbours first.
            for (const int cell :
                 state.ByAffinity(op, candidates[static_cast<size_t>(op)])) {
              out.push_back(Placement{cell, times[static_cast<size_t>(op)]});
            }
          })) {
        case DepthFirstOutcome::kPlaced:
          return state.Finalize();
        case DepthFirstOutcome::kStopped:
          return Error::ResourceLimit("fixed-time binding budget exhausted");
        case DepthFirstOutcome::kExhausted:
          break;
      }
      return Error::Unmappable("no binding exists for this schedule");
    });
  }
};

}  // namespace

std::unique_ptr<Mapper> MakeIlpSpatialMapper() {
  return std::make_unique<IlpSpatialMapper>();
}
std::unique_ptr<Mapper> MakeIlpTemporalMapper() {
  return std::make_unique<IlpTemporalMapper>();
}
std::unique_ptr<Mapper> MakeIlpBinder() {
  return std::make_unique<IlpBinder>();
}
std::unique_ptr<Mapper> MakeIlpScheduler() {
  return std::make_unique<IlpScheduler>();
}

}  // namespace cgra
