// ILP-based mappers (the Table I "ILP/B&B" column), on the in-tree
// branch-and-bound MILP solver.
//
// All four formulations use the "restricted routing" relation the
// exact literature favours ([34]'s direct-connect mode, [44]'s
// restricted routing networks): a value travels by waiting in its
// producer's register file and being read by a cell with a direct
// link. Longer routes are the heuristics' territory; the exact mappers
// prove optimality/infeasibility within this relation, which is
// exactly the trade-off §III-A describes.
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
#include <functional>

#include "graph/algos.hpp"
#include "mappers/common.hpp"
#include "mappers/mappers.hpp"
#include "solver/ilp.hpp"

namespace cgra {
namespace {

// Shared guard: the dense simplex underneath cannot take huge models.
// Exact mappers refusing big instances *is the finding* the Table I
// bench reports, so surface it as a resource limit, not a crash.
Status GuardModelSize(int vars, int rows) {
  if (vars > 4000 || rows > 6000) {
    return Error::ResourceLimit(
        "instance too large for the built-in exact solver");
  }
  return Status::Ok();
}

class IlpSpatialMapper final : public Mapper {
 public:
  std::string name() const override { return "ilp-spatial"; }
  TechniqueClass technique() const override { return TechniqueClass::kExactIlp; }
  MappingKind kind() const override { return MappingKind::kSpatial; }
  std::string lineage() const override {
    return "architecture-agnostic ILP placement (Chin & Anderson [34])";
  }

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    if (Status s = CheckMappable(dfg, arch); !s.ok()) return s.error();
    const auto mrrg_ref = AcquireMrrg(arch, options);
    const Mrrg& mrrg = *mrrg_ref;
    return ObservedAttempt(*this, options, /*ii=*/1, [&]() -> Result<Mapping> {
      const int ii = 1;
      const auto est = ModuloAsap(dfg, arch, ii);
      if (est.empty()) return Error::Unmappable("recurrences infeasible at II=1");

      const std::vector<OpId> ops = MappableOps(dfg, arch);
      const int cells = arch.num_cells();

      IlpModel model;
      // x[i][c]
      std::vector<std::vector<int>> x(ops.size());
      for (size_t i = 0; i < ops.size(); ++i) {
        for (int c = 0; c < cells; ++c) x[i].push_back(model.AddBinary());
      }
      int rows = 0;
      for (size_t i = 0; i < ops.size(); ++i) {
        std::vector<LinearTerm> one;
        for (int c = 0; c < cells; ++c) {
          one.push_back({x[i][static_cast<size_t>(c)], 1.0});
          if (!arch.CanExecute(c, dfg.op(ops[i]))) {
            model.AddConstraint({{x[i][static_cast<size_t>(c)], 1.0}}, Rel::kEq, 0);
            ++rows;
          }
        }
        model.AddConstraint(std::move(one), Rel::kEq, 1);
        ++rows;
      }
      for (int c = 0; c < cells; ++c) {
        std::vector<LinearTerm> cap;
        for (size_t i = 0; i < ops.size(); ++i) cap.push_back({x[i][static_cast<size_t>(c)], 1.0});
        model.AddConstraint(std::move(cap), Rel::kLe, 1);
        ++rows;
      }
      // Dependence reach: [34] models the routing fabric, so an edge may
      // span up to kMaxHops link hops (each extra hop costs a cycle
      // through a neighbour's routing channel at realization time).
      constexpr int kMaxHops = 2;
      std::vector<int> compact(static_cast<size_t>(dfg.num_ops()), -1);
      for (size_t i = 0; i < ops.size(); ++i) compact[static_cast<size_t>(ops[i])] = static_cast<int>(i);
      for (const DfgEdge& e : dfg.Edges(true)) {
        if (e.to_port == kOrderPort) continue;
        if (arch.IsFolded(dfg.op(e.from).opcode)) continue;
        const int u = compact[static_cast<size_t>(e.from)];
        const int v = compact[static_cast<size_t>(e.to)];
        if (u == v) continue;  // self loop: trivially readable
        for (int p = 0; p < cells; ++p) {
          // If u sits on p, v must sit within routing reach of p.
          std::vector<LinearTerm> row{{x[static_cast<size_t>(u)][static_cast<size_t>(p)], -1.0}};
          for (int q = 0; q < cells; ++q) {
            const int hops = arch.HopDistance(p, q);
            if (q != p && hops >= 0 && hops <= kMaxHops) {
              row.push_back({x[static_cast<size_t>(v)][static_cast<size_t>(q)], 1.0});
            }
          }
          model.AddConstraint(std::move(row), Rel::kGe, 0);
          ++rows;
        }
      }
      if (Status s = GuardModelSize(model.num_vars(), rows); !s.ok()) return s.error();

      IlpModel::SolveOptions so;
      so.deadline = options.deadline;
      so.stop = options.stop;
      auto sol = model.Solve(so);
      if (!sol.ok()) return sol.error();
      CountSolverRun(sol->nodes_explored);

      std::vector<int> cell_of(static_cast<size_t>(dfg.num_ops()), -1);
      for (size_t i = 0; i < ops.size(); ++i) {
        for (int c = 0; c < cells; ++c) {
          if (sol->Int(x[i][static_cast<size_t>(c)]) == 1) {
            cell_of[static_cast<size_t>(ops[i])] = c;
          }
        }
      }
      // Realize: cells are fixed by the solver; search schedule offsets
      // with backtracking (2-hop routes contend for routing channels, so
      // a one-way greedy slide is not enough).
      const auto topo = TopologicalOrder(dfg.ToDigraph(/*include_carried=*/false));
      if (!topo) return Error::InvalidArgument("DFG has a same-iteration cycle");
      std::vector<OpId> order;
      for (OpId op : *topo) {
        if (!arch.IsFolded(dfg.op(op).opcode)) order.push_back(op);
      }
      PlaceRouteState state(dfg, arch, mrrg, ii);
      int budget = 20000;
      std::function<bool(size_t)> realize = [&](size_t depth) -> bool {
        if (depth == order.size()) return true;
        if (--budget <= 0 || ShouldAbort(options)) return false;
        const OpId op = order[depth];
        const int cell = cell_of[static_cast<size_t>(op)];
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
          if (state.TryPlace(op, cell, t + dt)) {
            if (realize(depth + 1)) return true;
            state.Unplace(op);
            if (budget <= 0) return false;
          }
        }
        return false;
      };
      if (!realize(0)) {
        return Error::Unmappable("ILP spatial placement not routable");
      }
      return state.Finalize();
    });
  }
};

class IlpTemporalMapper final : public Mapper {
 public:
  std::string name() const override { return "ilp-temporal"; }
  TechniqueClass technique() const override { return TechniqueClass::kExactIlp; }
  MappingKind kind() const override { return MappingKind::kTemporal; }
  std::string lineage() const override {
    return "simultaneous scheduling+binding MILP (Brenner et al. [41])";
  }

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    const auto mrrg_ref = AcquireMrrg(arch, options);
    const Mrrg& mrrg = *mrrg_ref;
    return EscalateIi(*this, dfg, arch, options, [&](int ii) -> Result<Mapping> {
      const auto est = ModuloAsap(dfg, arch, ii);
      if (est.empty()) {
        return Error::Unmappable("recurrences infeasible at this II");
      }
      const int horizon =
          *std::max_element(est.begin(), est.end()) + std::min(3, ii) + 1;
      const std::vector<OpId> ops = MappableOps(dfg, arch);
      const int cells = arch.num_cells();
      const int T = horizon + 1;

      IlpModel model;
      int rows = 0;
      // x[i][c][t]
      auto index = [&](size_t i, int c, int t) {
        return static_cast<int>((i * static_cast<size_t>(cells) + static_cast<size_t>(c)) *
                                    static_cast<size_t>(T) +
                                static_cast<size_t>(t));
      };
      const int first = model.AddBinary();
      for (size_t k = 1; k < ops.size() * static_cast<size_t>(cells) * static_cast<size_t>(T); ++k) {
        model.AddBinary();
      }
      (void)first;
      if (Status s = GuardModelSize(model.num_vars(), 0); !s.ok()) return s.error();

      for (size_t i = 0; i < ops.size(); ++i) {
        std::vector<LinearTerm> one;
        for (int c = 0; c < cells; ++c) {
          const bool capable = arch.CanExecute(c, dfg.op(ops[i]));
          for (int t = 0; t < T; ++t) {
            if (capable && t >= est[static_cast<size_t>(ops[i])]) {
              one.push_back({index(i, c, t), 1.0});
            } else {
              model.AddConstraint({{index(i, c, t), 1.0}}, Rel::kEq, 0);
              ++rows;
            }
          }
        }
        model.AddConstraint(std::move(one), Rel::kEq, 1);
        ++rows;
      }
      // Modulo FU exclusivity.
      for (int c = 0; c < cells; ++c) {
        for (int slot = 0; slot < ii; ++slot) {
          std::vector<LinearTerm> cap;
          for (size_t i = 0; i < ops.size(); ++i) {
            for (int t = slot; t < T; t += ii) cap.push_back({index(i, c, t), 1.0});
          }
          model.AddConstraint(std::move(cap), Rel::kLe, 1);
          ++rows;
        }
      }
      // Dependence implications.
      std::vector<int> compact(static_cast<size_t>(dfg.num_ops()), -1);
      for (size_t i = 0; i < ops.size(); ++i) compact[static_cast<size_t>(ops[i])] = static_cast<int>(i);
      for (const DfgEdge& e : dfg.Edges(true)) {
        if (arch.IsFolded(dfg.op(e.from).opcode)) continue;
        const size_t u = static_cast<size_t>(compact[static_cast<size_t>(e.from)]);
        const size_t v = static_cast<size_t>(compact[static_cast<size_t>(e.to)]);
        for (int p = 0; p < cells; ++p) {
          for (int t = 0; t < T; ++t) {
            std::vector<LinearTerm> row{{index(u, p, t), -1.0}};
            for (int q = 0; q < cells; ++q) {
              const bool reach = e.to_port == kOrderPort
                                     ? true  // ordering only needs timing
                                     : DirectlyReadable(arch, p, q);
              if (!reach) continue;
              for (int t2 = 0; t2 < T; ++t2) {
                if (t2 + ii * e.distance >= t + 1) {
                  if (u == v && t2 == t && p == q) {
                    // A self-loop satisfied by its own placement.
                    row.push_back({index(v, q, t2), 1.0});
                  } else if (u != v) {
                    row.push_back({index(v, q, t2), 1.0});
                  }
                }
              }
            }
            if (u == v && row.size() == 1) {
              // Self edge impossible from (p, t): forbid it.
              model.AddConstraint({{index(u, p, t), 1.0}}, Rel::kEq, 0);
            } else {
              model.AddConstraint(std::move(row), Rel::kGe, 0);
            }
            ++rows;
          }
        }
        if (Status s = GuardModelSize(model.num_vars(), rows); !s.ok()) {
          return s.error();
        }
      }

      IlpModel::SolveOptions so;
      so.deadline = options.deadline;
      so.stop = options.stop;
      auto sol = model.Solve(so);
      if (!sol.ok()) return sol.error();
      CountSolverRun(sol->nodes_explored);

      std::vector<Placement> pins(static_cast<size_t>(dfg.num_ops()));
      for (size_t i = 0; i < ops.size(); ++i) {
        for (int c = 0; c < cells; ++c) {
          for (int t = 0; t < T; ++t) {
            if (sol->Int(index(i, c, t)) == 1) {
              pins[static_cast<size_t>(ops[i])] = Placement{c, t};
            }
          }
        }
      }
      return RealizePinned(dfg, arch, mrrg, ii, pins);
    });
  }
};

class IlpBinder final : public Mapper {
 public:
  std::string name() const override { return "ilp-bind"; }
  TechniqueClass technique() const override { return TechniqueClass::kExactIlp; }
  MappingKind kind() const override { return MappingKind::kBinding; }
  std::string lineage() const override {
    return "ILP binding with data-arrival feasibility (Guo et al. [15])";
  }

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    const auto mrrg_ref = AcquireMrrg(arch, options);
    const Mrrg& mrrg = *mrrg_ref;
    return EscalateIi(*this, dfg, arch, options, [&](int ii) -> Result<Mapping> {
      const auto times = ModuloAsap(dfg, arch, ii);
      if (times.empty()) {
        return Error::Unmappable("recurrences infeasible at this II");
      }
      const std::vector<OpId> ops = MappableOps(dfg, arch);
      const int cells = arch.num_cells();

      IlpModel model;
      int rows = 0;
      std::vector<std::vector<int>> y(ops.size());
      for (size_t i = 0; i < ops.size(); ++i) {
        for (int c = 0; c < cells; ++c) y[i].push_back(model.AddBinary());
      }
      for (size_t i = 0; i < ops.size(); ++i) {
        std::vector<LinearTerm> one;
        for (int c = 0; c < cells; ++c) {
          if (arch.CanExecute(c, dfg.op(ops[i]))) {
            one.push_back({y[i][static_cast<size_t>(c)], 1.0});
          } else {
            model.AddConstraint({{y[i][static_cast<size_t>(c)], 1.0}}, Rel::kEq, 0);
            ++rows;
          }
        }
        model.AddConstraint(std::move(one), Rel::kEq, 1);
        ++rows;
      }
      // FU exclusivity per (cell, slot) under the fixed schedule.
      for (int c = 0; c < cells; ++c) {
        for (int slot = 0; slot < ii; ++slot) {
          std::vector<LinearTerm> cap;
          for (size_t i = 0; i < ops.size(); ++i) {
            if (((times[static_cast<size_t>(ops[i])] % ii) + ii) % ii == slot) {
              cap.push_back({y[i][static_cast<size_t>(c)], 1.0});
            }
          }
          if (cap.size() > 1) {
            model.AddConstraint(std::move(cap), Rel::kLe, 1);
            ++rows;
          }
        }
      }
      // Data arrival: consumer must be able to read the producer.
      std::vector<int> compact(static_cast<size_t>(dfg.num_ops()), -1);
      for (size_t i = 0; i < ops.size(); ++i) compact[static_cast<size_t>(ops[i])] = static_cast<int>(i);
      for (const DfgEdge& e : dfg.Edges(true)) {
        if (e.to_port == kOrderPort) continue;
        if (arch.IsFolded(dfg.op(e.from).opcode)) continue;
        const size_t u = static_cast<size_t>(compact[static_cast<size_t>(e.from)]);
        const size_t v = static_cast<size_t>(compact[static_cast<size_t>(e.to)]);
        if (u == v) continue;
        for (int p = 0; p < cells; ++p) {
          std::vector<LinearTerm> row{{y[u][static_cast<size_t>(p)], -1.0}};
          for (int q = 0; q < cells; ++q) {
            if (DirectlyReadable(arch, p, q)) row.push_back({y[v][static_cast<size_t>(q)], 1.0});
          }
          model.AddConstraint(std::move(row), Rel::kGe, 0);
          ++rows;
        }
      }
      if (Status s = GuardModelSize(model.num_vars(), rows); !s.ok()) {
        return s.error();
      }

      IlpModel::SolveOptions so;
      so.deadline = options.deadline;
      so.stop = options.stop;
      auto sol = model.Solve(so);
      if (!sol.ok()) return sol.error();
      CountSolverRun(sol->nodes_explored);

      std::vector<Placement> pins(static_cast<size_t>(dfg.num_ops()));
      for (size_t i = 0; i < ops.size(); ++i) {
        for (int c = 0; c < cells; ++c) {
          if (sol->Int(y[i][static_cast<size_t>(c)]) == 1) {
            pins[static_cast<size_t>(ops[i])] =
                Placement{c, times[static_cast<size_t>(ops[i])]};
          }
        }
      }
      return RealizePinned(dfg, arch, mrrg, ii, pins);
    });
  }
};

class IlpScheduler final : public Mapper {
 public:
  std::string name() const override { return "ilp-sched"; }
  TechniqueClass technique() const override { return TechniqueClass::kExactIlp; }
  MappingKind kind() const override { return MappingKind::kScheduling; }
  std::string lineage() const override {
    return "routability-enhanced time-indexed ILP scheduling (Mu et al. [53])";
  }

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    const auto mrrg_ref = AcquireMrrg(arch, options);
    const Mrrg& mrrg = *mrrg_ref;
    return EscalateIi(*this, dfg, arch, options, [&](int ii) -> Result<Mapping> {
      const auto est = ModuloAsap(dfg, arch, ii);
      if (est.empty()) {
        return Error::Unmappable("recurrences infeasible at this II");
      }
      const int T = *std::max_element(est.begin(), est.end()) + ii + 1;
      const std::vector<OpId> ops = MappableOps(dfg, arch);

      IlpModel model;
      int rows = 0;
      std::vector<std::vector<int>> z(ops.size());
      for (size_t i = 0; i < ops.size(); ++i) {
        for (int t = 0; t < T; ++t) z[i].push_back(model.AddBinary());
        std::vector<LinearTerm> one;
        for (int t = 0; t < T; ++t) one.push_back({z[i][static_cast<size_t>(t)], 1.0});
        model.AddConstraint(std::move(one), Rel::kEq, 1);
        ++rows;
        for (int t = 0; t < est[static_cast<size_t>(ops[i])]; ++t) {
          model.AddConstraint({{z[i][static_cast<size_t>(t)], 1.0}}, Rel::kEq, 0);
          ++rows;
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
          if (!cap.empty()) {
            model.AddConstraint(std::move(cap), Rel::kLe, class_cells[k]);
            ++rows;
          }
        }
      }
      // Precedence on expected times. Objective: minimise total edge
      // latency, so values spend the least possible time parked in
      // registers — the routability-enhancing objective in the spirit
      // of [53] (slack where it helps, no gratuitous register pressure).
      std::vector<int> compact(static_cast<size_t>(dfg.num_ops()), -1);
      for (size_t i = 0; i < ops.size(); ++i) compact[static_cast<size_t>(ops[i])] = static_cast<int>(i);
      std::vector<double> objective(static_cast<size_t>(model.num_vars()), 0.0);
      for (const DfgEdge& e : dfg.Edges(true)) {
        if (arch.IsFolded(dfg.op(e.from).opcode)) continue;
        const size_t u = static_cast<size_t>(compact[static_cast<size_t>(e.from)]);
        const size_t v = static_cast<size_t>(compact[static_cast<size_t>(e.to)]);
        if (u == v) continue;
        std::vector<LinearTerm> row;
        for (int t = 0; t < T; ++t) {
          row.push_back({z[v][static_cast<size_t>(t)], static_cast<double>(t)});
          row.push_back({z[u][static_cast<size_t>(t)], -static_cast<double>(t)});
          objective[static_cast<size_t>(z[v][static_cast<size_t>(t)])] += t;
          objective[static_cast<size_t>(z[u][static_cast<size_t>(t)])] -= t;
        }
        model.AddConstraint(std::move(row), Rel::kGe, 1.0 - ii * e.distance);
        ++rows;
      }
      if (Status s = GuardModelSize(model.num_vars(), rows); !s.ok()) {
        return s.error();
      }
      model.SetObjective(std::move(objective), /*maximize=*/false);

      IlpModel::SolveOptions so;
      so.deadline = options.deadline;
      so.stop = options.stop;
      auto sol = model.Solve(so);
      if (!sol.ok()) return sol.error();
      CountSolverRun(sol->nodes_explored);

      // Bind greedily at the solved times.
      std::vector<int> solved_times(static_cast<size_t>(dfg.num_ops()), 0);
      for (size_t i = 0; i < ops.size(); ++i) {
        for (int t = 0; t < T; ++t) {
          if (sol->Int(z[i][static_cast<size_t>(t)]) == 1) {
            solved_times[static_cast<size_t>(ops[i])] = t;
          }
        }
      }
      return BindAtFixedTimes(dfg, arch, mrrg, ii, solved_times,
                              options.deadline, options.stop);
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
