// Constraint-satisfaction mappers (the Table I "CSP" column): CP, SAT
// and SMT formulations of temporal mapping, each on the corresponding
// in-tree solver. All three use the restricted-routing relation (wait
// in the producer's RF, then one direct link), like the exact ILP
// mappers — see ilp_mappers.cpp's header comment.
#include <algorithm>
#include <cstddef>

#include "mappers/common.hpp"
#include "mappers/mappers.hpp"
#include "solver/cp.hpp"
#include "solver/sat.hpp"
#include "solver/smt.hpp"

namespace cgra {
namespace {

// ---------------------------------------------------------------------------
// CP: one finite-domain variable per op over (cell, time) pairs.
// ---------------------------------------------------------------------------
class CpTemporalMapper final : public Mapper {
 public:
  std::string name() const override { return "cp"; }
  TechniqueClass technique() const override { return TechniqueClass::kExactCsp; }
  MappingKind kind() const override { return MappingKind::kTemporal; }
  std::string lineage() const override {
    return "constraint programming over placements (Raffin et al. [43])";
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
      const int T = *std::max_element(est.begin(), est.end()) + std::min(3, ii) + 1;
      const int cells = arch.num_cells();
      auto encode = [&](int cell, int t) { return cell * T + t; };

      const std::vector<OpId> ops = MappableOps(dfg, arch);
      CpModel model;
      std::vector<CpVar> var(static_cast<size_t>(dfg.num_ops()), -1);
      for (OpId op : ops) {
        std::vector<int> domain;
        for (int c = 0; c < cells; ++c) {
          if (!arch.CanExecute(c, dfg.op(op))) continue;
          for (int t = est[static_cast<size_t>(op)]; t < T; ++t) {
            domain.push_back(encode(c, t));
          }
        }
        if (domain.empty()) {
          return Error::Unmappable("an op has an empty placement domain");
        }
        var[static_cast<size_t>(op)] = model.AddVarWithDomain(std::move(domain));
      }
      // FU exclusivity: pairwise (cell, slot) difference.
      for (size_t i = 0; i < ops.size(); ++i) {
        for (size_t j = i + 1; j < ops.size(); ++j) {
          model.AddBinary(var[static_cast<size_t>(ops[i])], var[static_cast<size_t>(ops[j])],
                          [T, ii](int a, int b) {
                            const int ca = a / T, ta = a % T;
                            const int cb = b / T, tb = b % T;
                            return ca != cb || (ta % ii) != (tb % ii);
                          });
        }
      }
      // Dependence + restricted routing.
      for (const DfgEdge& e : dfg.Edges(true)) {
        if (arch.IsFolded(dfg.op(e.from).opcode)) continue;
        if (e.from == e.to) {
          // Self loop: only timing (own RF is always readable).
          if (ii * e.distance < 1) {
            return Error::Unmappable("self dependence unsatisfiable");
          }
          continue;
        }
        const bool order_only = e.to_port == kOrderPort;
        const int dist = e.distance;
        const Architecture* ap = &arch;
        model.AddBinary(var[static_cast<size_t>(e.from)], var[static_cast<size_t>(e.to)],
                        [T, ii, dist, order_only, ap](int a, int b) {
                          const int ca = a / T, ta = a % T;
                          const int cb = b / T, tb = b % T;
                          if (tb + ii * dist < ta + 1) return false;
                          if (order_only) return true;
                          return DirectlyReadable(*ap, ca, cb);
                        });
      }

      CpModel::SolveStats stats;
      auto sol = model.Solve(options.deadline, &stats, options.stop);
      CountSolverRun(stats.nodes);
      if (!sol.ok()) return sol.error();

      std::vector<Placement> pins(static_cast<size_t>(dfg.num_ops()));
      for (OpId op : ops) {
        const int v = (*sol)[static_cast<size_t>(var[static_cast<size_t>(op)])];
        pins[static_cast<size_t>(op)] = Placement{v / T, v % T};
      }
      return RealizePinned(dfg, arch, mrrg, ii, pins);
    });
  }
};

// ---------------------------------------------------------------------------
// SAT: booleans x[op][(cell, t)] with CNF structure.
// ---------------------------------------------------------------------------
class SatTemporalMapper final : public Mapper {
 public:
  std::string name() const override { return "sat"; }
  TechniqueClass technique() const override { return TechniqueClass::kExactCsp; }
  MappingKind kind() const override { return MappingKind::kTemporal; }
  std::string lineage() const override {
    return "SAT-based DFG mapping (Miyasaka et al. [17])";
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
      const int T = *std::max_element(est.begin(), est.end()) + std::min(3, ii) + 1;
      const int cells = arch.num_cells();
      const std::vector<OpId> ops = MappableOps(dfg, arch);

      SatSolver solver;
      const int base = solver.NewVars(static_cast<int>(ops.size()) * cells * T);
      auto x = [&](size_t i, int c, int t) {
        return PosLit(base + static_cast<int>((i * static_cast<size_t>(cells) +
                                               static_cast<size_t>(c)) *
                                                  static_cast<size_t>(T) +
                                              static_cast<size_t>(t)));
      };

      for (size_t i = 0; i < ops.size(); ++i) {
        std::vector<Lit> one;
        for (int c = 0; c < cells; ++c) {
          const bool capable = arch.CanExecute(c, dfg.op(ops[i]));
          for (int t = 0; t < T; ++t) {
            if (capable && t >= est[static_cast<size_t>(ops[i])]) {
              one.push_back(x(i, c, t));
            } else {
              solver.AddUnit(Negate(x(i, c, t)));
            }
          }
        }
        if (one.empty()) return Error::Unmappable("empty placement domain");
        solver.ExactlyOne(one);
      }
      // FU exclusivity per (cell, slot).
      for (int c = 0; c < cells; ++c) {
        for (int slot = 0; slot < ii; ++slot) {
          std::vector<Lit> group;
          for (size_t i = 0; i < ops.size(); ++i) {
            for (int t = slot; t < T; t += ii) group.push_back(x(i, c, t));
          }
          solver.AtMostOneSequential(group);
        }
      }
      // Dependences: x[u][p][t] -> OR of allowed consumer placements.
      std::vector<int> compact(static_cast<size_t>(dfg.num_ops()), -1);
      for (size_t i = 0; i < ops.size(); ++i) compact[static_cast<size_t>(ops[i])] = static_cast<int>(i);
      for (const DfgEdge& e : dfg.Edges(true)) {
        if (arch.IsFolded(dfg.op(e.from).opcode)) continue;
        if (e.from == e.to) continue;  // timing trivially ok (dist >= 1)
        const size_t u = static_cast<size_t>(compact[static_cast<size_t>(e.from)]);
        const size_t v = static_cast<size_t>(compact[static_cast<size_t>(e.to)]);
        for (int p = 0; p < cells; ++p) {
          for (int t = 0; t < T; ++t) {
            std::vector<Lit> clause{Negate(x(u, p, t))};
            for (int q = 0; q < cells; ++q) {
              if (e.to_port != kOrderPort && !DirectlyReadable(arch, p, q)) {
                continue;
              }
              for (int t2 = 0; t2 < T; ++t2) {
                if (t2 + ii * e.distance >= t + 1) clause.push_back(x(v, q, t2));
              }
            }
            solver.AddClause(std::move(clause));
          }
        }
      }

      const SatResult r = solver.Solve(options.deadline, options.stop);
      CountSolverRun(solver.conflicts());
      if (r == SatResult::kUnknown) {
        return Error::ResourceLimit("SAT mapper hit the deadline");
      }
      if (r == SatResult::kUnsat) {
        return Error::Unmappable(
            "SAT proved: no mapping at this II under restricted routing");
      }
      std::vector<Placement> pins(static_cast<size_t>(dfg.num_ops()));
      for (size_t i = 0; i < ops.size(); ++i) {
        for (int c = 0; c < cells; ++c) {
          for (int t = 0; t < T; ++t) {
            if (solver.Value(VarOf(x(i, c, t)))) {
              pins[static_cast<size_t>(ops[i])] = Placement{c, t};
            }
          }
        }
      }
      return RealizePinned(dfg, arch, mrrg, ii, pins);
    });
  }
};

// ---------------------------------------------------------------------------
// SMT: placement booleans + difference-logic issue times, DPLL(T).
// Works on non-pipelined schedules (II == schedule length) because
// modulo congruences are outside difference logic — exactly the kind
// of restriction [44] calls "restricted routing networks".
// ---------------------------------------------------------------------------
class SmtTemporalMapper final : public Mapper {
 public:
  std::string name() const override { return "smt"; }
  TechniqueClass technique() const override { return TechniqueClass::kExactCsp; }
  MappingKind kind() const override { return MappingKind::kTemporal; }
  std::string lineage() const override {
    return "SMT (difference logic) mapping (Donovick et al. [44])";
  }

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    const auto mrrg_ref = AcquireMrrg(arch, options);
    const Mrrg& mrrg = *mrrg_ref;
    if (Status s = CheckMappable(dfg, arch); !s.ok()) return s.error();
    // Non-pipelined: II == schedule length L; escalate L.
    const auto est0 = ModuloAsap(dfg, arch, arch.MaxIi());
    if (est0.empty()) {
      return Error::Unmappable("recurrences infeasible even at max II");
    }
    const int min_len =
        *std::max_element(est0.begin(), est0.end()) + 1;
    Error last = Error::Unmappable("no schedule length attempted");
    for (int len = min_len; len <= std::min(options.max_ii + min_len, arch.MaxIi());
         ++len) {
      if (ShouldAbort(options)) {
        return Error::ResourceLimit(
            "SMT mapper stopped (deadline or cancellation)");
      }
      // The SMT mapper escalates schedule length rather than II, so it
      // brackets each length itself (EscalateIi does this for the rest).
      Result<Mapping> r = ObservedAttempt(*this, options, len, [&] {
        return TryLength(dfg, arch, mrrg, len, options);
      });
      if (r.ok()) return r;
      last = r.error();
    }
    return last;
  }

 private:
  Result<Mapping> TryLength(const Dfg& dfg, const Architecture& arch,
                            const Mrrg& mrrg, int len,
                            const MapperOptions& options) const {
    const int cells = arch.num_cells();
    const std::vector<OpId> ops = MappableOps(dfg, arch);

    SmtSolver smt;
    const int zero = smt.NewTerm();  // reference point (time 0)
    std::vector<int> t_term(static_cast<size_t>(dfg.num_ops()), -1);
    std::vector<std::vector<int>> b(ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      const OpId op = ops[i];
      t_term[static_cast<size_t>(op)] = smt.NewTerm();
      // 0 <= t < len  (relative to `zero`).
      smt.AssertLe(zero, t_term[static_cast<size_t>(op)], 0);
      smt.AssertLe(t_term[static_cast<size_t>(op)], zero, len - 1);
      std::vector<Lit> one;
      for (int c = 0; c < cells; ++c) {
        b[i].push_back(smt.NewBool());
        if (!arch.CanExecute(c, dfg.op(op))) {
          smt.AddClause({NegLit(b[i][static_cast<size_t>(c)])});
        } else {
          one.push_back(PosLit(b[i][static_cast<size_t>(c)]));
        }
      }
      smt.AddClause(one);  // at least one cell
      smt.sat().AtMostOneSequential([&] {
        std::vector<Lit> lits;
        for (int c = 0; c < cells; ++c) lits.push_back(PosLit(b[i][static_cast<size_t>(c)]));
        return lits;
      }());
    }
    // FU exclusivity (non-pipelined: same cell => different times).
    for (size_t i = 0; i < ops.size(); ++i) {
      for (size_t j = i + 1; j < ops.size(); ++j) {
        const Lit ne1 = smt.AtomLe(t_term[static_cast<size_t>(ops[i])],
                                   t_term[static_cast<size_t>(ops[j])], -1);
        const Lit ne2 = smt.AtomLe(t_term[static_cast<size_t>(ops[j])],
                                   t_term[static_cast<size_t>(ops[i])], -1);
        for (int c = 0; c < cells; ++c) {
          smt.AddClause({NegLit(b[i][static_cast<size_t>(c)]),
                         NegLit(b[j][static_cast<size_t>(c)]), ne1, ne2});
        }
      }
    }
    // Dependences: timing in the theory, adjacency in the booleans.
    std::vector<int> compact(static_cast<size_t>(dfg.num_ops()), -1);
    for (size_t i = 0; i < ops.size(); ++i) compact[static_cast<size_t>(ops[i])] = static_cast<int>(i);
    for (const DfgEdge& e : dfg.Edges(true)) {
      if (arch.IsFolded(dfg.op(e.from).opcode)) continue;
      const int tu = t_term[static_cast<size_t>(e.from)];
      const int tv = t_term[static_cast<size_t>(e.to)];
      // t_u - t_v <= len*distance - 1.
      smt.AssertLe(tu, tv, len * e.distance - 1);
      if (e.to_port == kOrderPort || e.from == e.to) continue;
      const size_t u = static_cast<size_t>(compact[static_cast<size_t>(e.from)]);
      const size_t v = static_cast<size_t>(compact[static_cast<size_t>(e.to)]);
      for (int p = 0; p < cells; ++p) {
        for (int q = 0; q < cells; ++q) {
          if (!DirectlyReadable(arch, p, q)) {
            smt.AddClause({NegLit(b[u][static_cast<size_t>(p)]),
                           NegLit(b[v][static_cast<size_t>(q)])});
          }
        }
      }
    }

    const SmtSolver::Outcome r = smt.Solve(options.deadline, options.stop);
    CountSolverRun(smt.sat().conflicts());
    if (r == SmtSolver::Outcome::kUnknown) {
      return Error::ResourceLimit("SMT mapper hit the deadline");
    }
    if (r == SmtSolver::Outcome::kUnsat) {
      return Error::Unmappable(
          "SMT proved: no non-pipelined mapping at this length");
    }
    const int t0 = smt.TermValue(0);
    std::vector<Placement> pins(static_cast<size_t>(dfg.num_ops()));
    for (size_t i = 0; i < ops.size(); ++i) {
      int cell = -1;
      for (int c = 0; c < cells; ++c) {
        if (smt.BoolValue(b[i][static_cast<size_t>(c)])) {
          cell = c;
          break;
        }
      }
      pins[static_cast<size_t>(ops[i])] =
          Placement{cell, smt.TermValue(t_term[static_cast<size_t>(ops[i])]) - t0};
    }
    return RealizePinned(dfg, arch, mrrg, len, pins);
  }
};

}  // namespace

std::unique_ptr<Mapper> MakeCpTemporalMapper() {
  return std::make_unique<CpTemporalMapper>();
}
std::unique_ptr<Mapper> MakeSatTemporalMapper() {
  return std::make_unique<SatTemporalMapper>();
}
std::unique_ptr<Mapper> MakeSmtTemporalMapper() {
  return std::make_unique<SmtTemporalMapper>();
}

}  // namespace cgra
