// Constraint-satisfaction mappers (the Table I "CSP" column): CP, SAT
// and SMT formulations of temporal mapping, each on the corresponding
// in-tree solver. All three state their constraints against the exact
// mappers' placement space and its restricted-routing relation (wait
// in the producer's RF, then one direct link), described once at
// PlacementSpace in mappers/common.hpp.
#include <algorithm>
#include <cstddef>

#include "mappers/common.hpp"
#include "mappers/mappers.hpp"
#include "solver/cp.hpp"
#include "solver/sat.hpp"
#include "solver/smt.hpp"
#include "support/str.hpp"

namespace cgra {
namespace {

// ---------------------------------------------------------------------------
// CP: one finite-domain variable per op over (cell, time) pairs.
// ---------------------------------------------------------------------------
class CpTemporalMapper final : public Mapper {
 public:
  CpTemporalMapper()
      : Mapper({"cp", TechniqueClass::kExactCsp, MappingKind::kTemporal,
                "constraint programming over placements (Raffin et al. [43])"}) {}

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    return EscalateIi(*this, dfg, arch, options,
                      [&](int ii, const std::vector<int>& asap) -> Result<Mapping> {
      const PlacementSpace space =
          PlacementSpace::AtIi(dfg, arch, ii, asap, std::min(3, ii) + 1);
      const PlacementSpace* sp = &space;
      const int T = space.horizon();

      CpModel model;
      std::vector<CpVar> var;  // per dense op index
      for (size_t i = 0; i < space.size(); ++i) {
        std::vector<int> domain;
        for (int c = 0; c < space.cells(); ++c) {
          for (int t = 0; t < T; ++t) {
            if (space.Allowed(i, c, t)) domain.push_back(space.Pair(c, t));
          }
        }
        if (domain.empty()) {
          return Error::Unmappable("an op has an empty placement domain");
        }
        var.push_back(model.AddVarWithDomain(std::move(domain)));
      }
      // FU exclusivity: pairwise (cell, slot) difference.
      for (size_t i = 0; i < var.size(); ++i) {
        for (size_t j = i + 1; j < var.size(); ++j) {
          model.AddBinary(var[i], var[j], [T, ii](int a, int b) {
            return a / T != b / T || (a % T) % ii != (b % T) % ii;
          });
        }
      }
      // Dependences under restricted routing.
      for (const PlacementSpace::Dependence& d : space.dependences()) {
        if (d.u == d.v) {
          // Self loop: only timing (own RF is always readable).
          if (ii * d.distance < 1) {
            return Error::Unmappable("self dependence unsatisfiable");
          }
          continue;
        }
        model.AddBinary(var[d.u], var[d.v], [T, sp, d](int a, int b) {
          return sp->Consumes(d, a / T, a % T, b / T, b % T);
        });
      }

      CpModel::SolveStats stats;
      auto sol = model.Solve(options.deadline, &stats, options.stop);
      CountSolverRun(stats.nodes);
      if (!sol.ok()) return space.Reword("CP", sol.error());
      return RealizePinned(dfg, arch, ii, space.Pins([&](size_t i, int c, int t) {
        return (*sol)[static_cast<size_t>(var[i])] == space.Pair(c, t);
      }));
    });
  }
};

// ---------------------------------------------------------------------------
// SAT: booleans x[op][(cell, t)] with CNF structure.
// ---------------------------------------------------------------------------
class SatTemporalMapper final : public Mapper {
 public:
  SatTemporalMapper()
      : Mapper({"sat", TechniqueClass::kExactCsp, MappingKind::kTemporal,
                "SAT-based DFG mapping (Miyasaka et al. [17])"}) {}

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
    return EscalateIi(*this, dfg, arch, options,
                      [&](int ii, const std::vector<int>& asap) -> Result<Mapping> {
      const PlacementSpace space =
          PlacementSpace::AtIi(dfg, arch, ii, asap, std::min(3, ii) + 1);
      const int cells = space.cells();
      const int T = space.horizon();

      SatSolver solver;
      const int base = solver.NewVars(space.Var(space.size(), 0));
      auto x = [&](size_t i, int c, int t) {
        return PosLit(base + space.Var(i, c, t));
      };

      for (size_t i = 0; i < space.size(); ++i) {
        std::vector<Lit> one;
        for (int c = 0; c < cells; ++c) {
          for (int t = 0; t < T; ++t) {
            if (space.Allowed(i, c, t)) {
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
          for (size_t i = 0; i < space.size(); ++i) {
            for (int t = slot; t < T; t += ii) group.push_back(x(i, c, t));
          }
          solver.AtMostOneSequential(group);
        }
      }
      // Dependences: x[u][p][t] -> OR of the consumer placements it allows.
      for (const PlacementSpace::Dependence& d : space.dependences()) {
        if (d.u == d.v) continue;  // timing trivially ok (dist >= 1)
        for (int p = 0; p < cells; ++p) {
          for (int t = 0; t < T; ++t) {
            std::vector<Lit> clause{Negate(x(d.u, p, t))};
            for (int q = 0; q < cells; ++q) {
              for (int t2 = 0; t2 < T; ++t2) {
                if (space.Consumes(d, p, t, q, t2)) clause.push_back(x(d.v, q, t2));
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
      if (r == SatResult::kUnsat) return space.NoMapping("SAT");
      return RealizePinned(dfg, arch, ii, space.Pins([&](size_t i, int c, int t) {
        return solver.Value(VarOf(x(i, c, t)));
      }));
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
  SmtTemporalMapper()
      : Mapper({"smt", TechniqueClass::kExactCsp, MappingKind::kTemporal,
                "SMT (difference logic) mapping (Donovick et al. [44])"}) {}

  Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                      const MapperOptions& options) const override {
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
        return TryLength(dfg, arch, len, options);
      });
      if (r.ok()) return r;
      last = r.error();
    }
    return last;
  }

 private:
  Result<Mapping> TryLength(const Dfg& dfg, const Architecture& arch,
                            int len, const MapperOptions& options) const {
    // Times run over one non-pipelined schedule: [0, len) at II = len.
    const PlacementSpace space(dfg, arch, /*ii=*/len, /*horizon=*/len);
    const int cells = space.cells();

    SmtSolver smt;
    const int zero = smt.NewTerm();  // reference point (time 0)
    std::vector<int> t_term(space.size(), -1);
    std::vector<std::vector<int>> b(space.size());
    for (size_t i = 0; i < space.size(); ++i) {
      t_term[i] = smt.NewTerm();
      // 0 <= t < len  (relative to `zero`).
      smt.AssertLe(zero, t_term[i], 0);
      smt.AssertLe(t_term[i], zero, len - 1);
      std::vector<Lit> one;
      for (int c = 0; c < cells; ++c) {
        b[i].push_back(smt.NewBool());
        if (!space.Capable(i, c)) {
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
    for (size_t i = 0; i < space.size(); ++i) {
      for (size_t j = i + 1; j < space.size(); ++j) {
        const Lit ne1 = smt.AtomLe(t_term[i], t_term[j], -1);
        const Lit ne2 = smt.AtomLe(t_term[j], t_term[i], -1);
        for (int c = 0; c < cells; ++c) {
          smt.AddClause({NegLit(b[i][static_cast<size_t>(c)]),
                         NegLit(b[j][static_cast<size_t>(c)]), ne1, ne2});
        }
      }
    }
    // Dependences: timing in the theory, adjacency in the booleans.
    for (const PlacementSpace::Dependence& d : space.dependences()) {
      // t_u - t_v <= len*distance - 1.
      smt.AssertLe(t_term[d.u], t_term[d.v], len * d.distance - 1);
      if (d.order_only || d.u == d.v) continue;
      for (int p = 0; p < cells; ++p) {
        for (int q = 0; q < cells; ++q) {
          if (!space.Reads(p, q)) {
            smt.AddClause({NegLit(b[d.u][static_cast<size_t>(p)]),
                           NegLit(b[d.v][static_cast<size_t>(q)])});
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
      return Error::Unmappable(StrFormat(
          "SMT proved: no non-pipelined mapping within a %d-cycle schedule "
          "under restricted routing",
          len));
    }
    const int t0 = smt.TermValue(zero);
    return RealizePinned(dfg, arch, len, space.Pins([&](size_t i, int c, int t) {
      return smt.BoolValue(b[i][static_cast<size_t>(c)]) &&
             t == smt.TermValue(t_term[i]) - t0;
    }));
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
