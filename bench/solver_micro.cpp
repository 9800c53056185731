// google-benchmark microbenches of the exact-solver substrate on
// mapping-shaped instances (the engines behind Table I's exact column).
#include <benchmark/benchmark.h>

#include "solver/cp.hpp"
#include "solver/ilp.hpp"
#include "solver/lp.hpp"
#include "solver/sat.hpp"
#include "solver/smt.hpp"
#include "support/rng.hpp"

namespace cgra {
namespace {

// LP: random dense feasible maximisation, n vars, 2n rows.
void BM_SimplexDense(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  LpProblem p;
  p.num_vars = n;
  p.objective.assign(static_cast<size_t>(n), 1.0);
  for (int r = 0; r < 2 * n; ++r) {
    LinearConstraint c;
    for (int v = 0; v < n; ++v) {
      c.terms.push_back({v, 0.5 + rng.NextDouble()});
    }
    c.rel = Rel::kLe;
    c.rhs = n;
    p.constraints.push_back(std::move(c));
  }
  for (auto _ : state) {
    auto s = SolveLp(p);
    benchmark::DoNotOptimize(s.objective);
  }
}
BENCHMARK(BM_SimplexDense)->Arg(8)->Arg(16)->Arg(32);

// LP: one branch-and-bound node of a placement-shaped ILP, built the way
// IlpModel does: ops x cells binaries, an exactly-one row per op, a
// capacity row per cell, then one `x <= hi` row per variable and a
// `x >= 1` row per variable fixed to one by branching. Pivot rows are
// mostly zero, which is what the sparse elimination exploits.
void BM_IlpBinaryBounds(benchmark::State& state) {
  const int ops = static_cast<int>(state.range(0));
  const int cells = ops + ops / 2;
  Rng rng(13);
  LpProblem p;
  p.num_vars = ops * cells;
  for (int v = 0; v < p.num_vars; ++v) p.objective.push_back(-rng.NextInt(1, 9));
  auto x = [cells](int op, int cell) { return op * cells + cell; };
  for (int o = 0; o < ops; ++o) {
    LinearConstraint one{{}, Rel::kEq, 1};
    for (int c = 0; c < cells; ++c) one.terms.push_back({x(o, c), 1.0});
    p.constraints.push_back(std::move(one));
  }
  for (int c = 0; c < cells; ++c) {
    LinearConstraint cap{{}, Rel::kLe, 1};
    for (int o = 0; o < ops; ++o) cap.terms.push_back({x(o, c), 1.0});
    p.constraints.push_back(std::move(cap));
  }
  for (int v = 0; v < p.num_vars; ++v) {
    // Branching fixed a few variables to zero (hi = 0) or one (lo = 1).
    const int branch = rng.NextInt(0, 19);
    p.constraints.push_back({{{v, 1.0}}, Rel::kLe, branch == 0 ? 0.0 : 1.0});
    if (branch == 1) p.constraints.push_back({{{v, 1.0}}, Rel::kGe, 1.0});
  }
  for (auto _ : state) {
    auto s = SolveLp(p);
    benchmark::DoNotOptimize(s.objective);
  }
}
BENCHMARK(BM_IlpBinaryBounds)->Arg(8)->Arg(16)->Arg(24);

// ILP: placement-shaped assignment (ops x cells binaries).
void BM_IlpAssignment(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(11);
  for (auto _ : state) {
    IlpModel m;
    std::vector<std::vector<int>> x(static_cast<size_t>(n));
    std::vector<double> obj;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        x[static_cast<size_t>(i)].push_back(m.AddBinary());
        obj.push_back(rng.NextInt(1, 9));
      }
    }
    for (int i = 0; i < n; ++i) {
      std::vector<LinearTerm> row, col;
      for (int j = 0; j < n; ++j) {
        row.push_back({x[static_cast<size_t>(i)][static_cast<size_t>(j)], 1.0});
        col.push_back({x[static_cast<size_t>(j)][static_cast<size_t>(i)], 1.0});
      }
      m.AddConstraint(std::move(row), Rel::kEq, 1);
      m.AddConstraint(std::move(col), Rel::kEq, 1);
    }
    m.SetObjective(std::move(obj), false);
    auto s = m.Solve();
    benchmark::DoNotOptimize(s.ok());
  }
}
BENCHMARK(BM_IlpAssignment)->Arg(4)->Arg(6);

// SAT: exactly-one placement constraints (the mapping CNF skeleton).
void BM_SatPlacementSkeleton(benchmark::State& state) {
  const int ops = static_cast<int>(state.range(0));
  const int slots = 16;
  for (auto _ : state) {
    SatSolver s;
    const int base = s.NewVars(ops * slots);
    for (int i = 0; i < ops; ++i) {
      std::vector<Lit> one;
      for (int j = 0; j < slots; ++j) one.push_back(PosLit(base + i * slots + j));
      s.ExactlyOne(one);
    }
    for (int j = 0; j < slots; ++j) {
      std::vector<Lit> cell;
      for (int i = 0; i < ops; ++i) cell.push_back(PosLit(base + i * slots + j));
      s.AtMostOneSequential(cell);
    }
    benchmark::DoNotOptimize(s.Solve());
  }
}
BENCHMARK(BM_SatPlacementSkeleton)->Arg(8)->Arg(12)->Arg(16);

// SAT: many variables, few conflicts (random 3-SAT far below the
// threshold), so picking the branching variable dominates the solve.
void BM_SatManyVars(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Rng rng(17);
    SatSolver s;
    const int base = s.NewVars(vars);
    for (int c = 0; c < 2 * vars; ++c) {
      std::vector<Lit> lits;
      for (int k = 0; k < 3; ++k) {
        const int v = base + rng.NextInt(0, vars - 1);
        lits.push_back(rng.NextBool(0.5) ? PosLit(v) : NegLit(v));
      }
      s.AddClause(std::move(lits));
    }
    benchmark::DoNotOptimize(s.Solve());
  }
}
BENCHMARK(BM_SatManyVars)->Arg(2000)->Arg(8000);

// CP: n-queens as the canonical all-different + binary-constraints mix.
void BM_CpQueens(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    CpModel m;
    std::vector<CpVar> col;
    for (int i = 0; i < n; ++i) col.push_back(m.AddVar(0, n - 1));
    m.AddAllDifferent(col);
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        const int d = j - i;
        m.AddBinary(col[static_cast<size_t>(i)], col[static_cast<size_t>(j)],
                    [d](int a, int b) { return a - b != d && b - a != d; });
      }
    }
    benchmark::DoNotOptimize(m.Solve().ok());
  }
}
BENCHMARK(BM_CpQueens)->Arg(6)->Arg(8);

// SMT: scheduling-shaped difference chains with boolean choice.
void BM_SmtScheduleChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    SmtSolver s;
    std::vector<int> t;
    for (int i = 0; i < n; ++i) t.push_back(s.NewTerm());
    for (int i = 0; i + 1 < n; ++i) s.AssertLe(t[static_cast<size_t>(i)], t[static_cast<size_t>(i + 1)], -1);
    // Choice: each odd op either 2 after or 3 after its predecessor.
    for (int i = 1; i < n; i += 2) {
      const Lit a = s.AtomLe(t[static_cast<size_t>(i)], t[static_cast<size_t>(i - 1)], 2);
      const Lit b = s.AtomLe(t[static_cast<size_t>(i - 1)], t[static_cast<size_t>(i)], -3);
      s.AddClause({a, b});
    }
    s.AssertLe(t[static_cast<size_t>(n - 1)], t[0], 3 * n);
    benchmark::DoNotOptimize(s.Solve());
  }
}
BENCHMARK(BM_SmtScheduleChain)->Arg(8)->Arg(16)->Arg(32);

}  // namespace
}  // namespace cgra
