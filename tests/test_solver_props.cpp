// Deeper solver properties: randomized cross-checks of the exact
// engines against brute force and against each other — the guarantees
// Table I's "exact" column rests on.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "solver/cp.hpp"
#include "solver/ilp.hpp"
#include "solver/lp.hpp"
#include "solver/sat.hpp"
#include "solver/smt.hpp"
#include "support/rng.hpp"

namespace cgra {
namespace {

// ---- LP -----------------------------------------------------------------------

TEST(LpProperty, OptimalSolutionsAreFeasible) {
  Rng rng(404);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = rng.NextInt(2, 6);
    LpProblem p;
    p.num_vars = n;
    for (int j = 0; j < n; ++j) p.objective.push_back(rng.NextInt(1, 5));
    const int rows = rng.NextInt(2, 8);
    for (int r = 0; r < rows; ++r) {
      LinearConstraint c;
      for (int j = 0; j < n; ++j) {
        c.terms.push_back({j, static_cast<double>(rng.NextInt(0, 3))});
      }
      c.rel = Rel::kLe;
      c.rhs = rng.NextInt(1, 20);
      p.constraints.push_back(std::move(c));
    }
    // Bound the polytope so it can't be unbounded.
    for (int j = 0; j < n; ++j) {
      p.constraints.push_back({{{j, 1.0}}, Rel::kLe, 50});
    }
    const auto s = SolveLp(p);
    ASSERT_EQ(s.status, LpStatus::kOptimal) << "trial " << trial;
    for (const auto& c : p.constraints) {
      double lhs = 0;
      for (const auto& t : c.terms) lhs += t.coeff * s.x[static_cast<size_t>(t.var)];
      EXPECT_LE(lhs, c.rhs + 1e-6) << "trial " << trial;
    }
    for (double x : s.x) EXPECT_GE(x, -1e-9);
  }
}

TEST(LpProperty, DegenerateProblemTerminates) {
  // Many redundant constraints through the same vertex (degeneracy —
  // the Bland's-rule guard must prevent cycling).
  LpProblem p;
  p.num_vars = 3;
  p.objective = {1, 1, 1};
  for (int i = 0; i < 12; ++i) {
    p.constraints.push_back(
        {{{0, 1.0}, {1, 1.0}, {2, 1.0}}, Rel::kLe, 6.0});
  }
  p.constraints.push_back({{{0, 1.0}}, Rel::kLe, 2});
  p.constraints.push_back({{{1, 1.0}}, Rel::kLe, 2});
  p.constraints.push_back({{{2, 1.0}}, Rel::kLe, 2});
  const auto s = SolveLp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 6.0, 1e-6);
}

// Random dense rows, n vars, 2n rows: the optimum takes hundreds of
// pivots, so the every-64-pivots deadline check is reached.
LpProblem DenseLp(int n) {
  Rng rng(7);
  LpProblem p;
  p.num_vars = n;
  p.objective.assign(static_cast<size_t>(n), 1.0);
  for (int r = 0; r < 2 * n; ++r) {
    LinearConstraint c;
    for (int v = 0; v < n; ++v) c.terms.push_back({v, 0.5 + rng.NextDouble()});
    c.rel = Rel::kLe;
    c.rhs = n;
    p.constraints.push_back(std::move(c));
  }
  return p;
}

TEST(LpProperty, StopsOnExpiredDeadlineOrStopRequest) {
  const LpProblem p = DenseLp(120);
  EXPECT_EQ(SolveLp(p).status, LpStatus::kOptimal);
  EXPECT_EQ(SolveLp(p, Deadline::AfterSeconds(0)).status, LpStatus::kStopped);
  StopSource source;
  source.RequestStop();
  EXPECT_EQ(SolveLp(p, {}, source.token()).status, LpStatus::kStopped);
}

TEST(IlpProperty, DeadlineStopsTheRootRelaxation) {
  // One root LP of many pivots is the whole search. Once the deadline
  // passes, the LP stops and the search ends without an incumbent
  // instead of finishing the root and reporting a proved optimum.
  const LpProblem lp = DenseLp(300);
  IlpModel m;
  for (int j = 0; j < lp.num_vars; ++j) m.AddVar(0, 1e18, /*integer=*/false);
  for (const LinearConstraint& c : lp.constraints) m.AddConstraint(c.terms, c.rel, c.rhs);
  m.SetObjective(lp.objective, true);
  IlpModel::SolveOptions so;
  so.deadline = Deadline::AfterSeconds(0.005);
  const auto s = m.Solve(so);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, Error::Code::kResourceLimit);
}

// ---- ILP vs brute force ----------------------------------------------------------

TEST(IlpProperty, MatchesBruteForceOnRandomBinaries) {
  Rng rng(505);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = rng.NextInt(3, 8);
    std::vector<double> weight, value;
    for (int j = 0; j < n; ++j) {
      weight.push_back(rng.NextInt(1, 9));
      value.push_back(rng.NextInt(1, 9));
    }
    const double cap = rng.NextInt(5, 25);
    // Brute force knapsack.
    double best = 0;
    for (int mask = 0; mask < (1 << n); ++mask) {
      double w = 0, v = 0;
      for (int j = 0; j < n; ++j) {
        if ((mask >> j) & 1) {
          w += weight[static_cast<size_t>(j)];
          v += value[static_cast<size_t>(j)];
        }
      }
      if (w <= cap) best = std::max(best, v);
    }
    IlpModel m;
    std::vector<LinearTerm> row;
    for (int j = 0; j < n; ++j) {
      const int var = m.AddBinary();
      row.push_back({var, weight[static_cast<size_t>(j)]});
    }
    m.AddConstraint(std::move(row), Rel::kLe, cap);
    m.SetObjective(value, true);
    const auto s = m.Solve();
    ASSERT_TRUE(s.ok()) << "trial " << trial;
    EXPECT_TRUE(s->proved_optimal);
    EXPECT_NEAR(s->objective, best, 1e-6) << "trial " << trial;
  }
}

TEST(IlpProperty, DeadlineYieldsResourceLimitOrIncumbent) {
  // A big assignment with an immediate deadline: either a clean
  // resource-limit error or an (unproven) incumbent; never a crash.
  IlpModel m;
  const int n = 8;
  std::vector<double> obj;
  for (int i = 0; i < n * n; ++i) {
    m.AddBinary();
    obj.push_back((i * 37) % 11);
  }
  for (int i = 0; i < n; ++i) {
    std::vector<LinearTerm> row, col;
    for (int j = 0; j < n; ++j) {
      row.push_back({i * n + j, 1.0});
      col.push_back({j * n + i, 1.0});
    }
    m.AddConstraint(std::move(row), Rel::kEq, 1);
    m.AddConstraint(std::move(col), Rel::kEq, 1);
  }
  m.SetObjective(std::move(obj), false);
  IlpModel::SolveOptions so;
  so.deadline = Deadline::AfterSeconds(0.005);
  const auto s = m.Solve(so);
  // Three legitimate outcomes: solved in time (assignment polytopes are
  // integral, so the LP relaxation can prove optimality at the root),
  // an unproven incumbent, or a clean resource-limit error. Never a
  // crash, never a silent wrong answer.
  if (s.ok()) {
    if (s->proved_optimal) {
      // Brute-force optimum of the same cost matrix (8! = 40320 — cheap).
      std::vector<int> perm{0, 1, 2, 3, 4, 5, 6, 7};
      double best = 1e18;
      do {
        double c = 0;
        for (int i = 0; i < 8; ++i) {
          c += ((i * 8 + perm[static_cast<size_t>(i)]) * 37) % 11;
        }
        best = std::min(best, c);
      } while (std::next_permutation(perm.begin(), perm.end()));
      EXPECT_NEAR(s->objective, best, 1e-6);
    }
  } else {
    EXPECT_EQ(s.error().code, Error::Code::kResourceLimit);
  }
}

// ---- SAT <-> CP <-> SMT agreement -------------------------------------------------

TEST(CrossSolver, GraphColoringAgreement) {
  // Random graphs, k colors: SAT, CP and brute force must agree on
  // colorability.
  Rng rng(606);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = rng.NextInt(4, 7);
    const int k = rng.NextInt(2, 3);
    std::vector<std::pair<int, int>> edges;
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        if (rng.NextBool(0.5)) edges.push_back({a, b});
      }
    }
    // Brute force.
    bool colorable = false;
    std::vector<int> color(static_cast<size_t>(n), 0);
    const int total = static_cast<int>(std::pow(k, n));
    for (int code = 0; code < total && !colorable; ++code) {
      int c = code;
      for (int v = 0; v < n; ++v) {
        color[static_cast<size_t>(v)] = c % k;
        c /= k;
      }
      bool ok = true;
      for (const auto& [a, b] : edges) {
        if (color[static_cast<size_t>(a)] == color[static_cast<size_t>(b)]) ok = false;
      }
      colorable |= ok;
    }
    // SAT.
    SatSolver sat;
    const int base = sat.NewVars(n * k);
    auto lit = [&](int v, int c) { return PosLit(base + v * k + c); };
    for (int v = 0; v < n; ++v) {
      std::vector<Lit> one;
      for (int c = 0; c < k; ++c) one.push_back(lit(v, c));
      sat.ExactlyOne(one);
    }
    for (const auto& [a, b] : edges) {
      for (int c = 0; c < k; ++c) {
        sat.AddClause({Negate(lit(a, c)), Negate(lit(b, c))});
      }
    }
    EXPECT_EQ(sat.Solve() == SatResult::kSat, colorable) << "trial " << trial;
    // CP.
    CpModel cp;
    std::vector<CpVar> vars;
    for (int v = 0; v < n; ++v) vars.push_back(cp.AddVar(0, k - 1));
    for (const auto& [a, b] : edges) {
      cp.AddNotEqual(vars[static_cast<size_t>(a)], vars[static_cast<size_t>(b)]);
    }
    EXPECT_EQ(cp.Solve().ok(), colorable) << "trial " << trial;
  }
}

TEST(CrossSolver, SmtSchedulesMatchCpOnChains) {
  // Precedence chains with windows: both engines must agree on
  // feasibility of fitting a chain of n unit tasks into L slots.
  for (int n = 3; n <= 6; ++n) {
    for (int L = n - 1; L <= n + 1; ++L) {
      const bool feasible = L >= n;
      // SMT.
      SmtSolver smt;
      const int zero = smt.NewTerm();
      std::vector<int> t;
      for (int i = 0; i < n; ++i) {
        t.push_back(smt.NewTerm());
        smt.AssertLe(zero, t.back(), 0);
        smt.AssertLe(t.back(), zero, L - 1);
      }
      for (int i = 0; i + 1 < n; ++i) smt.AssertLe(t[static_cast<size_t>(i)], t[static_cast<size_t>(i + 1)], -1);
      EXPECT_EQ(smt.Solve() == SmtSolver::Outcome::kSat, feasible)
          << "n=" << n << " L=" << L;
      // CP.
      CpModel cp;
      std::vector<CpVar> vars;
      for (int i = 0; i < n; ++i) vars.push_back(cp.AddVar(0, L - 1));
      for (int i = 0; i + 1 < n; ++i) {
        cp.AddBinary(vars[static_cast<size_t>(i)], vars[static_cast<size_t>(i + 1)],
                     [](int a, int b) { return b >= a + 1; });
      }
      EXPECT_EQ(cp.Solve().ok(), feasible) << "n=" << n << " L=" << L;
    }
  }
}

TEST(SatProperty, IncrementalBlockingEnumeratesAllModels) {
  // Enumerate models of a 3-variable formula by blocking clauses; the
  // count must equal brute force (exercises incremental re-solve).
  SatSolver s;
  const int v = s.NewVars(3);
  s.AddClause({PosLit(v), PosLit(v + 1), PosLit(v + 2)});  // at least one
  int models = 0;
  while (s.Solve() == SatResult::kSat && models < 10) {
    ++models;
    std::vector<Lit> block;
    for (int i = 0; i < 3; ++i) {
      block.push_back(s.Value(v + i) ? NegLit(v + i) : PosLit(v + i));
    }
    s.AddClause(std::move(block));
  }
  EXPECT_EQ(models, 7);  // 2^3 - 1 assignments satisfy "at least one"
}

// ---- Golden trajectories ------------------------------------------------------
// Seeded solver instances whose whole trajectory (verdict, solution and
// search effort) is folded into one FNV-1a digest. The constants were
// captured from the dense-elimination simplex and the linear-scan
// branching rule; the sparse pivot row and the branching heap must
// reproduce every pivot and every decision, so these never move.

std::uint64_t Fnv(std::uint64_t h, std::uint64_t x) {
  h ^= x;
  h *= 1099511628211ull;
  return h;
}

std::uint64_t FnvDouble(std::uint64_t h, double v) {
  if (v == 0) v = 0.0;  // fold -0.0 into +0.0: no comparison tells them apart
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return Fnv(h, bits);
}

std::uint64_t IlpDigest(const Result<IlpModel::Solution>& s) {
  std::uint64_t h = 1469598103934665603ull;
  if (!s.ok()) return Fnv(h, 1000 + static_cast<std::uint64_t>(s.error().code));
  for (double x : s->x) h = FnvDouble(h, x);
  h = FnvDouble(h, s->objective);
  h = Fnv(h, s->proved_optimal ? 1 : 0);
  return Fnv(h, static_cast<std::uint64_t>(s->nodes_explored));
}

// A placement-shaped model like the ILP mappers build: ops x cells
// binaries (bound rows), one exactly-one row per op, one capacity row
// per cell, pairwise exclusions standing in for routing conflicts, and
// an integer makespan with a positive lower bound (a >= bound row).
IlpModel MapperShapedIlp(Rng& rng, int ops, int cells, int capacity) {
  IlpModel m;
  std::vector<double> obj;
  for (int i = 0; i < ops * cells; ++i) {
    m.AddBinary();
    obj.push_back(rng.NextInt(1, 9));
  }
  const int makespan = m.AddVar(1, cells, true);
  obj.push_back(2);
  auto x = [cells](int op, int cell) { return op * cells + cell; };
  for (int o = 0; o < ops; ++o) {
    std::vector<LinearTerm> one;
    std::vector<LinearTerm> late{{makespan, -1.0}};
    for (int c = 0; c < cells; ++c) {
      one.push_back({x(o, c), 1.0});
      late.push_back({x(o, c), static_cast<double>(c % 3 + 1)});
    }
    m.AddConstraint(std::move(one), Rel::kEq, 1);
    m.AddConstraint(std::move(late), Rel::kLe, 0);
  }
  for (int c = 0; c < cells; ++c) {
    std::vector<LinearTerm> cap;
    for (int o = 0; o < ops; ++o) cap.push_back({x(o, c), 1.0});
    m.AddConstraint(std::move(cap), Rel::kLe, capacity);
  }
  for (int k = 0; k < ops * 2; ++k) {
    const int a = rng.NextInt(0, ops - 1), b = rng.NextInt(0, ops - 1);
    if (a == b) continue;
    const int ca = rng.NextInt(0, cells - 1), cb = rng.NextInt(0, cells - 1);
    m.AddConstraint({{x(a, ca), 1.0}, {x(b, cb), 1.0}}, Rel::kLe, 1);
  }
  m.SetObjective(std::move(obj), false);
  return m;
}

TEST(SolverGolden, IlpTrajectoriesOnMapperShapedModels) {
  Rng rng(2024);
  std::uint64_t digest = 1469598103934665603ull;
  int optimal = 0, infeasible = 0, limited = 0;
  for (int trial = 0; trial < 32; ++trial) {
    const int ops = rng.NextInt(5, 10);
    const int cells = rng.NextInt(5, 11);
    const int capacity = rng.NextInt(1, 2);
    const IlpModel m = MapperShapedIlp(rng, ops, cells, capacity);
    // Each model runs to the end and again on a two-node budget.
    for (const int max_nodes : {1 << 20, 2}) {
      IlpModel::SolveOptions so;
      so.max_nodes = max_nodes;
      const auto s = m.Solve(so);
      digest = Fnv(digest, IlpDigest(s));
      if (s.ok() && s->proved_optimal) ++optimal;
      if (!s.ok() && s.error().code == Error::Code::kUnmappable) ++infeasible;
      if (s.ok() ? !s->proved_optimal
                 : s.error().code == Error::Code::kResourceLimit) {
        ++limited;
      }
    }
  }
  // The mix covers every B&B exit: proofs, infeasibility and budgets.
  EXPECT_GT(optimal, 0);
  EXPECT_GT(infeasible, 0);
  EXPECT_GT(limited, 0);
  EXPECT_EQ(digest, 0x931add1b2de40e29ull);
}

std::uint64_t SatDigest(SatSolver& s, SatResult r) {
  std::uint64_t h = 1469598103934665603ull;
  h = Fnv(h, static_cast<std::uint64_t>(r));
  if (r == SatResult::kSat) {
    for (int v = 0; v < s.num_vars(); ++v) h = Fnv(h, s.Value(v) ? 1 : 0);
  }
  h = Fnv(h, static_cast<std::uint64_t>(s.decisions()));
  h = Fnv(h, static_cast<std::uint64_t>(s.conflicts()));
  return Fnv(h, static_cast<std::uint64_t>(s.propagations()));
}

void AddRandom3Sat(Rng& rng, SatSolver& s, int vars, int clauses) {
  const int base = s.NewVars(vars);
  for (int c = 0; c < clauses; ++c) {
    std::vector<Lit> lits;
    for (int k = 0; k < 3; ++k) {
      const int v = base + rng.NextInt(0, vars - 1);
      lits.push_back(rng.NextBool(0.5) ? PosLit(v) : NegLit(v));
    }
    s.AddClause(std::move(lits));
  }
}

TEST(SolverGolden, SatTrajectoriesOnRandomCnfs) {
  Rng rng(3033);
  std::uint64_t digest = 1469598103934665603ull;
  int sat = 0, unsat = 0;
  // Random 3-SAT across the phase transition (clause/var 3.5 .. 5.0).
  for (int trial = 0; trial < 16; ++trial) {
    SatSolver s;
    const int vars = rng.NextInt(50, 130);
    AddRandom3Sat(rng, s, vars, vars * rng.NextInt(35, 50) / 10);
    const SatResult r = s.Solve();
    digest = Fnv(digest, SatDigest(s, r));
    sat += r == SatResult::kSat;
    unsat += r == SatResult::kUnsat;
  }
  EXPECT_GT(sat, 0);
  EXPECT_GT(unsat, 0);
  EXPECT_EQ(digest, 0x2aaf4a15c60c7e42ull);
}

TEST(SolverGolden, SatTrajectoriesOnPlacementCnfs) {
  // ops x slots exactly-one placement with per-slot at-most-one and
  // seeded dependence windows, the shape the SAT mapper encodes.
  Rng rng(4044);
  std::uint64_t digest = 1469598103934665603ull;
  for (int trial = 0; trial < 12; ++trial) {
    SatSolver s;
    const int ops = rng.NextInt(6, 14), slots = ops + rng.NextInt(0, 3);
    const int base = s.NewVars(ops * slots);
    auto lit = [&](int o, int t) { return PosLit(base + o * slots + t); };
    for (int o = 0; o < ops; ++o) {
      std::vector<Lit> one;
      for (int t = 0; t < slots; ++t) one.push_back(lit(o, t));
      s.ExactlyOne(one);
    }
    for (int t = 0; t < slots; ++t) {
      std::vector<Lit> cell;
      for (int o = 0; o < ops; ++o) cell.push_back(lit(o, t));
      s.AtMostOneSequential(cell);
    }
    // A dependence a -> b: b sits one to three slots after a.
    for (int k = 0; k < ops / 2 + 1; ++k) {
      const int a = rng.NextInt(0, ops - 2), b = rng.NextInt(a + 1, ops - 1);
      for (int ta = 0; ta < slots; ++ta) {
        std::vector<Lit> after{Negate(lit(a, ta))};
        for (int d = 1; d <= 3 && ta + d < slots; ++d) after.push_back(lit(b, ta + d));
        s.AddClause(std::move(after));
      }
    }
    digest = Fnv(digest, SatDigest(s, s.Solve()));
  }
  EXPECT_EQ(digest, 0xcad94b0728459e8cull);
}

TEST(SolverGolden, SatTrajectoriesAcrossIncrementalSolves) {
  // One long run past the 1e100 activity rescale, then re-solves that
  // add blocking clauses and fresh variables between calls, and one
  // call cancelled at its first decision.
  Rng rng(5060);
  SatSolver s;
  AddRandom3Sat(rng, s, 200, 860);
  std::uint64_t digest = SatDigest(s, s.Solve());
  EXPECT_GT(s.conflicts(), 4600);  // activities were rescaled at least once

  SatSolver inc;
  AddRandom3Sat(rng, inc, 60, 240);
  StopSource stopped;
  stopped.RequestStop();
  digest = Fnv(digest, SatDigest(inc, inc.Solve({}, stopped.token())));
  for (int round = 0; round < 12; ++round) {
    const SatResult r = inc.Solve();
    digest = Fnv(digest, SatDigest(inc, r));
    if (r != SatResult::kSat) break;
    std::vector<Lit> block;
    for (int v = 0; v < 60; ++v) block.push_back(inc.Value(v) ? NegLit(v) : PosLit(v));
    inc.AddClause(std::move(block));
    if (round % 3 == 2) AddRandom3Sat(rng, inc, 5, 20);
  }
  EXPECT_EQ(digest, 0xaaa1841502ac92bbull);
}

TEST(CpProperty, SolutionsSatisfyAllConstraints) {
  Rng rng(707);
  for (int trial = 0; trial < 25; ++trial) {
    CpModel m;
    const int n = rng.NextInt(3, 6);
    std::vector<CpVar> vars;
    for (int i = 0; i < n; ++i) vars.push_back(m.AddVar(0, 5));
    struct Bin {
      CpVar x, y;
      int sum;
    };
    std::vector<Bin> bins;
    for (int c = 0; c < n; ++c) {
      const CpVar x = vars[rng.NextIndex(vars.size())];
      const CpVar y = vars[rng.NextIndex(vars.size())];
      if (x == y) continue;
      const int sum = rng.NextInt(2, 8);
      bins.push_back({x, y, sum});
      m.AddBinary(x, y, [sum](int a, int b) { return a + b <= sum; });
    }
    const auto r = m.Solve();
    if (!r.ok()) continue;  // infeasible combinations are fine
    for (const Bin& b : bins) {
      EXPECT_LE((*r)[static_cast<size_t>(b.x)] + (*r)[static_cast<size_t>(b.y)], b.sum);
    }
  }
}

}  // namespace
}  // namespace cgra
