// Tableau simplex solver.
//
// The LP relaxation engine under the ILP branch-and-bound (solver/ilp).
// The survey's exact mappers ([23], [34], [35], [41], [15], [53]) all
// lean on commercial MILP solvers; this is our self-contained
// replacement, adequate for the small-but-NP-hard instances CGRA
// mapping produces. Big-M handles >=/= rows; Bland's rule kicks in
// after a degeneracy streak to guarantee termination. The tableau is
// stored dense, one vector per row, but each pivot eliminates over the
// nonzero columns of the pivot row only (mapping models leave most of
// each row zero), which yields the same pivots as full-row elimination.
#pragma once

#include <cstddef>
#include <vector>

#include "support/stop_token.hpp"
#include "support/timer.hpp"

namespace cgra {

enum class Rel { kLe, kGe, kEq };

struct LinearTerm {
  int var;
  double coeff;
};

struct LinearConstraint {
  std::vector<LinearTerm> terms;
  Rel rel = Rel::kLe;
  double rhs = 0;
};

/// maximize objective . x  subject to constraints, 0 <= x (upper bounds
/// are expressed as constraints by the caller).
struct LpProblem {
  int num_vars = 0;
  std::vector<double> objective;
  std::vector<LinearConstraint> constraints;
};

/// kStopped: the deadline expired or `stop` was requested mid-solve.
enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterLimit, kStopped };

struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0;
  std::vector<double> x;
};

/// Checks `deadline` and `stop` every 64 pivots (kStopped) and gives up
/// after 200000 pivots (kIterLimit).
LpSolution SolveLp(const LpProblem& problem, const Deadline& deadline = {},
                   const StopToken& stop = {});

}  // namespace cgra
