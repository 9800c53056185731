// Integer linear programming by branch & bound over the LP relaxation.
//
// The exact column of Table I: ILP mappers ([34], [41], [15], [53])
// and the B&B mapper [42] build on this. The model API mirrors what
// those papers feed CPLEX/Gurobi: bounded integer variables, linear
// rows, a linear objective. The solver proves optimality when it
// finishes within the deadline; otherwise it reports the incumbent
// with `proved_optimal = false` — exactly the "exact methods can prove
// optimality" distinction §III-A draws.
#pragma once

#include <cstddef>
#include <vector>

#include "solver/lp.hpp"
#include "support/status.hpp"
#include "support/stop_token.hpp"
#include "support/timer.hpp"

namespace cgra {

class IlpModel {
 public:
  /// Adds a variable with inclusive bounds; returns its index.
  int AddVar(double lo, double hi, bool integer);
  int AddBinary() { return AddVar(0, 1, true); }

  void AddConstraint(std::vector<LinearTerm> terms, Rel rel, double rhs);

  /// Sets the objective (empty = feasibility problem). `maximize`
  /// false minimises.
  void SetObjective(std::vector<double> coeffs, bool maximize);

  int num_vars() const { return static_cast<int>(lo_.size()); }
  int num_rows() const { return static_cast<int>(rows_.size()); }

  /// kResourceLimit when the model has more than 4000 variables or 6000
  /// rows: the dense simplex underneath cannot take more. Mappers check
  /// before solving, and while building a model that may grow past it.
  Status CheckSize() const;

  struct SolveOptions {
    Deadline deadline;
    StopToken stop;  ///< cooperative cancellation (kResourceLimit)
    int max_nodes = 1 << 20;
  };

  struct Solution {
    std::vector<double> x;
    double objective = 0;
    bool proved_optimal = false;
    int nodes_explored = 0;
    /// Rounded integer view of x.
    long long Int(int var) const {
      return static_cast<long long>(x[static_cast<size_t>(var)] + 0.5);
    }
  };

  /// kUnmappable when infeasible; kResourceLimit when the budget ran
  /// out with no incumbent.
  Result<Solution> Solve(const SolveOptions& options) const;
  Result<Solution> Solve() const { return Solve(SolveOptions{}); }

 private:
  std::vector<double> lo_, hi_;
  std::vector<bool> integer_;
  std::vector<LinearConstraint> rows_;
  std::vector<double> objective_;
  bool maximize_ = true;
};

}  // namespace cgra
