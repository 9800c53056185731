#include "solver/ilp.hpp"

#include "telemetry/search_log.hpp"
#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cgra {

int IlpModel::AddVar(double lo, double hi, bool integer) {
  lo_.push_back(lo);
  hi_.push_back(hi);
  integer_.push_back(integer);
  return static_cast<int>(lo_.size()) - 1;
}

void IlpModel::AddConstraint(std::vector<LinearTerm> terms, Rel rel, double rhs) {
  rows_.push_back(LinearConstraint{std::move(terms), rel, rhs});
}

Status IlpModel::CheckSize() const {
  if (num_vars() > 4000 || num_rows() > 6000) {
    return Error::ResourceLimit(
        "instance too large for the built-in exact solver");
  }
  return Status::Ok();
}

void IlpModel::SetObjective(std::vector<double> coeffs, bool maximize) {
  objective_ = std::move(coeffs);
  maximize_ = maximize;
}

namespace {

// A relaxation value within this of an integer counts as integral, and
// a relaxation bound must beat the incumbent by more than this.
constexpr double kIntTolerance = 1e-6;

}  // namespace

Result<IlpModel::Solution> IlpModel::Solve(const SolveOptions& options) const {
  telemetry::Span span("solver.search", "ilp");
  const int n = num_vars();
  for (double lo : lo_) {
    if (lo < 0) {
      return Error::InvalidArgument(
          "variables must be non-negative (shift before modelling)");
    }
  }

  // Base LP: shift nothing; encode bounds as rows. (Variables are
  // implicitly >= 0 in the simplex; general lower bounds become rows.)
  LpProblem base;
  base.num_vars = n;
  base.objective.assign(static_cast<size_t>(n), 0.0);
  for (int j = 0; j < n && j < static_cast<int>(objective_.size()); ++j) {
    base.objective[static_cast<size_t>(j)] =
        maximize_ ? objective_[static_cast<size_t>(j)]
                  : -objective_[static_cast<size_t>(j)];
  }
  base.constraints = rows_;

  auto solve_relaxation = [&](const std::vector<double>& lo,
                              const std::vector<double>& hi) {
    LpProblem p = base;
    for (int j = 0; j < n; ++j) {
      if (hi[static_cast<size_t>(j)] < 1e17) {
        p.constraints.push_back(
            LinearConstraint{{{j, 1.0}}, Rel::kLe, hi[static_cast<size_t>(j)]});
      }
      if (lo[static_cast<size_t>(j)] > 0) {
        p.constraints.push_back(
            LinearConstraint{{{j, 1.0}}, Rel::kGe, lo[static_cast<size_t>(j)]});
      }
    }
    return SolveLp(p, options.deadline, options.stop);
  };

  Solution best;
  bool have_incumbent = false;
  double best_obj = -std::numeric_limits<double>::infinity();
  int nodes = 0;

  struct StackItem {
    std::vector<double> lo, hi;
  };
  std::vector<StackItem> stack;
  stack.push_back(StackItem{lo_, hi_});
  bool exhausted = true;

  while (!stack.empty()) {
    if (options.deadline.Expired() || options.stop.StopRequested() ||
        nodes >= options.max_nodes) {
      exhausted = false;
      break;
    }
    StackItem item = std::move(stack.back());
    stack.pop_back();
    ++nodes;

    const LpSolution relax = solve_relaxation(item.lo, item.hi);
    if (relax.status == LpStatus::kStopped) {
      exhausted = false;
      break;
    }
    if (relax.status == LpStatus::kInfeasible) continue;
    if (relax.status == LpStatus::kIterLimit) {
      exhausted = false;
      continue;
    }
    if (relax.status == LpStatus::kUnbounded) {
      return Error::InvalidArgument("ILP relaxation is unbounded");
    }
    if (have_incumbent && relax.objective <= best_obj + kIntTolerance) {
      continue;  // bound
    }

    // Most-fractional branching variable.
    int frac_var = -1;
    double frac_score = kIntTolerance;
    for (int j = 0; j < n; ++j) {
      if (!integer_[static_cast<size_t>(j)]) continue;
      const double v = relax.x[static_cast<size_t>(j)];
      const double f = std::abs(v - std::round(v));
      if (f > frac_score) {
        frac_score = f;
        frac_var = j;
      }
    }
    if (frac_var < 0) {
      // Integral solution.
      if (!have_incumbent || relax.objective > best_obj) {
        have_incumbent = true;
        best_obj = relax.objective;
        best.x = relax.x;
        for (int j = 0; j < n; ++j) {
          if (integer_[static_cast<size_t>(j)]) {
            best.x[static_cast<size_t>(j)] = std::round(best.x[static_cast<size_t>(j)]);
          }
        }
        // Objective-vs-nodes progress point per new incumbent (the
        // node count keys the sample, so identical runs log identically).
        telemetry::SearchRecordCost(nodes,
                                    maximize_ ? best_obj : -best_obj);
      }
      continue;
    }

    const double v = relax.x[static_cast<size_t>(frac_var)];
    StackItem down = item, up = std::move(item);
    down.hi[static_cast<size_t>(frac_var)] = std::floor(v);
    up.lo[static_cast<size_t>(frac_var)] = std::ceil(v);
    // DFS: explore the branch nearer the fractional value first.
    if (v - std::floor(v) < 0.5) {
      stack.push_back(std::move(up));
      stack.push_back(std::move(down));
    } else {
      stack.push_back(std::move(down));
      stack.push_back(std::move(up));
    }
  }

  if (!have_incumbent) {
    if (!exhausted) {
      return Error::ResourceLimit("ILP budget exhausted without an incumbent");
    }
    return Error::Unmappable("ILP model is infeasible");
  }
  best.objective = maximize_ ? best_obj : -best_obj;
  best.proved_optimal = exhausted;
  best.nodes_explored = nodes;
  telemetry::SearchRecordObjective(best.objective, nodes);
  return best;
}

}  // namespace cgra
