#include "solver/lp.hpp"

#include <cmath>
#include <cstdint>
#include <limits>

namespace cgra {
namespace {

constexpr double kEps = 1e-9;
constexpr double kBigM = 1e7;
constexpr int kPollEvery = 64;  // pivots between deadline/stop checks
constexpr int kMaxPivots = 200000;

// Rows are normalised to rhs >= 0, which swaps <= and >=.
Rel NormalizedRel(const LinearConstraint& c) {
  if (c.rhs >= 0) return c.rel;
  return c.rel == Rel::kLe ? Rel::kGe : c.rel == Rel::kGe ? Rel::kLe : Rel::kEq;
}

}  // namespace

LpSolution SolveLp(const LpProblem& problem, const Deadline& deadline,
                   const StopToken& stop) {
  const int n = problem.num_vars;
  const int m = static_cast<int>(problem.constraints.size());

  // Count auxiliary columns.
  int num_slack = 0, num_art = 0;
  for (const LinearConstraint& c : problem.constraints) {
    const Rel r = NormalizedRel(c);
    if (r != Rel::kEq) ++num_slack;
    if (r != Rel::kLe) ++num_art;
  }

  const int total = n + num_slack + num_art;
  const size_t rhs = static_cast<size_t>(total);
  // t[i][j], i in [0, m], row 0 is the objective (z) row; column `rhs`
  // holds the right-hand sides.
  std::vector<std::vector<double>> t(static_cast<size_t>(m + 1),
                                     std::vector<double>(rhs + 1, 0.0));
  std::vector<int> basis(static_cast<size_t>(m), -1);

  // Objective row: maximize -> store -c (we drive row 0 to all >= 0).
  for (int j = 0; j < n && j < static_cast<int>(problem.objective.size()); ++j) {
    t[0][static_cast<size_t>(j)] = -problem.objective[static_cast<size_t>(j)];
  }

  size_t slack_col = static_cast<size_t>(n);
  size_t art_col = static_cast<size_t>(n + num_slack);
  for (int i = 0; i < m; ++i) {
    const LinearConstraint& c = problem.constraints[static_cast<size_t>(i)];
    std::vector<double>& row = t[static_cast<size_t>(i + 1)];
    for (const LinearTerm& term : c.terms) row[static_cast<size_t>(term.var)] += term.coeff;
    row[rhs] = c.rhs;
    if (c.rhs < 0) {
      for (int j = 0; j < n; ++j) row[static_cast<size_t>(j)] = -row[static_cast<size_t>(j)];
      row[rhs] = -c.rhs;
    }
    int& b = basis[static_cast<size_t>(i)];
    switch (NormalizedRel(c)) {
      case Rel::kLe:
        row[slack_col] = 1.0;
        b = static_cast<int>(slack_col++);
        break;
      case Rel::kGe:
        row[slack_col++] = -1.0;
        row[art_col] = 1.0;
        t[0][art_col] = kBigM;
        b = static_cast<int>(art_col++);
        break;
      case Rel::kEq:
        row[art_col] = 1.0;
        t[0][art_col] = kBigM;
        b = static_cast<int>(art_col++);
        break;
    }
  }
  // Price out artificial columns so the z-row is consistent with the
  // starting basis.
  for (int i = 0; i < m; ++i) {
    if (basis[static_cast<size_t>(i)] >= n + num_slack) {
      const std::vector<double>& row = t[static_cast<size_t>(i + 1)];
      for (size_t j = 0; j <= rhs; ++j) t[0][j] -= kBigM * row[j];
    }
  }

  LpSolution sol;
  int degenerate_streak = 0;
  // Per pivot: the pivot row's nonzero columns with their scaled values,
  // and the rows to eliminate with their factors.
  std::vector<std::uint32_t> nz_col;
  std::vector<double> nz_val;
  struct Elim {
    double* row;
    double f;
  };
  std::vector<Elim> elim;
  for (int iter = 0; iter < kMaxPivots; ++iter) {
    if (iter > 0 && iter % kPollEvery == 0 &&
        (deadline.Expired() || stop.StopRequested())) {
      sol.status = LpStatus::kStopped;
      return sol;
    }
    // Entering column: most negative z-coefficient (Dantzig), or the
    // lowest-index negative one (Bland) after a degeneracy streak.
    int pivot_col = -1;
    const bool bland = degenerate_streak > 2 * (m + total);
    double best = -kEps;
    for (int j = 0; j < total; ++j) {
      const double z = t[0][static_cast<size_t>(j)];
      if (z < -kEps) {
        if (bland) {
          pivot_col = j;
          break;
        }
        if (z < best) {
          best = z;
          pivot_col = j;
        }
      }
    }
    if (pivot_col < 0) break;  // optimal
    const size_t pc = static_cast<size_t>(pivot_col);

    // Ratio test.
    int pivot_row = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (int i = 1; i <= m; ++i) {
      const std::vector<double>& row = t[static_cast<size_t>(i)];
      const double a = row[pc];
      if (a > kEps) {
        const double ratio = row[rhs] / a;
        if (ratio < best_ratio - kEps ||
            (ratio < best_ratio + kEps && pivot_row > 0 &&
             basis[static_cast<size_t>(i - 1)] < basis[static_cast<size_t>(pivot_row - 1)])) {
          best_ratio = ratio;
          pivot_row = i;
        }
      }
    }
    if (pivot_row < 0) {
      sol.status = LpStatus::kUnbounded;
      return sol;
    }
    degenerate_streak = best_ratio < kEps ? degenerate_streak + 1 : 0;

    // Pivot over the pivot row's nonzero columns only. A zero column
    // would get x -= f * 0, which can change at most the sign of a zero,
    // and no comparison above tells -0.0 from +0.0.
    std::vector<double>& prow = t[static_cast<size_t>(pivot_row)];
    const double p = prow[pc];
    nz_col.clear();
    nz_val.clear();
    for (size_t j = 0; j <= rhs; ++j) {
      if (prow[j] != 0) {
        prow[j] /= p;
        nz_col.push_back(static_cast<std::uint32_t>(j));
        nz_val.push_back(prow[j]);
      }
    }
    elim.clear();
    for (int i = 0; i <= m; ++i) {
      if (i == pivot_row) continue;
      std::vector<double>& row = t[static_cast<size_t>(i)];
      const double f = row[pc];
      if (std::abs(f) < kEps) continue;
      elim.push_back({row.data(), f});
    }
    // Four rows per pass over the nonzeros: each column index and value
    // is loaded once for four independent updates.
    const size_t nnz = nz_col.size();
    size_t r = 0;
    for (; r + 4 <= elim.size(); r += 4) {
      const Elim e0 = elim[r], e1 = elim[r + 1], e2 = elim[r + 2], e3 = elim[r + 3];
      for (size_t k = 0; k < nnz; ++k) {
        const std::uint32_t j = nz_col[k];
        const double v = nz_val[k];
        e0.row[j] -= e0.f * v;
        e1.row[j] -= e1.f * v;
        e2.row[j] -= e2.f * v;
        e3.row[j] -= e3.f * v;
      }
    }
    for (; r < elim.size(); ++r) {
      for (size_t k = 0; k < nnz; ++k) elim[r].row[nz_col[k]] -= elim[r].f * nz_val[k];
    }
    basis[static_cast<size_t>(pivot_row - 1)] = pivot_col;
    if (iter == kMaxPivots - 1) {
      sol.status = LpStatus::kIterLimit;
      return sol;
    }
  }

  // Infeasible if an artificial stays basic at a positive level.
  for (int i = 0; i < m; ++i) {
    if (basis[static_cast<size_t>(i)] >= n + num_slack &&
        t[static_cast<size_t>(i + 1)][rhs] > 1e-6) {
      sol.status = LpStatus::kInfeasible;
      return sol;
    }
  }

  sol.status = LpStatus::kOptimal;
  sol.x.assign(static_cast<size_t>(n), 0.0);
  for (int i = 0; i < m; ++i) {
    if (basis[static_cast<size_t>(i)] < n) {
      sol.x[static_cast<size_t>(basis[static_cast<size_t>(i)])] =
          t[static_cast<size_t>(i + 1)][rhs];
    }
  }
  sol.objective = 0;
  for (int j = 0; j < n && j < static_cast<int>(problem.objective.size()); ++j) {
    sol.objective += problem.objective[static_cast<size_t>(j)] * sol.x[static_cast<size_t>(j)];
  }
  return sol;
}

}  // namespace cgra
