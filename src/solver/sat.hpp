// CDCL SAT solver.
//
// Backs the SAT-based mapper (Miyasaka et al. [17]) and the DPLL(T)
// SMT layer (Donovick et al. [44] style). A conventional conflict-
// driven design: two-watched-literal propagation, 1-UIP conflict
// analysis with clause learning and non-chronological backjumping,
// VSIDS-style decaying activities kept in an indexed binary heap,
// phase saving, Luby restarts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/stop_token.hpp"
#include "support/timer.hpp"

namespace cgra {

/// Literal encoding: variable v (0-based) => positive literal 2v,
/// negative literal 2v+1.
using Lit = std::int32_t;
inline Lit PosLit(int var) { return 2 * var; }
inline Lit NegLit(int var) { return 2 * var + 1; }
inline Lit Negate(Lit l) { return l ^ 1; }
inline int VarOf(Lit l) { return l >> 1; }
inline bool IsPos(Lit l) { return (l & 1) == 0; }

enum class SatResult { kSat, kUnsat, kUnknown };

class SatSolver {
 public:
  /// Creates `n` fresh variables; returns the first index.
  int NewVars(int n);
  int num_vars() const { return static_cast<int>(assign_.size()); }

  /// Adds a clause (empty clause makes the instance trivially unsat).
  void AddClause(std::vector<Lit> lits);

  // Convenience encodings used by the mapping CNF builders.
  void AddUnit(Lit l) { AddClause({l}); }
  void AddImplies(Lit a, Lit b) { AddClause({Negate(a), b}); }
  void AtMostOnePairwise(const std::vector<Lit>& lits);
  /// Sinz sequential-counter at-most-one (linear clauses, adds aux vars).
  void AtMostOneSequential(const std::vector<Lit>& lits);
  void ExactlyOne(const std::vector<Lit>& lits);

  /// Solves; deterministic for a fixed clause set. Returns kUnknown
  /// when the deadline expires or `stop` requests cancellation (the
  /// portfolio engine cancelling a losing mapper mid-search).
  SatResult Solve(const Deadline& deadline = {}, const StopToken& stop = {});

  /// Model access after kSat.
  bool Value(int var) const { return assign_[static_cast<size_t>(var)] == 1; }

  // Statistics.
  std::int64_t conflicts() const { return conflicts_; }
  std::int64_t decisions() const { return decisions_; }
  std::int64_t propagations() const { return propagations_; }

 private:
  struct Clause {
    std::vector<Lit> lits;
    bool learned = false;
    double activity = 0;
  };

  // Assignment: -1 unassigned, 0 false, 1 true (per variable).
  bool LitTrue(Lit l) const {
    const int a = assign_[static_cast<size_t>(VarOf(l))];
    return a >= 0 && (a == 1) == IsPos(l);
  }
  bool LitFalse(Lit l) const {
    const int a = assign_[static_cast<size_t>(VarOf(l))];
    return a >= 0 && (a == 1) != IsPos(l);
  }
  bool Unassigned(int var) const { return assign_[static_cast<size_t>(var)] < 0; }

  void Enqueue(Lit l, int reason_clause);
  int Propagate();  // returns conflicting clause index or -1
  void Analyze(int conflict, std::vector<Lit>* learned, int* backjump_level);
  void Backtrack(int level);
  void BumpVar(int var);
  void DecayActivities();
  int PickBranchVar();
  void AttachWatches(int clause_index);
  void ReduceLearnedDb();

  // Branching order: a binary heap of variables by activity descending,
  // then index ascending, so its top is the variable a linear scan for
  // the first highest-activity one would pick. Every unassigned
  // variable is in the heap; assigned ones leave it lazily when they
  // reach the top in PickBranchVar.
  bool HeapBefore(int a, int b) const;
  void HeapSiftUp(size_t pos);
  void HeapSiftDown(size_t pos);
  void HeapInsert(int var);
  void HeapRebuild();

  std::vector<Clause> clauses_;
  std::vector<Lit> units_;                 // level-0 unit clauses
  std::vector<std::vector<int>> watches_;  // per literal: clause indices
  std::vector<std::int8_t> assign_;
  std::vector<std::int8_t> saved_phase_;
  std::vector<int> level_;
  std::vector<int> reason_;
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  size_t qhead_ = 0;
  std::vector<double> activity_;
  std::vector<int> heap_;      // variables in heap order
  std::vector<int> heap_pos_;  // per variable: index in heap_, or -1
  std::vector<char> seen_;     // Analyze marks, all zero between calls
  double var_inc_ = 1.0;
  bool unsat_ = false;
  std::int64_t conflicts_ = 0, decisions_ = 0, propagations_ = 0;
};

}  // namespace cgra
