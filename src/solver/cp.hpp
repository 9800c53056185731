// Finite-domain constraint-programming engine.
//
// Models the CSP column of Table I (Raffin et al. [43] solve
// scheduling+binding+routing through constraint programming). Plain
// but complete: explicit domains, AC-3-style propagation over binary
// constraints, all-different, MRV/degree variable ordering, chrono-
// logical backtracking with a trail, and a deadline.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "support/status.hpp"
#include "support/stop_token.hpp"
#include "support/timer.hpp"

namespace cgra {

class CpModel;

/// A finite-domain variable handle.
using CpVar = int;

class CpConstraint {
 public:
  virtual ~CpConstraint() = default;
  /// Variables this constraint watches.
  virtual const std::vector<CpVar>& vars() const = 0;
  /// Prunes domains; returns false on wipe-out. `changed` receives
  /// variables whose domain shrank.
  virtual bool Propagate(CpModel& model, std::vector<CpVar>* changed) = 0;
};

class CpModel {
 public:
  /// Adds a variable with domain [lo, hi]; returns its handle.
  CpVar AddVar(int lo, int hi);
  /// Adds a variable with an explicit domain.
  CpVar AddVarWithDomain(std::vector<int> values);

  int num_vars() const { return static_cast<int>(domains_.size()); }
  const std::vector<int>& Domain(CpVar v) const {
    return domains_[static_cast<size_t>(v)];
  }
  bool Assigned(CpVar v) const { return Domain(v).size() == 1; }
  int ValueOf(CpVar v) const { return Domain(v)[0]; }

  /// Removes `value` from v's domain (trailed). False on wipe-out.
  bool Remove(CpVar v, int value);
  /// Restricts v to exactly `value`. False on wipe-out.
  bool Assign(CpVar v, int value);

  // ---- constraints --------------------------------------------------------
  /// Generic binary constraint: accept(x_val, y_val).
  void AddBinary(CpVar x, CpVar y, std::function<bool(int, int)> accept);
  void AddAllDifferent(std::vector<CpVar> vars);
  /// x != y (special-cased all over mapping models).
  void AddNotEqual(CpVar x, CpVar y) {
    AddBinary(x, y, [](int a, int b) { return a != b; });
  }

  struct SolveStats {
    std::int64_t nodes = 0;
    std::int64_t backtracks = 0;
  };

  /// Finds one solution (values per variable), or kUnmappable /
  /// kResourceLimit on deadline expiry or cancellation via `stop`.
  Result<std::vector<int>> Solve(const Deadline& deadline = {},
                                 SolveStats* stats = nullptr,
                                 const StopToken& stop = {});

 private:
  friend class AllDifferentConstraint;
  friend class BinaryConstraint;

  bool PropagateAll();
  bool Search(const Deadline& deadline, const StopToken& stop,
              SolveStats* stats, int depth);
  int PickVar() const;  // MRV, tie-break on degree

  // Trail for backtracking: (var, removed value).
  struct TrailEntry {
    CpVar var;
    int value;
  };
  size_t TrailMark() const { return trail_.size(); }
  void UndoTo(size_t mark);

  std::vector<std::vector<int>> domains_;
  std::vector<std::unique_ptr<CpConstraint>> constraints_;
  std::vector<std::vector<int>> constraints_of_;  // var -> constraint idx
  std::vector<TrailEntry> trail_;
};

}  // namespace cgra
