#include "solver/sat.hpp"

#include "telemetry/search_log.hpp"
#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cgra {
namespace {

// Luby restart sequence (unit = 128 conflicts).
std::int64_t Luby(std::int64_t i) {
  std::int64_t k = 1;
  while ((1ll << (k + 1)) <= i + 1) ++k;
  for (;;) {
    if (i + 1 == (1ll << k)) return 1ll << (k - 1);
    i -= (1ll << (k - 1));
    // recompute k for the remainder
    k = 1;
    while ((1ll << (k + 1)) <= i + 1) ++k;
  }
}

}  // namespace

int SatSolver::NewVars(int n) {
  const int first = num_vars();
  assign_.insert(assign_.end(), static_cast<size_t>(n), -1);
  saved_phase_.insert(saved_phase_.end(), static_cast<size_t>(n), 0);
  level_.insert(level_.end(), static_cast<size_t>(n), -1);
  reason_.insert(reason_.end(), static_cast<size_t>(n), -1);
  activity_.insert(activity_.end(), static_cast<size_t>(n), 0.0);
  heap_pos_.insert(heap_pos_.end(), static_cast<size_t>(n), -1);
  seen_.insert(seen_.end(), static_cast<size_t>(n), 0);
  watches_.resize(2 * static_cast<size_t>(num_vars()));
  for (int v = first; v < num_vars(); ++v) HeapInsert(v);
  return first;
}

void SatSolver::AttachWatches(int ci) {
  const Clause& c = clauses_[static_cast<size_t>(ci)];
  assert(c.lits.size() >= 2);
  watches_[static_cast<size_t>(c.lits[0])].push_back(ci);
  watches_[static_cast<size_t>(c.lits[1])].push_back(ci);
}

void SatSolver::AddClause(std::vector<Lit> lits) {
  // De-duplicate; drop tautologies.
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  for (size_t i = 0; i + 1 < lits.size(); ++i) {
    if (lits[i] == Negate(lits[i + 1])) return;  // tautology
  }
  if (lits.empty()) {
    unsat_ = true;
    return;
  }
  if (lits.size() == 1) {
    // Record as a pending unit via a fake decision-level-0 enqueue at
    // solve time; store as a unit clause.
    units_.push_back(lits[0]);
    return;
  }
  clauses_.push_back(Clause{std::move(lits), false, 0});
  AttachWatches(static_cast<int>(clauses_.size()) - 1);
}

void SatSolver::AtMostOnePairwise(const std::vector<Lit>& lits) {
  for (size_t i = 0; i < lits.size(); ++i) {
    for (size_t j = i + 1; j < lits.size(); ++j) {
      AddClause({Negate(lits[i]), Negate(lits[j])});
    }
  }
}

void SatSolver::AtMostOneSequential(const std::vector<Lit>& lits) {
  const int n = static_cast<int>(lits.size());
  if (n <= 4) {
    AtMostOnePairwise(lits);
    return;
  }
  // Sinz 2005: s_i = "some lit among the first i+1 is true".
  const int s0 = NewVars(n - 1);
  AddClause({Negate(lits[0]), PosLit(s0)});
  for (int i = 1; i < n - 1; ++i) {
    AddClause({Negate(lits[static_cast<size_t>(i)]), PosLit(s0 + i)});
    AddClause({NegLit(s0 + i - 1), PosLit(s0 + i)});
    AddClause({Negate(lits[static_cast<size_t>(i)]), NegLit(s0 + i - 1)});
  }
  AddClause({Negate(lits[static_cast<size_t>(n - 1)]), NegLit(s0 + n - 2)});
}

void SatSolver::ExactlyOne(const std::vector<Lit>& lits) {
  AddClause(lits);
  AtMostOneSequential(lits);
}

void SatSolver::Enqueue(Lit l, int reason_clause) {
  const int v = VarOf(l);
  assign_[static_cast<size_t>(v)] = IsPos(l) ? 1 : 0;
  level_[static_cast<size_t>(v)] = static_cast<int>(trail_lim_.size());
  reason_[static_cast<size_t>(v)] = reason_clause;
  trail_.push_back(l);
}

int SatSolver::Propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++propagations_;
    const Lit false_lit = Negate(p);  // watches on ~p must move
    auto& wl = watches_[static_cast<size_t>(false_lit)];
    size_t keep = 0;
    for (size_t wi = 0; wi < wl.size(); ++wi) {
      const int ci = wl[wi];
      Clause& c = clauses_[static_cast<size_t>(ci)];
      // Ensure the false literal sits at position 1.
      if (c.lits[0] == false_lit) std::swap(c.lits[0], c.lits[1]);
      if (LitTrue(c.lits[0])) {
        wl[keep++] = ci;  // satisfied
        continue;
      }
      // Find a new watch.
      bool moved = false;
      for (size_t k = 2; k < c.lits.size(); ++k) {
        if (!LitFalse(c.lits[k])) {
          std::swap(c.lits[1], c.lits[k]);
          watches_[static_cast<size_t>(c.lits[1])].push_back(ci);
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflict.
      wl[keep++] = ci;
      if (LitFalse(c.lits[0])) {
        // Conflict: keep remaining watches, return.
        for (size_t rest = wi + 1; rest < wl.size(); ++rest) wl[keep++] = wl[rest];
        wl.resize(keep);
        return ci;
      }
      Enqueue(c.lits[0], ci);
    }
    wl.resize(keep);
  }
  return -1;
}

void SatSolver::BumpVar(int var) {
  activity_[static_cast<size_t>(var)] += var_inc_;
  if (activity_[static_cast<size_t>(var)] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
    // Rescaling can round distinct activities to equal ones, whose order
    // then falls to the index tie-break.
    HeapRebuild();
  } else if (heap_pos_[static_cast<size_t>(var)] >= 0) {
    HeapSiftUp(static_cast<size_t>(heap_pos_[static_cast<size_t>(var)]));
  }
}

void SatSolver::DecayActivities() { var_inc_ /= 0.95; }

void SatSolver::Analyze(int conflict, std::vector<Lit>* learned,
                        int* backjump_level) {
  learned->clear();
  learned->push_back(0);  // slot for the asserting literal
  int counter = 0;
  Lit p = -1;
  size_t trail_index = trail_.size();
  const int current_level = static_cast<int>(trail_lim_.size());

  int ci = conflict;
  do {
    const Clause& c = clauses_[static_cast<size_t>(ci)];
    for (size_t i = (p == -1 ? 0 : 1); i < c.lits.size(); ++i) {
      const Lit q = c.lits[i];
      const int v = VarOf(q);
      if (!seen_[static_cast<size_t>(v)] && level_[static_cast<size_t>(v)] > 0) {
        seen_[static_cast<size_t>(v)] = 1;
        BumpVar(v);
        if (level_[static_cast<size_t>(v)] >= current_level) {
          ++counter;
        } else {
          learned->push_back(q);
        }
      }
    }
    // Walk back to the most recent seen literal on the trail.
    do {
      --trail_index;
      p = trail_[trail_index];
    } while (!seen_[static_cast<size_t>(VarOf(p))]);
    seen_[static_cast<size_t>(VarOf(p))] = 0;
    ci = reason_[static_cast<size_t>(VarOf(p))];
    --counter;
  } while (counter > 0);
  (*learned)[0] = Negate(p);
  // The walk cleared every current-level mark; clear the rest.
  for (size_t i = 1; i < learned->size(); ++i) {
    seen_[static_cast<size_t>(VarOf((*learned)[i]))] = 0;
  }

  // Backjump to the second-highest level in the learned clause.
  *backjump_level = 0;
  for (size_t i = 1; i < learned->size(); ++i) {
    *backjump_level =
        std::max(*backjump_level, level_[static_cast<size_t>(VarOf((*learned)[i]))]);
  }
  // Move a literal of the backjump level to position 1 (watch invariant).
  if (learned->size() > 1) {
    size_t best = 1;
    for (size_t i = 2; i < learned->size(); ++i) {
      if (level_[static_cast<size_t>(VarOf((*learned)[i]))] >
          level_[static_cast<size_t>(VarOf((*learned)[best]))]) {
        best = i;
      }
    }
    std::swap((*learned)[1], (*learned)[best]);
  }
}

void SatSolver::Backtrack(int target_level) {
  while (static_cast<int>(trail_lim_.size()) > target_level) {
    const int boundary = trail_lim_.back();
    trail_lim_.pop_back();
    while (static_cast<int>(trail_.size()) > boundary) {
      const Lit l = trail_.back();
      trail_.pop_back();
      const int v = VarOf(l);
      saved_phase_[static_cast<size_t>(v)] = assign_[static_cast<size_t>(v)];
      assign_[static_cast<size_t>(v)] = -1;
      reason_[static_cast<size_t>(v)] = -1;
      level_[static_cast<size_t>(v)] = -1;
      HeapInsert(v);
    }
  }
  qhead_ = trail_.size();
}

bool SatSolver::HeapBefore(int a, int b) const {
  const double act_a = activity_[static_cast<size_t>(a)];
  const double act_b = activity_[static_cast<size_t>(b)];
  return act_a > act_b || (act_a == act_b && a < b);
}

void SatSolver::HeapSiftUp(size_t pos) {
  const int v = heap_[pos];
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (!HeapBefore(v, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    heap_pos_[static_cast<size_t>(heap_[pos])] = static_cast<int>(pos);
    pos = parent;
  }
  heap_[pos] = v;
  heap_pos_[static_cast<size_t>(v)] = static_cast<int>(pos);
}

void SatSolver::HeapSiftDown(size_t pos) {
  const int v = heap_[pos];
  for (;;) {
    size_t child = 2 * pos + 1;
    if (child >= heap_.size()) break;
    if (child + 1 < heap_.size() && HeapBefore(heap_[child + 1], heap_[child])) ++child;
    if (!HeapBefore(heap_[child], v)) break;
    heap_[pos] = heap_[child];
    heap_pos_[static_cast<size_t>(heap_[pos])] = static_cast<int>(pos);
    pos = child;
  }
  heap_[pos] = v;
  heap_pos_[static_cast<size_t>(v)] = static_cast<int>(pos);
}

void SatSolver::HeapInsert(int var) {
  if (heap_pos_[static_cast<size_t>(var)] >= 0) return;
  heap_.push_back(var);
  HeapSiftUp(heap_.size() - 1);
}

void SatSolver::HeapRebuild() {
  for (size_t i = heap_.size() / 2; i-- > 0;) HeapSiftDown(i);
}

int SatSolver::PickBranchVar() {
  while (!heap_.empty() && !Unassigned(heap_[0])) {
    heap_pos_[static_cast<size_t>(heap_[0])] = -1;
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) HeapSiftDown(0);
  }
  return heap_.empty() ? -1 : heap_[0];
}

void SatSolver::ReduceLearnedDb() {
  // Drop the lower-activity half of long learned clauses. Watches are
  // rebuilt wholesale (simple and correct; called rarely).
  std::vector<Clause> kept;
  std::vector<double> acts;
  for (const Clause& c : clauses_) {
    if (c.learned && c.lits.size() > 2) acts.push_back(c.activity);
  }
  if (acts.size() < 2000) return;
  std::nth_element(acts.begin(), acts.begin() + acts.size() / 2, acts.end());
  const double median = acts[acts.size() / 2];
  // Cannot remove clauses that are a reason for a current assignment.
  std::vector<bool> is_reason(clauses_.size(), false);
  for (int v = 0; v < num_vars(); ++v) {
    if (reason_[static_cast<size_t>(v)] >= 0) {
      is_reason[static_cast<size_t>(reason_[static_cast<size_t>(v)])] = true;
    }
  }
  std::vector<int> remap(clauses_.size(), -1);
  for (size_t i = 0; i < clauses_.size(); ++i) {
    Clause& c = clauses_[i];
    const bool drop = c.learned && c.lits.size() > 2 && c.activity < median &&
                      !is_reason[i];
    if (!drop) {
      remap[i] = static_cast<int>(kept.size());
      kept.push_back(std::move(c));
    }
  }
  clauses_ = std::move(kept);
  for (auto& w : watches_) w.clear();
  for (size_t i = 0; i < clauses_.size(); ++i) AttachWatches(static_cast<int>(i));
  for (int v = 0; v < num_vars(); ++v) {
    if (reason_[static_cast<size_t>(v)] >= 0) {
      reason_[static_cast<size_t>(v)] = remap[static_cast<size_t>(reason_[static_cast<size_t>(v)])];
    }
  }
}

SatResult SatSolver::Solve(const Deadline& deadline, const StopToken& stop) {
  telemetry::Span span("solver.search", "sat");
  if (unsat_) return SatResult::kUnsat;
  Backtrack(0);  // make Solve incremental: clauses may arrive between calls
  qhead_ = 0;    // re-propagate the level-0 trail against any new clauses
  // Level-0 units.
  for (Lit u : units_) {
    if (LitFalse(u)) return SatResult::kUnsat;
    if (!LitTrue(u)) Enqueue(u, -1);
  }
  if (Propagate() >= 0) return SatResult::kUnsat;

  std::int64_t restart_index = 1;
  std::int64_t conflicts_until_restart = 128 * Luby(restart_index);
  std::vector<Lit> learned;

  for (;;) {
    const int conflict = Propagate();
    if (conflict >= 0) {
      ++conflicts_;
      clauses_[static_cast<size_t>(conflict)].activity += 1.0;
      if (trail_lim_.empty()) return SatResult::kUnsat;
      int backjump = 0;
      Analyze(conflict, &learned, &backjump);
      Backtrack(backjump);
      if (learned.size() == 1) {
        Enqueue(learned[0], -1);
      } else {
        clauses_.push_back(Clause{learned, true, 1.0});
        AttachWatches(static_cast<int>(clauses_.size()) - 1);
        Enqueue(learned[0], static_cast<int>(clauses_.size()) - 1);
      }
      DecayActivities();
      if (--conflicts_until_restart <= 0) {
        ++restart_index;
        conflicts_until_restart = 128 * Luby(restart_index);
        // Solver progress sample per restart: restart count is keyed on
        // conflicts (Luby), so identical runs sample identically.
        telemetry::SearchRecordSolverSample(decisions_, conflicts_,
                                            restart_index - 1);
        Backtrack(0);
        ReduceLearnedDb();
      }
      if ((conflicts_ & 255) == 0 &&
          (deadline.Expired() || stop.StopRequested())) {
        return SatResult::kUnknown;
      }
    } else {
      const int v = PickBranchVar();
      if (v < 0) {
        telemetry::SearchRecordSolverSample(decisions_, conflicts_,
                                            restart_index - 1);
        return SatResult::kSat;
      }
      if ((decisions_ & 1023) == 0 && stop.StopRequested()) {
        return SatResult::kUnknown;
      }
      ++decisions_;
      trail_lim_.push_back(static_cast<int>(trail_.size()));
      // Phase saving: repeat the last polarity (default false).
      Enqueue(saved_phase_[static_cast<size_t>(v)] == 1 ? PosLit(v) : NegLit(v), -1);
    }
  }
}

}  // namespace cgra
