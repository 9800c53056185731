#include "solver/cp.hpp"

#include "telemetry/search_log.hpp"
#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace cgra {

namespace {

class BinaryConstraintImpl : public CpConstraint {
 public:
  BinaryConstraintImpl(CpVar x, CpVar y, std::function<bool(int, int)> accept)
      : vars_{x, y}, accept_(std::move(accept)) {}

  const std::vector<CpVar>& vars() const override { return vars_; }

  bool Propagate(CpModel& model, std::vector<CpVar>* changed) override {
    // Arc consistency both directions.
    return Revise(model, vars_[0], vars_[1], /*swapped=*/false, changed) &&
           Revise(model, vars_[1], vars_[0], /*swapped=*/true, changed);
  }

 private:
  bool Revise(CpModel& model, CpVar a, CpVar b, bool swapped,
              std::vector<CpVar>* changed) {
    const std::vector<int> dom_a = model.Domain(a);  // copy: we mutate
    for (int va : dom_a) {
      bool supported = false;
      for (int vb : model.Domain(b)) {
        const bool ok = swapped ? accept_(vb, va) : accept_(va, vb);
        if (ok) {
          supported = true;
          break;
        }
      }
      if (!supported) {
        if (!model.Remove(a, va)) return false;
        changed->push_back(a);
      }
    }
    return true;
  }

  std::vector<CpVar> vars_;
  std::function<bool(int, int)> accept_;
};

class AllDifferentImpl : public CpConstraint {
 public:
  explicit AllDifferentImpl(std::vector<CpVar> vars) : vars_(std::move(vars)) {}

  const std::vector<CpVar>& vars() const override { return vars_; }

  bool Propagate(CpModel& model, std::vector<CpVar>* changed) override {
    // Value elimination from assigned vars (forward checking level).
    for (CpVar v : vars_) {
      if (!model.Assigned(v)) continue;
      const int val = model.ValueOf(v);
      for (CpVar w : vars_) {
        if (w == v) continue;
        const auto& dom = model.Domain(w);
        if (std::find(dom.begin(), dom.end(), val) != dom.end()) {
          if (model.Assigned(w)) return false;  // two vars same value
          if (!model.Remove(w, val)) return false;
          changed->push_back(w);
        }
      }
    }
    // Pigeonhole check: union of domains must cover the variables.
    std::vector<int> uni;
    for (CpVar v : vars_) {
      const auto& dom = model.Domain(v);
      uni.insert(uni.end(), dom.begin(), dom.end());
    }
    std::sort(uni.begin(), uni.end());
    uni.erase(std::unique(uni.begin(), uni.end()), uni.end());
    return uni.size() >= vars_.size();
  }

 private:
  std::vector<CpVar> vars_;
};

}  // namespace

CpVar CpModel::AddVar(int lo, int hi) {
  assert(lo <= hi);
  std::vector<int> values(static_cast<size_t>(hi - lo + 1));
  std::iota(values.begin(), values.end(), lo);
  return AddVarWithDomain(std::move(values));
}

CpVar CpModel::AddVarWithDomain(std::vector<int> values) {
  assert(!values.empty());
  domains_.push_back(std::move(values));
  constraints_of_.emplace_back();
  return static_cast<CpVar>(domains_.size()) - 1;
}

bool CpModel::Remove(CpVar v, int value) {
  auto& dom = domains_[static_cast<size_t>(v)];
  auto it = std::find(dom.begin(), dom.end(), value);
  if (it == dom.end()) return !dom.empty();
  *it = dom.back();
  dom.pop_back();
  trail_.push_back(TrailEntry{v, value});
  return !dom.empty();
}

bool CpModel::Assign(CpVar v, int value) {
  const std::vector<int> dom = domains_[static_cast<size_t>(v)];  // copy
  bool present = false;
  for (int d : dom) {
    if (d == value) {
      present = true;
    } else if (!Remove(v, d)) {
      return false;
    }
  }
  return present;
}

void CpModel::UndoTo(size_t mark) {
  while (trail_.size() > mark) {
    const TrailEntry e = trail_.back();
    trail_.pop_back();
    domains_[static_cast<size_t>(e.var)].push_back(e.value);
  }
}

void CpModel::AddBinary(CpVar x, CpVar y, std::function<bool(int, int)> accept) {
  const int idx = static_cast<int>(constraints_.size());
  constraints_.push_back(
      std::make_unique<BinaryConstraintImpl>(x, y, std::move(accept)));
  constraints_of_[static_cast<size_t>(x)].push_back(idx);
  constraints_of_[static_cast<size_t>(y)].push_back(idx);
}

void CpModel::AddAllDifferent(std::vector<CpVar> vars) {
  const int idx = static_cast<int>(constraints_.size());
  for (CpVar v : vars) constraints_of_[static_cast<size_t>(v)].push_back(idx);
  constraints_.push_back(std::make_unique<AllDifferentImpl>(std::move(vars)));
}

bool CpModel::PropagateAll() {
  // AC-3 style work queue of constraint indices.
  std::vector<int> queue(constraints_.size());
  std::iota(queue.begin(), queue.end(), 0);
  std::vector<bool> queued(constraints_.size(), true);
  std::vector<CpVar> changed;
  while (!queue.empty()) {
    const int ci = queue.back();
    queue.pop_back();
    queued[static_cast<size_t>(ci)] = false;
    changed.clear();
    if (!constraints_[static_cast<size_t>(ci)]->Propagate(*this, &changed)) {
      return false;
    }
    for (CpVar v : changed) {
      for (int other : constraints_of_[static_cast<size_t>(v)]) {
        if (!queued[static_cast<size_t>(other)]) {
          queued[static_cast<size_t>(other)] = true;
          queue.push_back(other);
        }
      }
    }
  }
  return true;
}

int CpModel::PickVar() const {
  int best = -1;
  size_t best_size = SIZE_MAX;
  size_t best_degree = 0;
  for (int v = 0; v < num_vars(); ++v) {
    const size_t size = domains_[static_cast<size_t>(v)].size();
    if (size <= 1) continue;
    const size_t degree = constraints_of_[static_cast<size_t>(v)].size();
    if (size < best_size || (size == best_size && degree > best_degree)) {
      best_size = size;
      best_degree = degree;
      best = v;
    }
  }
  return best;
}

bool CpModel::Search(const Deadline& deadline, const StopToken& stop,
                     SolveStats* stats, int depth) {
  if (deadline.Expired() || stop.StopRequested()) return false;
  const int v = PickVar();
  if (v < 0) return true;  // all assigned
  std::vector<int> values = domains_[static_cast<size_t>(v)];
  std::sort(values.begin(), values.end());
  for (int value : values) {
    if (stats) ++stats->nodes;
    const size_t mark = TrailMark();
    if (Assign(v, value) && PropagateAll()) {
      if (Search(deadline, stop, stats, depth + 1)) return true;
    }
    if (stats) ++stats->backtracks;
    UndoTo(mark);
    if (deadline.Expired() || stop.StopRequested()) return false;
  }
  return false;
}

Result<std::vector<int>> CpModel::Solve(const Deadline& deadline,
                                        SolveStats* stats,
                                        const StopToken& stop) {
  telemetry::Span span("solver.search", "cp");
  if (!PropagateAll()) return Error::Unmappable("CSP root propagation wiped out");
  const bool found = Search(deadline, stop, stats, 0);
  if (stats != nullptr) {
    telemetry::SearchRecordSolverSample(stats->nodes, stats->backtracks, 0);
  }
  if (!found) {
    if (deadline.Expired() || stop.StopRequested()) {
      return Error::ResourceLimit(stop.StopRequested()
                                      ? "CSP search cancelled"
                                      : "CSP search hit the deadline");
    }
    return Error::Unmappable("CSP has no solution");
  }
  std::vector<int> solution(static_cast<size_t>(num_vars()));
  for (int v = 0; v < num_vars(); ++v) solution[static_cast<size_t>(v)] = ValueOf(v);
  return solution;
}

}  // namespace cgra
