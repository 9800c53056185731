#include "mapping/place_route.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "telemetry/search_log.hpp"

namespace cgra {
namespace {

// Folds one committed route into the active search log's per-cell
// congestion heatmap (no-op without a collector). MRRG nodes without a
// cell (shared register file) are counted separately.
void FoldRouteSteps(const Mrrg& mrrg, const Route& route) {
  if (telemetry::ActiveSearchLog() == nullptr) return;
  for (const RouteStep& s : route.steps) {
    telemetry::SearchRecordCellRouted(mrrg.cell(s.node));
  }
}

}  // namespace

std::vector<OpId> MappableOps(const Dfg& dfg, const Architecture& arch) {
  std::vector<OpId> ops;
  for (OpId op = 0; op < dfg.num_ops(); ++op) {
    if (!arch.IsFolded(dfg.op(op).opcode)) ops.push_back(op);
  }
  return ops;
}

PlaceRouteState::PlaceRouteState(const Dfg& dfg, const Architecture& arch,
                                 int ii)
    : dfg_(&dfg),
      arch_(&arch),
      ii_(ii),
      tracker_(arch.mrrg(), ii),
      place_(static_cast<size_t>(dfg.num_ops())),
      edges_(dfg.Edges(/*include_pred=*/true)),
      routes_(edges_.size()),
      edges_of_(static_cast<size_t>(dfg.num_ops())),
      bank_load_(static_cast<size_t>(std::max(1, arch.params().num_banks)),
                 std::vector<int>(static_cast<size_t>(ii), 0)),
      mappable_(cgra::MappableOps(dfg, arch)) {
  for (size_t e = 0; e < edges_.size(); ++e) {
    edges_of_[static_cast<size_t>(edges_[e].from)].push_back(static_cast<int>(e));
    if (edges_[e].to != edges_[e].from) {
      edges_of_[static_cast<size_t>(edges_[e].to)].push_back(static_cast<int>(e));
    }
  }
  telemetry::SearchRecordGrid(arch.rows(), arch.cols());
}

bool PlaceRouteState::RouteEdge(int edge_index) {
  const DfgEdge& e = edges_[static_cast<size_t>(edge_index)];
  const Placement& from = place_[static_cast<size_t>(e.from)];
  const Placement& to = place_[static_cast<size_t>(e.to)];
  const int arrive = to.time + ii_ * e.distance;

  if (e.to_port == kOrderPort) {
    // Ordering-only: the consumer must issue strictly after the
    // producer's side effect commits. No value is routed.
    if (arrive < from.time + 1) {
      last_fail_ = FailReason::kTimingViolated;
      return false;
    }
    routes_[static_cast<size_t>(edge_index)] = Route{};
    return true;
  }
  if (arrive < from.time + 1) {
    last_fail_ = FailReason::kTimingViolated;
    return false;
  }
  RouteRequest req;
  req.from_cell = from.cell;
  req.from_time = from.time;
  req.to_cell = to.cell;
  req.to_time = arrive;
  req.value = e.from;
  auto route = RouteValue(tracker_.mrrg(), tracker_, req);
  telemetry::SearchRecordRouteResult(route.ok());
  if (!route.ok()) {
    telemetry::SearchRecordCellCongested(req.to_cell);
    last_fail_ = FailReason::kRouteCongested;
    return false;
  }
  routes_[static_cast<size_t>(edge_index)] = std::move(route).value();
  return true;
}

void PlaceRouteState::UnrouteEdge(int edge_index) {
  auto& route = routes_[static_cast<size_t>(edge_index)];
  if (!route.has_value()) return;
  ReleaseRoute(tracker_, *route, edges_[static_cast<size_t>(edge_index)].from);
  route.reset();
}

bool PlaceRouteState::TryPlace(OpId op, int cell, int time) {
  assert(!IsPlaced(op));
  last_fail_ = FailReason::kNone;
  const Op& o = dfg_->op(op);
  if (!arch_->CanExecute(cell, o)) {
    last_fail_ = FailReason::kIncompatibleCell;
    telemetry::SearchRecordPlaceReject(static_cast<int>(last_fail_));
    return false;
  }
  const int fu = tracker_.mrrg().FuNode(cell);
  if (!tracker_.CanOccupy(fu, time, op)) {
    last_fail_ = FailReason::kFuBusy;
    telemetry::SearchRecordPlaceReject(static_cast<int>(last_fail_));
    return false;
  }
  const bool is_mem = IsMemoryOp(o.opcode);
  const int slot = ((time % ii_) + ii_) % ii_;
  if (is_mem) {
    const int bank = BankOf(cell);
    if (bank >= 0 &&
        bank_load_[static_cast<size_t>(bank)][static_cast<size_t>(slot)] >=
            arch_->params().bank_ports) {
      last_fail_ = FailReason::kBankPortConflict;
      telemetry::SearchRecordPlaceReject(static_cast<int>(last_fail_));
      return false;
    }
  }

  tracker_.Occupy(fu, time, op);
  place_[static_cast<size_t>(op)] = Placement{cell, time};
  if (is_mem && BankOf(cell) >= 0) {
    ++bank_load_[static_cast<size_t>(BankOf(cell))][static_cast<size_t>(slot)];
  }

  routed_.clear();
  last_route_steps_ = 0;
  bool ok = true;
  for (int e : edges_of_[static_cast<size_t>(op)]) {
    const DfgEdge& edge = edges_[static_cast<size_t>(e)];
    if (routes_[static_cast<size_t>(e)].has_value()) continue;  // self-loop routed once
    const OpId other = edge.from == op ? edge.to : edge.from;
    // Folded producers (constants / loop counter) need no route.
    if (arch_->IsFolded(dfg_->op(edge.from).opcode)) continue;
    if (other != op && !IsPlaced(other)) continue;
    if (!RouteEdge(e)) {
      ok = false;
      break;
    }
    last_route_steps_ +=
        static_cast<int>(routes_[static_cast<size_t>(e)]->steps.size());
    routed_.push_back(e);
  }

  if (!ok) {
    for (int e : routed_) UnrouteEdge(e);
    tracker_.Release(fu, time, op);
    if (is_mem && BankOf(cell) >= 0) {
      --bank_load_[static_cast<size_t>(BankOf(cell))][static_cast<size_t>(slot)];
    }
    place_[static_cast<size_t>(op)] = Placement{};
    telemetry::SearchRecordPlaceReject(static_cast<int>(last_fail_));
    return false;
  }
  for (int e : routed_) {
    FoldRouteSteps(tracker_.mrrg(), *routes_[static_cast<size_t>(e)]);
  }
  ++placed_count_;
  telemetry::SearchRecordPlaceAccept();
  return true;
}

int PlaceRouteState::EarliestStart(OpId op, int floor) const {
  for (int e : edges_of_[static_cast<size_t>(op)]) {
    const DfgEdge& edge = edges_[static_cast<size_t>(e)];
    if (edge.to != op || edge.from == op) continue;
    if (arch_->IsFolded(dfg_->op(edge.from).opcode)) continue;
    if (IsPlaced(edge.from)) {
      floor = std::max(floor, placement(edge.from).time + 1 - ii_ * edge.distance);
    }
  }
  return floor;
}

std::vector<int> PlaceRouteState::ByAffinity(OpId op,
                                             std::vector<int> cells) const {
  std::vector<std::pair<long long, int>> keyed;  // (affinity, cell)
  keyed.reserve(cells.size());
  for (const int cell : cells) {
    long long affinity = 0;
    for (int e : edges_of_[static_cast<size_t>(op)]) {
      const DfgEdge& edge = edges_[static_cast<size_t>(e)];
      const OpId other = edge.from == op ? edge.to : edge.from;
      if (other != op && IsPlaced(other)) {
        affinity += arch_->HopDistance(cell, placement(other).cell);
      }
    }
    keyed.emplace_back(affinity, cell);
  }
  std::stable_sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  for (size_t i = 0; i < cells.size(); ++i) cells[i] = keyed[i].second;
  return cells;
}

void PlaceRouteState::Unplace(OpId op) {
  assert(IsPlaced(op));
  const Placement p = place_[static_cast<size_t>(op)];
  for (int e : edges_of_[static_cast<size_t>(op)]) {
    UnrouteEdge(e);
  }
  tracker_.Release(tracker_.mrrg().FuNode(p.cell), p.time, op);
  if (IsMemoryOp(dfg_->op(op).opcode) && BankOf(p.cell) >= 0) {
    const int slot = ((p.time % ii_) + ii_) % ii_;
    --bank_load_[static_cast<size_t>(BankOf(p.cell))][static_cast<size_t>(slot)];
  }
  place_[static_cast<size_t>(op)] = Placement{};
  --placed_count_;
  telemetry::SearchRecordEviction();
}

void PlaceRouteState::Reset() {
  tracker_.Reset();
  std::fill(place_.begin(), place_.end(), Placement{});
  for (std::optional<Route>& route : routes_) route.reset();
  for (std::vector<int>& slots : bank_load_) {
    std::fill(slots.begin(), slots.end(), 0);
  }
  placed_count_ = 0;
  last_fail_ = FailReason::kNone;
  last_route_steps_ = 0;
}

Mapping PlaceRouteState::Finalize() const {
  Mapping m;
  m.ii = ii_;
  m.place = place_;
  int length = 1;
  for (const Placement& p : place_) {
    if (p.cell >= 0) length = std::max(length, p.time + 1);
  }
  m.length = std::max(length, ii_);
  m.routes.resize(edges_.size());
  for (size_t e = 0; e < edges_.size(); ++e) {
    if (routes_[e].has_value()) m.routes[e] = *routes_[e];
  }
  return m;
}

}  // namespace cgra
