#include "mapping/validator.hpp"

#include <algorithm>
#include <cstddef>
#include <tuple>
#include <vector>

#include "mapping/tracker.hpp"
#include "support/str.hpp"
#include "telemetry/telemetry.hpp"

namespace cgra {

namespace {

// The checks that need the fabric but no MRRG.
Status CheckShape(const Dfg& dfg, const Architecture& arch, const Mapping& m) {
  if (Status s = dfg.Verify(); !s.ok()) return s;
  if (Status s = arch.Validate(); !s.ok()) return s;
  if (m.ii < 1) return Error::InvalidArgument("II must be >= 1");
  if (m.ii > arch.MaxIi()) {
    return Error::InvalidArgument(
        StrFormat("II %d exceeds the configuration depth %d", m.ii, arch.MaxIi()));
  }
  if (static_cast<int>(m.place.size()) != dfg.num_ops()) {
    return Error::InvalidArgument("placement vector size mismatch");
  }
  return Status::Ok();
}

// Checks (1)-(5) once CheckShape has passed. Occupancy is counted in
// flat arrays indexed by (cell, slot), (bank, slot) and (node, slot).
Status CheckAgainst(const Dfg& dfg, const Mrrg& mrrg, const Mapping& m) {
  const Architecture& arch = mrrg.arch();
  const int ii = m.ii;
  auto slot_of = [&](int time) { return ((time % ii) + ii) % ii; };

  // (1) + (2): placements and FU exclusivity.
  std::vector<OpId> fu_busy(static_cast<size_t>(arch.num_cells()) * ii, -1);
  std::vector<int> bank_use(
      static_cast<size_t>(std::max(1, arch.params().num_banks)) * ii, 0);
  for (OpId op = 0; op < dfg.num_ops(); ++op) {
    const Op& o = dfg.op(op);
    const Placement& p = m.place[static_cast<size_t>(op)];
    if (arch.IsFolded(o.opcode)) {
      if (p.cell >= 0) {
        return Error::InvalidArgument(
            StrFormat("folded op %s must not occupy a cell", o.name.c_str()));
      }
      continue;
    }
    if (p.cell < 0 || p.cell >= arch.num_cells()) {
      return Error::InvalidArgument(
          StrFormat("op %s is not placed", o.name.c_str()));
    }
    if (p.time < 0 || p.time >= m.length) {
      return Error::InvalidArgument(
          StrFormat("op %s scheduled at %d outside [0, %d)", o.name.c_str(),
                    p.time, m.length));
    }
    if (!arch.CellAlive(p.cell)) {
      return Error::InvalidArgument(
          StrFormat("op %s bound to faulted cell %d", o.name.c_str(), p.cell));
    }
    if (!arch.CanExecute(p.cell, o)) {
      return Error::InvalidArgument(
          StrFormat("op %s bound to incompatible cell %d", o.name.c_str(), p.cell));
    }
    const int slot = slot_of(p.time);
    if (arch.ContextSlotFaulted(p.cell, slot)) {
      return Error::InvalidArgument(StrFormat(
          "op %s scheduled in faulted context slot %d of cell %d",
          o.name.c_str(), slot, p.cell));
    }
    OpId& holder = fu_busy[static_cast<size_t>(p.cell) * ii + slot];
    if (holder >= 0) {
      return Error::InvalidArgument(StrFormat(
          "ops %s and %s share cell %d in slot %d",
          dfg.op(holder).name.c_str(), o.name.c_str(), p.cell, slot));
    }
    holder = op;
    if (IsMemoryOp(o.opcode)) {
      const int bank = arch.caps(p.cell).bank;
      if (bank >= 0) {
        const int use = ++bank_use[static_cast<size_t>(bank) * ii + slot];
        if (use > arch.params().bank_ports) {
          return Error::InvalidArgument(StrFormat(
              "bank %d oversubscribed in slot %d (%d > %d ports)", bank,
              slot, use, arch.params().bank_ports));
        }
      }
    }
  }

  // (4): edges and routes.
  const std::vector<DfgEdge> edges = dfg.Edges(/*include_pred=*/true);
  if (m.routes.size() != edges.size()) {
    return Error::InvalidArgument(
        StrFormat("route vector has %zu entries for %zu edges", m.routes.size(),
                  edges.size()));
  }
  // Every (value, node, abs-time) a route holds, for (5).
  std::vector<std::tuple<ValueId, int, int>> occupancy;

  for (size_t e = 0; e < edges.size(); ++e) {
    const DfgEdge& edge = edges[e];
    const Op& from_op = dfg.op(edge.from);
    const Op& to_op = dfg.op(edge.to);
    const Placement& pf = m.place[static_cast<size_t>(edge.from)];
    const Placement& pt = m.place[static_cast<size_t>(edge.to)];

    if (edge.to_port == kOrderPort) {
      if (arch.IsFolded(from_op.opcode) || arch.IsFolded(to_op.opcode)) continue;
      if (pt.time + ii * edge.distance < pf.time + 1) {
        return Error::InvalidArgument(StrFormat(
            "ordering edge %s -> %s violated", from_op.name.c_str(),
            to_op.name.c_str()));
      }
      continue;
    }
    if (arch.IsFolded(from_op.opcode)) {
      if (!m.routes[e].steps.empty()) {
        return Error::InvalidArgument(
            StrFormat("edge from folded op %s must not be routed",
                      from_op.name.c_str()));
      }
      continue;
    }

    const int arrive = pt.time + ii * edge.distance;
    if (arrive < pf.time + 1) {
      return Error::InvalidArgument(StrFormat(
          "edge %s -> %s needs latency %d (< 1 cycle)", from_op.name.c_str(),
          to_op.name.c_str(), arrive - pf.time));
    }
    const Route& route = m.routes[e];
    if (route.steps.empty()) {
      return Error::InvalidArgument(StrFormat(
          "edge %s -> %s has no route", from_op.name.c_str(), to_op.name.c_str()));
    }
    // Starts at the producer's latch.
    if (route.steps.front().node != mrrg.HoldNode(pf.cell) ||
        route.steps.front().time != pf.time + 1) {
      return Error::InvalidArgument(StrFormat(
          "edge %s -> %s: route does not start at the producer's latch",
          from_op.name.c_str(), to_op.name.c_str()));
    }
    // Follows real links with matching latency.
    for (size_t i = 0; i + 1 < route.steps.size(); ++i) {
      const RouteStep& a = route.steps[i];
      const RouteStep& b = route.steps[i + 1];
      bool ok = false;
      for (const Mrrg::Link& link : mrrg.OutLinks(a.node)) {
        if (link.to == b.node && a.time + link.latency == b.time) {
          ok = true;
          break;
        }
      }
      if (!ok) {
        return Error::InvalidArgument(StrFormat(
            "edge %s -> %s: route step %zu does not follow an MRRG link",
            from_op.name.c_str(), to_op.name.c_str(), i));
      }
    }
    // Ends in a hold the consumer reads at its issue cycle.
    const RouteStep& last = route.steps.back();
    const auto& readable = mrrg.ReadableHolds(pt.cell);
    if (last.time != arrive ||
        std::find(readable.begin(), readable.end(), last.node) == readable.end()) {
      return Error::InvalidArgument(StrFormat(
          "edge %s -> %s: route does not deliver to a readable hold at t=%d",
          from_op.name.c_str(), to_op.name.c_str(), arrive));
    }
    for (const RouteStep& step : route.steps) {
      const int cell = mrrg.cell(step.node);
      if (cell >= 0 && !arch.CellAlive(cell)) {
        return Error::InvalidArgument(StrFormat(
            "edge %s -> %s: route passes through faulted cell %d",
            from_op.name.c_str(), to_op.name.c_str(), cell));
      }
      if (!mrrg.SlotUsable(step.node, slot_of(step.time))) {
        return Error::InvalidArgument(StrFormat(
            "edge %s -> %s: route uses faulted context slot %d of cell %d",
            from_op.name.c_str(), to_op.name.c_str(), slot_of(step.time),
            cell));
      }
      occupancy.emplace_back(edge.from, step.node, step.time);
    }
  }

  // (5): capacities per (node, slot). A value routed to the same node
  // and cycle by two edges (net sharing) holds it once; the same value
  // at two cycles of one slot (modulo self-overlap) holds it twice.
  // Counting in (value, node, time) order keeps the reported slot the
  // one a sorted walk reaches first.
  std::sort(occupancy.begin(), occupancy.end());
  occupancy.erase(std::unique(occupancy.begin(), occupancy.end()),
                  occupancy.end());
  std::vector<int> load(static_cast<size_t>(mrrg.num_nodes()) * ii, 0);
  for (const auto& [value, node, time] : occupancy) {
    const int slot = slot_of(time);
    const int use = ++load[static_cast<size_t>(node) * ii + slot];
    if (use > mrrg.capacity(node)) {
      const Mrrg::Kind k = mrrg.kind(node);
      const char* kind = k == Mrrg::Kind::kHold ? "register file"
                         : k == Mrrg::Kind::kRt ? "route channel"
                                                : "FU";
      return Error::InvalidArgument(StrFormat(
          "%s of cell %d oversubscribed in slot %d (%d > %d)", kind,
          mrrg.cell(node), slot, use, mrrg.capacity(node)));
    }
  }
  return Status::Ok();
}

}  // namespace

Status ValidateMapping(const Dfg& dfg, const Architecture& arch,
                       const Mapping& m) {
  telemetry::Span span("mapping.validate");
  if (Status s = CheckShape(dfg, arch, m); !s.ok()) return s;
  return CheckAgainst(dfg, arch.mrrg(), m);
}

}  // namespace cgra
