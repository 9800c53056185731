#include "sim/compile.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "arch/mrrg.hpp"
#include "mapping/tracker.hpp"
#include "support/str.hpp"

namespace cgra {
namespace {

// One register-allocation unit: a value's maximal contiguous stay in
// one hold (RF). Written at `a` (by the producer FU latch or an RT
// transfer), last read at `b`.
struct LiveUnit {
  int hold;       // MRRG hold node
  ValueId value;  // producer op
  int a, b;       // inclusive absolute cycle range (iteration-0 frame)
  int reg = -1;   // static: physical reg; rotating: iteration-0 physical
  // When this unit is the read site of a loop-carried edge of distance
  // d, iterations 0..d-1 read "virtual" copies -1..-d that no producer
  // instance ever writes: those registers must keep their reset /
  // preload content FROM CYCLE 0 until the read. warmup = max d.
  int warmup = 0;
};

struct RegAlloc {
  // Unit lookup: (hold, value, time) -> unit index.
  std::map<std::tuple<int, ValueId, int>, int> at;
  std::vector<LiveUnit> units;
  bool rotating = false;
  int ii = 1;

  const LiveUnit* Find(int hold, ValueId value, int time) const {
    auto it = at.find({hold, value, time});
    return it == at.end() ? nullptr : &units[static_cast<size_t>(it->second)];
  }

  // Config register index for READING unit `u` at absolute time t.
  int ReadIndex(const LiveUnit& u, int t, int R) const {
    if (!rotating) return u.reg;
    return ((u.reg - t / ii) % R + R) % R;
  }
  // Config register index for WRITING unit `u` at absolute time t.
  int WriteIndex(const LiveUnit& u, int t, int R) const {
    return ReadIndex(u, t, R);  // same rebasing formula
  }
};

bool IntervalsOverlap(int a1, int b1, int a2, int b2) {
  return a1 <= b2 && a2 <= b1;
}

constexpr int kSinceReset = -(1 << 28);  // virtual copies reserve from reset

// Occupancy window of copy k of a unit. Real copies (k >= 0) live
// [a + k*ii, b + k*ii]; virtual warm-up copies (k < 0) reserve their
// register from reset until the last read of that copy.
std::pair<int, int> CopyInterval(const LiveUnit& u, int k, int ii) {
  if (k >= 0) return {u.a + k * ii, u.b + k * ii};
  return {kSinceReset, u.b + k * ii};
}

// True if units u (at register ru) and w (at rw) ever clash on a
// physical register while live — including each other's virtual
// warm-up reservations. Shared by the greedy allocator and the
// post-allocation verifier so they can never disagree.
bool UnitsCollide(const LiveUnit& u, int ru, const LiveUnit& w, int rw, int ii,
                  int R, bool rotating) {
  const int span = (std::max(u.b, w.b) - std::min(u.a, w.a)) / ii + R + 2;
  for (int k = -u.warmup; k <= span; ++k) {
    for (int m = -w.warmup; m <= span; ++m) {
      const int pu = rotating ? ((ru + k) % R + R) % R : ru;
      const int pw = rotating ? ((rw + m) % R + R) % R : rw;
      if (pu != pw) continue;
      const auto [ua, ub] = CopyInterval(u, k, ii);
      const auto [wa, wb] = CopyInterval(w, m, ii);
      if (IntervalsOverlap(ua, ub, wa, wb)) return true;
    }
  }
  return false;
}

// Greedy allocation. Static RFs: circular-arc colouring, live range
// must fit within II. Rotating: iteration-0 physical indices chosen so
// no two units' iteration copies collide.
Result<RegAlloc> AllocateRegisters(const Mapping& m, const Dfg& dfg,
                                   const Architecture& arch) {
  const Mrrg& mrrg = arch.mrrg();
  RegAlloc alloc;
  alloc.rotating = arch.params().rf_kind == RfKind::kRotating;
  alloc.ii = m.ii;
  const int R = arch.HoldCapacity();

  // Gather hold occupancies per (hold, value).
  std::map<std::pair<int, ValueId>, std::set<int>> stays;
  const auto edges = dfg.Edges();
  for (size_t e = 0; e < m.routes.size() && e < edges.size(); ++e) {
    for (const RouteStep& s : m.routes[e].steps) {
      if (mrrg.kind(s.node) == Mrrg::Kind::kHold) {
        stays[{s.node, edges[e].from}].insert(s.time);
      }
    }
  }
  // Segment into units.
  std::map<int, std::vector<int>> per_hold;  // hold -> unit indices
  for (const auto& [key, times] : stays) {
    int start = -2, prev = -2;
    auto flush = [&](int end) {
      if (start < 0) return;
      const int idx = static_cast<int>(alloc.units.size());
      alloc.units.push_back(LiveUnit{key.first, key.second, start, end, -1});
      per_hold[key.first].push_back(idx);
      for (int t = start; t <= end; ++t) alloc.at[{key.first, key.second, t}] = idx;
    };
    for (int t : times) {
      if (t != prev + 1) {
        flush(prev);
        start = t;
      }
      prev = t;
    }
    flush(prev);
  }

  // Warm-up depths: read sites of loop-carried edges need their
  // virtual copies' registers untouched from reset (see LiveUnit).
  for (size_t e = 0; e < m.routes.size() && e < edges.size(); ++e) {
    const DfgEdge& edge = edges[e];
    if (!edge.carries_value() || edge.distance <= 0) continue;
    if (edge.from < 0 || arch.IsFolded(dfg.op(edge.from).opcode)) continue;
    if (m.routes[e].steps.empty()) continue;
    const RouteStep& last = m.routes[e].steps.back();
    const int arrive =
        m.place[static_cast<size_t>(edge.to)].time + m.ii * edge.distance;
    auto it = alloc.at.find({last.node, edge.from, arrive});
    if (it != alloc.at.end()) {
      LiveUnit& u = alloc.units[static_cast<size_t>(it->second)];
      u.warmup = std::max(u.warmup, edge.distance);
    }
  }

  // Colour per hold (greedy, using the shared collide predicate).
  for (auto& [hold, unit_ids] : per_hold) {
    (void)hold;
    for (size_t i = 0; i < unit_ids.size(); ++i) {
      LiveUnit& u = alloc.units[static_cast<size_t>(unit_ids[i])];
      const int len = u.b - u.a + 1;
      if (!alloc.rotating && len > m.ii) {
        return Error::Unmappable(StrFormat(
            "value %s lives %d cycles in a static RF with II=%d: needs a "
            "rotating register file",
            dfg.op(u.value).name.c_str(), len, m.ii));
      }
      const int hold_cell = mrrg.cell(u.hold);
      int chosen = -1;
      for (int r = 0; r < R && chosen < 0; ++r) {
        // A faulted physical register is not a usable colour. (A
        // rotating RF with any fault already has hold capacity 0, so
        // no value is ever parked there in the first place.)
        if (hold_cell >= 0 && arch.RfEntryFaulted(hold_cell, r)) continue;
        bool ok = true;
        for (size_t j = 0; j < i && ok; ++j) {
          const LiveUnit& w = alloc.units[static_cast<size_t>(unit_ids[j])];
          if (w.reg < 0) continue;
          if (UnitsCollide(u, r, w, w.reg, m.ii, R, alloc.rotating)) ok = false;
        }
        if (ok) chosen = r;
      }
      if (chosen < 0) {
        return Error::Unmappable(StrFormat(
            "register allocation failed in the RF of cell %d (%d regs)",
            mrrg.cell(u.hold), R));
      }
      u.reg = chosen;
    }
  }
  return alloc;
}

// Defence in depth: brute-force re-check that no two live units ever
// share a physical register. Catches any gap in the analytic conflict
// enumeration above (cost is negligible: units are few).
Status VerifyAllocation(const RegAlloc& alloc, const Mrrg& mrrg, int R,
                        const Dfg& dfg) {
  for (size_t i = 0; i < alloc.units.size(); ++i) {
    for (size_t j = i + 1; j < alloc.units.size(); ++j) {
      const LiveUnit& u = alloc.units[i];
      const LiveUnit& w = alloc.units[j];
      if (u.hold != w.hold) continue;
      if (UnitsCollide(u, u.reg, w, w.reg, alloc.ii, R, alloc.rotating)) {
        return Error::Internal(StrFormat(
            "register allocation collision in cell %d between %s [%d,%d] "
            "(warmup %d) and %s [%d,%d] (warmup %d)",
            mrrg.cell(u.hold), dfg.op(u.value).name.c_str(), u.a, u.b,
            u.warmup, dfg.op(w.value).name.c_str(), w.a, w.b, w.warmup));
      }
    }
  }
  return Status::Ok();
}

int ReadableIndexOf(const Architecture& arch, int reader_cell, int source_cell) {
  const auto& r = arch.ReadableFrom(reader_cell);
  for (size_t i = 0; i < r.size(); ++i) {
    if (r[i] == source_cell) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

Result<ConfigImage> CompileToContexts(const Dfg& dfg, const Architecture& arch,
                                      const Mapping& m) {
  const Mrrg& mrrg = arch.mrrg();
  const int R = arch.HoldCapacity();
  const bool shared = arch.params().rf_kind == RfKind::kShared;

  auto alloc_or = AllocateRegisters(m, dfg, arch);
  if (!alloc_or.ok()) return alloc_or.error();
  const RegAlloc& alloc = *alloc_or;
  if (Status s = VerifyAllocation(alloc, mrrg, R, dfg); !s.ok()) return s.error();

  ConfigImage image;
  image.ii = m.ii;
  image.frames.assign(static_cast<size_t>(m.ii), ContextFrame{});
  for (ContextFrame& f : image.frames) {
    f.cells.assign(static_cast<size_t>(arch.num_cells()), CellContext{});
    for (CellContext& c : f.cells) {
      c.rt.assign(static_cast<size_t>(arch.params().route_channels), RtConfig{});
    }
  }
  auto slot_of = [&](int t) { return ((t % m.ii) + m.ii) % m.ii; };

  const auto edges = dfg.Edges();

  // Resolve an operand read: the route of edge `e` arriving at
  // `arrive`, read by the op on `reader_cell`.
  auto operand_from_route = [&](size_t e, int reader_cell,
                                int arrive) -> Result<OperandSel> {
    const Route& route = m.routes[e];
    if (route.steps.empty()) {
      return Error::Internal("edge without a route reached codegen");
    }
    const RouteStep& last = route.steps.back();
    const LiveUnit* unit = alloc.Find(last.node, edges[e].from, arrive);
    if (!unit) return Error::Internal("no live unit at the read site");
    OperandSel sel;
    sel.src = OperandSel::Src::kReg;
    const int src_cell = mrrg.cell(last.node);
    sel.read_idx = shared ? 0 : ReadableIndexOf(arch, reader_cell, src_cell);
    if (sel.read_idx < 0) return Error::Internal("read site not readable");
    sel.reg = alloc.ReadIndex(*unit, arrive, R);
    return sel;
  };

  // --- FU configs -----------------------------------------------------------
  for (OpId op = 0; op < dfg.num_ops(); ++op) {
    const Op& o = dfg.op(op);
    if (arch.IsFolded(o.opcode)) continue;
    const Placement& p = m.place[static_cast<size_t>(op)];
    if (p.cell < 0) {
      return Error::InvalidArgument(
          StrFormat("op %s is unplaced", o.name.c_str()));
    }
    FuConfig& fu =
        image.frames[static_cast<size_t>(slot_of(p.time))]
            .cells[static_cast<size_t>(p.cell)]
            .fu;
    if (fu.valid) {
      return Error::InvalidArgument(
          StrFormat("two ops share cell %d slot %d", p.cell, slot_of(p.time)));
    }
    fu.valid = true;
    fu.opcode = o.opcode;
    fu.stage = p.time / m.ii;
    if (IsIoOp(o.opcode)) fu.io_slot = o.slot;
    if (IsMemoryOp(o.opcode)) fu.io_slot = o.array;

    // Operands (main and dual-issue alternate sides). Each side has
    // its own immediate field.
    bool imm_used = false;
    std::int32_t* imm_field = &fu.imm;
    auto resolve_operand = [&](const Operand& operand, int edge_port,
                               OperandSel& sel) -> Status {
      const Op& producer = dfg.op(operand.producer);
      if (producer.opcode == Opcode::kConst) {
        // Immediates are iteration-invariant; a loop-carried read of a
        // constant only matches if its warm-up init equals the imm.
        if (operand.distance > 0 && operand.init != producer.imm) {
          return Error::Unmappable(StrFormat(
              "op %s: carried constant operand with init != imm cannot be "
              "folded",
              o.name.c_str()));
        }
        if (imm_used &&
            *imm_field != static_cast<std::int32_t>(producer.imm)) {
          return Error::Unmappable(StrFormat(
              "op %s needs two distinct immediates (one imm field per "
              "instruction word)",
              o.name.c_str()));
        }
        sel.src = OperandSel::Src::kImm;
        *imm_field = static_cast<std::int32_t>(producer.imm);
        imm_used = true;
        return Status::Ok();
      }
      if (producer.opcode == Opcode::kIterIdx && arch.IsFolded(producer.opcode)) {
        if (operand.distance > 0) {
          return Error::Unmappable(StrFormat(
              "op %s: carried read of the loop counter is not foldable",
              o.name.c_str()));
        }
        sel.src = OperandSel::Src::kIter;
        return Status::Ok();
      }
      // Locate this operand's edge.
      int edge_index = -1;
      for (size_t e = 0; e < edges.size(); ++e) {
        if (edges[e].to == op && edges[e].to_port == edge_port) {
          edge_index = static_cast<int>(e);
          break;
        }
      }
      if (edge_index < 0) return Error::Internal("operand edge missing");
      const int arrive = p.time + m.ii * operand.distance;
      auto sel_or = operand_from_route(static_cast<size_t>(edge_index), p.cell, arrive);
      if (!sel_or.ok()) return sel_or.error();
      sel = *sel_or;
      return Status::Ok();
    };
    for (size_t port = 0; port < o.operands.size(); ++port) {
      if (Status s = resolve_operand(o.operands[port], static_cast<int>(port),
                                     fu.operand[port]);
          !s.ok()) {
        return s.error();
      }
    }
    if (o.has_alt()) {
      fu.alt_valid = true;
      fu.alt_opcode = o.alt_opcode;
      imm_used = false;
      imm_field = &fu.alt_imm;
      for (size_t port = 0; port < o.alt_operands.size(); ++port) {
        if (Status s = resolve_operand(o.alt_operands[port],
                                       kAltPortBase + static_cast<int>(port),
                                       fu.alt_operand[port]);
            !s.ok()) {
          return s.error();
        }
      }
    }

    // Guarding predicate. For kPhi the guard selects an operand rather
    // than gating execution, so it rides in operand slot 2 and
    // pred_sense carries the phi's sense.
    if (o.pred != kNoOp) {
      int edge_index = -1;
      for (size_t e = 0; e < edges.size(); ++e) {
        if (edges[e].to == op && edges[e].to_port == kPredPort) {
          edge_index = static_cast<int>(e);
          break;
        }
      }
      if (edge_index < 0) return Error::Internal("predicate edge missing");
      Result<OperandSel> sel_or = [&]() -> Result<OperandSel> {
        const Op& producer = dfg.op(dfg.op(op).pred);
        if (producer.opcode == Opcode::kConst) {
          OperandSel s;
          s.src = OperandSel::Src::kImm;
          return s;
        }
        return operand_from_route(static_cast<size_t>(edge_index), p.cell, p.time);
      }();
      if (!sel_or.ok()) return sel_or.error();
      if (o.opcode == Opcode::kPhi) {
        fu.operand[2] = *sel_or;
      } else {
        fu.pred = *sel_or;
      }
      fu.pred_sense = o.pred_when_true;
    }

    // Destination register (only when somebody consumes the value).
    const int latch = p.time + 1;
    const LiveUnit* unit = alloc.Find(mrrg.HoldNode(p.cell), op, latch);
    if (unit) {
      fu.write_enable = true;
      fu.dest_reg = alloc.WriteIndex(*unit, latch, R);
    }
  }

  // --- RT configs -------------------------------------------------------------
  // Distinct transfers: (cell, value, read-time). A transfer reads the
  // previous hold in the route at time t and latches into its own hold
  // at t+1.
  std::map<std::tuple<int, ValueId, int>, int> transfer_src_hold;
  for (size_t e = 0; e < m.routes.size(); ++e) {
    const auto& steps = m.routes[e].steps;
    for (size_t i = 0; i + 1 < steps.size() + 1 && i < steps.size(); ++i) {
      if (mrrg.kind(steps[i].node) != Mrrg::Kind::kRt) continue;
      if (i == 0) return Error::Internal("route begins at a routing channel");
      transfer_src_hold[{mrrg.cell(steps[i].node), edges[e].from,
                         steps[i].time}] = steps[i - 1].node;
    }
  }
  // --- carried-edge initial values (RF preload section) ----------------------
  // A distance-d operand reads, during the first d iterations, a value
  // no producer instance has written. The configuration loader seeds
  // the registers those "virtual" copies occupy with the operand's
  // init value.
  {
    // required[(bank, physical)] = init value. Two carried reads that
    // land on the same physical register but need DIFFERENT warm-up
    // values are unrealizable on shared-register hardware (one
    // register cannot hold two values); reject with a clear message.
    std::map<std::pair<int, int>, std::int64_t> required;
    const bool rotating = arch.params().rf_kind == RfKind::kRotating;
    for (size_t e = 0; e < edges.size(); ++e) {
      const DfgEdge& edge = edges[e];
      if (!edge.carries_value() || edge.distance <= 0) continue;
      if (arch.IsFolded(dfg.op(edge.from).opcode)) continue;
      const Op& consumer = dfg.op(edge.to);
      std::int64_t init = 0;
      if (edge.to_port >= 0) {
        init = consumer.operands[static_cast<size_t>(edge.to_port)].init;
      } else if (edge.to_port == kAltPortBase ||
                 edge.to_port > kAltPortBase) {
        init = consumer.alt_operands[static_cast<size_t>(edge.to_port - kAltPortBase)].init;
      }
      const Route& route = m.routes[e];
      if (route.steps.empty()) continue;
      const RouteStep& last = route.steps.back();
      const int arrive = m.place[static_cast<size_t>(edge.to)].time +
                         m.ii * edge.distance;
      const LiveUnit* unit = alloc.Find(last.node, edge.from, arrive);
      if (!unit) return Error::Internal("carried edge read site unallocated");
      const int bank = shared ? 0 : mrrg.cell(last.node);
      for (int i = 0; i < edge.distance; ++i) {
        const int physical =
            rotating ? (((unit->reg + i - edge.distance) % R) + R) % R
                     : unit->reg;
        auto [it, inserted] = required.insert({{bank, physical}, init});
        if (!inserted && it->second != init) {
          return Error::Unmappable(StrFormat(
              "conflicting warm-up values for %s (%lld vs %lld) share one "
              "register: reads of the same carried value must agree on "
              "their init",
              dfg.op(edge.from).name.c_str(),
              static_cast<long long>(it->second),
              static_cast<long long>(init)));
        }
      }
    }
    for (const auto& [key, init] : required) {
      if (init != 0) {  // registers reset to zero anyway
        image.preloads.push_back(RfPreload{key.first, key.second, init});
      }
    }
  }

  for (const auto& [key, src_hold] : transfer_src_hold) {
    const auto& [cell, value, t] = key;
    CellContext& cc =
        image.frames[static_cast<size_t>(slot_of(t))].cells[static_cast<size_t>(cell)];
    int channel = -1;
    for (size_t k = 0; k < cc.rt.size(); ++k) {
      if (!cc.rt[k].valid) {
        channel = static_cast<int>(k);
        break;
      }
    }
    if (channel < 0) {
      return Error::InvalidArgument(
          StrFormat("route channels of cell %d oversubscribed in slot %d", cell,
                    slot_of(t)));
    }
    RtConfig& rt = cc.rt[static_cast<size_t>(channel)];
    rt.valid = true;
    rt.stage = t / m.ii;
    const LiveUnit* src = alloc.Find(src_hold, value, t);
    const LiveUnit* dst = alloc.Find(mrrg.HoldNode(cell), value, t + 1);
    if (!src || !dst) return Error::Internal("transfer endpoints unallocated");
    rt.read_idx = shared ? 0 : ReadableIndexOf(arch, cell, mrrg.cell(src_hold));
    if (rt.read_idx < 0) {
      return Error::Internal("transfer source not linked to this cell");
    }
    rt.src_reg = alloc.ReadIndex(*src, t, R);
    rt.dest_reg = alloc.WriteIndex(*dst, t + 1, R);
  }

  return image;
}

}  // namespace cgra
