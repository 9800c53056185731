#include <cstddef>
#include "ir/dfg.hpp"

#include <cassert>

#include "graph/algos.hpp"
#include "support/bytes.hpp"
#include "support/str.hpp"

namespace cgra {

OpId Dfg::AddOp(Op op) {
  assert(static_cast<int>(op.operands.size()) == OpArity(op.opcode));
  const OpId id = static_cast<OpId>(ops_.size());
  if (op.name.empty()) {
    op.name = StrFormat("%s%d", std::string(OpName(op.opcode)).c_str(), id);
  }
  ops_.push_back(std::move(op));
  return id;
}

OpId Dfg::AddConst(std::int64_t value, std::string name) {
  Op op;
  op.opcode = Opcode::kConst;
  op.imm = value;
  op.name = std::move(name);
  return AddOp(std::move(op));
}

OpId Dfg::AddInput(int slot, std::string name) {
  Op op;
  op.opcode = Opcode::kInput;
  op.slot = slot;
  op.name = std::move(name);
  return AddOp(std::move(op));
}

OpId Dfg::AddIterIdx(std::string name) {
  Op op;
  op.opcode = Opcode::kIterIdx;
  op.name = std::move(name);
  return AddOp(std::move(op));
}

OpId Dfg::AddOutput(OpId value, int slot, std::string name) {
  Op op;
  op.opcode = Opcode::kOutput;
  op.slot = slot;
  op.operands = {Operand{value, 0, 0}};
  op.name = std::move(name);
  return AddOp(std::move(op));
}

OpId Dfg::AddUnary(Opcode opcode, OpId a, std::string name) {
  assert(OpArity(opcode) == 1);
  Op op;
  op.opcode = opcode;
  op.operands = {Operand{a, 0, 0}};
  op.name = std::move(name);
  return AddOp(std::move(op));
}

OpId Dfg::AddBinary(Opcode opcode, OpId a, OpId b, std::string name) {
  return AddBinary(opcode, Operand{a, 0, 0}, Operand{b, 0, 0}, std::move(name));
}

OpId Dfg::AddBinary(Opcode opcode, Operand a, Operand b, std::string name) {
  assert(OpArity(opcode) == 2);
  Op op;
  op.opcode = opcode;
  op.operands = {a, b};
  op.name = std::move(name);
  return AddOp(std::move(op));
}

OpId Dfg::AddSelect(OpId cond, OpId if_true, OpId if_false, std::string name) {
  Op op;
  op.opcode = Opcode::kSelect;
  op.operands = {Operand{cond, 0, 0}, Operand{if_true, 0, 0},
                 Operand{if_false, 0, 0}};
  op.name = std::move(name);
  return AddOp(std::move(op));
}

OpId Dfg::AddLoad(int array, OpId addr, std::string name) {
  Op op;
  op.opcode = Opcode::kLoad;
  op.array = array;
  op.operands = {Operand{addr, 0, 0}};
  op.name = std::move(name);
  return AddOp(std::move(op));
}

OpId Dfg::AddStore(int array, OpId addr, OpId value, std::string name) {
  Op op;
  op.opcode = Opcode::kStore;
  op.array = array;
  op.operands = {Operand{addr, 0, 0}, Operand{value, 0, 0}};
  op.name = std::move(name);
  return AddOp(std::move(op));
}

std::vector<DfgEdge> Dfg::Edges() const {
  std::vector<DfgEdge> edges;
  for (OpId id = 0; id < num_ops(); ++id) {
    const Op& op = ops_[static_cast<size_t>(id)];
    for (size_t port = 0; port < op.operands.size(); ++port) {
      const Operand& o = op.operands[port];
      edges.push_back(DfgEdge{o.producer, id, static_cast<int>(port), o.distance});
    }
    if (op.pred != kNoOp) {
      // Predicate travels like a same-iteration data operand.
      edges.push_back(DfgEdge{op.pred, id, kPredPort, 0});
    }
    for (const Operand& o : op.order_deps) {
      edges.push_back(DfgEdge{o.producer, id, kOrderPort, o.distance});
    }
    for (size_t port = 0; port < op.alt_operands.size(); ++port) {
      const Operand& o = op.alt_operands[port];
      edges.push_back(
          DfgEdge{o.producer, id, kAltPortBase + static_cast<int>(port), o.distance});
    }
  }
  return edges;
}

Digraph Dfg::ToDigraph(bool include_carried) const {
  Digraph g(num_ops());
  for (const DfgEdge& e : Edges()) {
    if (!include_carried && e.distance > 0) continue;
    g.AddEdge(e.from, e.to);
  }
  return g;
}

std::vector<int> Dfg::FanOut() const {
  std::vector<int> fan(static_cast<size_t>(num_ops()), 0);
  for (const DfgEdge& e : Edges()) ++fan[static_cast<size_t>(e.from)];
  return fan;
}

Status Dfg::Verify() const {
  for (OpId id = 0; id < num_ops(); ++id) {
    const Op& op = ops_[static_cast<size_t>(id)];
    if (static_cast<int>(op.operands.size()) != OpArity(op.opcode)) {
      return Error::InvalidArgument(
          StrFormat("op %d (%s): expected %d operands, got %zu", id,
                    op.name.c_str(), OpArity(op.opcode), op.operands.size()));
    }
    auto check_operands = [&](const std::vector<Operand>& operands) -> Status {
      for (const Operand& o : operands) {
        if (o.producer < 0 || o.producer >= num_ops()) {
          return Error::InvalidArgument(
              StrFormat("op %d (%s): operand producer %d out of range", id,
                        op.name.c_str(), o.producer));
        }
        if (o.distance < 0) {
          return Error::InvalidArgument(
              StrFormat("op %d (%s): negative dependence distance", id,
                        op.name.c_str()));
        }
      }
      return Status::Ok();
    };
    if (Status s = check_operands(op.operands); !s.ok()) return s;
    if (Status s = check_operands(op.order_deps); !s.ok()) return s;
    if (Status s = check_operands(op.alt_operands); !s.ok()) return s;
    if (op.has_alt()) {
      if (op.pred == kNoOp) {
        return Error::InvalidArgument(StrFormat(
            "op %d (%s): dual-issue alternate requires a guard", id,
            op.name.c_str()));
      }
      if (static_cast<int>(op.alt_operands.size()) != OpArity(op.alt_opcode) ||
          IsMemoryOp(op.alt_opcode) || IsIoOp(op.alt_opcode) ||
          OpArity(op.alt_opcode) == 0 || op.alt_opcode == Opcode::kPhi ||
          op.alt_opcode == Opcode::kRoute) {
        return Error::InvalidArgument(StrFormat(
            "op %d (%s): alternate must be a pure ALU op with matching "
            "arity",
            id, op.name.c_str()));
      }
    }
    if (op.pred != kNoOp && (op.pred < 0 || op.pred >= num_ops())) {
      return Error::InvalidArgument(
          StrFormat("op %d (%s): predicate producer out of range", id,
                    op.name.c_str()));
    }
    if (IsIoOp(op.opcode) && op.slot < 0) {
      return Error::InvalidArgument(
          StrFormat("op %d (%s): I/O op without a stream slot", id,
                    op.name.c_str()));
    }
    if (IsMemoryOp(op.opcode) && op.array < 0) {
      return Error::InvalidArgument(
          StrFormat("op %d (%s): memory op without an array", id,
                    op.name.c_str()));
    }
  }
  if (!TopologicalOrder(ToDigraph(/*include_carried=*/false)).has_value()) {
    return Error::InvalidArgument(
        "same-iteration dependence edges form a cycle");
  }
  return Status::Ok();
}

void Dfg::AppendCanonicalBytes(ByteWriter& w) const {
  const auto put_operands = [&w](const std::vector<Operand>& ops) {
    w.U32(static_cast<std::uint32_t>(ops.size()));
    for (const Operand& o : ops) {
      w.I32(o.producer);
      w.I32(o.distance);
      w.I64(o.init);
    }
  };
  w.Str("DFG");
  w.U32(1);  // encoding version: bump when a field is added/removed
  w.I32(num_ops());
  for (const Op& op : ops_) {
    w.U8(static_cast<std::uint8_t>(op.opcode));
    put_operands(op.operands);
    w.I64(op.imm);
    w.I32(op.slot);
    w.I32(op.array);
    w.I32(op.pred);
    w.Bool(op.pred_when_true);
    put_operands(op.order_deps);
    w.U8(static_cast<std::uint8_t>(op.alt_opcode));
    put_operands(op.alt_operands);
  }
}

std::string Dfg::Digest() const {
  ByteWriter w;
  AppendCanonicalBytes(w);
  return Hex16(Fnv1a64(w.bytes()));
}

std::string Dfg::ToDot(const std::string& graph_name) const {
  std::string out = "digraph " + graph_name + " {\n";
  for (OpId id = 0; id < num_ops(); ++id) {
    const Op& op = ops_[static_cast<size_t>(id)];
    out += StrFormat("  n%d [label=\"%s\\n%s\"];\n", id, op.name.c_str(),
                     std::string(OpName(op.opcode)).c_str());
  }
  for (const DfgEdge& e : Edges()) {
    if (e.distance > 0) {
      out += StrFormat("  n%d -> n%d [label=\"d=%d\", style=dashed];\n", e.from,
                       e.to, e.distance);
    } else if (e.to_port < 0) {
      out += StrFormat("  n%d -> n%d [style=dotted];\n", e.from, e.to);
    } else {
      out += StrFormat("  n%d -> n%d;\n", e.from, e.to);
    }
  }
  out += "}\n";
  return out;
}

}  // namespace cgra
