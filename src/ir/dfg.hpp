// Data Flow Graph: nodes are operations, edges are data dependencies
// (§II-B "DFG, CDFG"). Loop kernels are expressed as ONE iteration of
// the loop body; loop-carried dependencies are operands with
// `distance` >= 1, read from `distance` iterations earlier — exactly
// the dependence-distance view modulo scheduling needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "ir/op.hpp"
#include "support/status.hpp"

namespace cgra {

class ByteWriter;  // support/bytes.hpp

using OpId = std::int32_t;
inline constexpr OpId kNoOp = -1;

/// A data operand: which op produces it and across how many loop
/// iterations it travels (0 = same iteration). `init` is the value read
/// while iter < distance (e.g. an accumulator's initial 0).
struct Operand {
  OpId producer = kNoOp;
  int distance = 0;
  std::int64_t init = 0;
};

/// One IR operation.
struct Op {
  Opcode opcode = Opcode::kConst;
  std::string name;                ///< diagnostic label
  std::vector<Operand> operands;   ///< size == OpArity(opcode)
  std::int64_t imm = 0;            ///< kConst payload
  int slot = -1;                   ///< kInput/kOutput stream index
  int array = -1;                  ///< kLoad/kStore memory array index
  OpId pred = kNoOp;               ///< optional guarding predicate producer
  bool pred_when_true = true;      ///< executes when pred!=0 (or ==0 if false)
  /// Ordering-only dependencies (no value flows): used for memory
  /// hazards, e.g. a load that must observe last iteration's store.
  /// Schedulers honour them like data edges; routing is not required.
  std::vector<Operand> order_deps;
  /// Dual-issue single execution (§III-B1, [55][58][59]): an alternate
  /// ALU operation fused into the same issue slot, executing when the
  /// guard does NOT hold (requires pred != kNoOp). The op's value is
  /// whichever side executed. Restricted to non-side-effecting ALU
  /// opcodes.
  Opcode alt_opcode = Opcode::kAdd;
  std::vector<Operand> alt_operands;  ///< empty = no alternate
  bool has_alt() const { return !alt_operands.empty(); }
};

/// A flattened dependence edge (producer -> consumer port).
/// to_port >= 0: data operand; kPredPort: guarding predicate (data);
/// kOrderPort: ordering-only edge (no routed value); ports >=
/// kAltPortBase: operands of the fused alternate operation (data).
inline constexpr int kPredPort = -1;
inline constexpr int kOrderPort = -2;
inline constexpr int kAltPortBase = 100;
struct DfgEdge {
  OpId from = kNoOp;
  OpId to = kNoOp;
  int to_port = 0;
  int distance = 0;

  bool carries_value() const { return to_port != kOrderPort; }
};

class Dfg {
 public:
  // ---- construction -----------------------------------------------------
  OpId AddConst(std::int64_t value, std::string name = {});
  OpId AddInput(int slot, std::string name = {});
  OpId AddIterIdx(std::string name = {});
  OpId AddOutput(OpId value, int slot, std::string name = {});
  OpId AddUnary(Opcode op, OpId a, std::string name = {});
  OpId AddBinary(Opcode op, OpId a, OpId b, std::string name = {});
  OpId AddBinary(Opcode op, Operand a, Operand b, std::string name = {});
  OpId AddSelect(OpId cond, OpId if_true, OpId if_false, std::string name = {});
  OpId AddLoad(int array, OpId addr, std::string name = {});
  OpId AddStore(int array, OpId addr, OpId value, std::string name = {});
  /// Fully general insertion.
  OpId AddOp(Op op);

  // ---- access -----------------------------------------------------------
  int num_ops() const { return static_cast<int>(ops_.size()); }
  const Op& op(OpId id) const { return ops_[static_cast<size_t>(id)]; }
  Op& mutable_op(OpId id) { return ops_[static_cast<size_t>(id)]; }
  const std::vector<Op>& ops() const { return ops_; }

  /// All dependence edges, predicate edges included (predicates are
  /// data the consumer must receive).
  std::vector<DfgEdge> Edges() const;

  /// Digraph view over op ids. When `include_carried` is false,
  /// loop-carried (distance >= 1) edges are dropped, which makes the
  /// graph acyclic for a well-formed loop body.
  Digraph ToDigraph(bool include_carried = true) const;

  /// Number of consumers of each op's value (same-iteration + carried).
  std::vector<int> FanOut() const;

  // ---- validation / export ------------------------------------------------
  /// Structural checks: arities, operand validity, acyclicity of the
  /// same-iteration subgraph, slot/array presence on I/O and memory ops,
  /// non-negative distances.
  Status Verify() const;

  /// Canonical byte encoding of every semantic field of every op —
  /// opcode, operands (producer/distance/init), imm, slot, array,
  /// predication, ordering deps, fused alternates — in op order.
  /// Diagnostic names are excluded: relabelling an op must not change
  /// the digest, while any mutation that could alter a mapping does.
  /// Layout carries its own version tag.
  void AppendCanonicalBytes(ByteWriter& w) const;

  /// Stable 16-hex-digit digest of the canonical encoding; the kernel
  /// component of the mapping-cache key (src/cache).
  std::string Digest() const;

  /// Graphviz dot rendering (ops labelled `name:opcode`).
  std::string ToDot(const std::string& graph_name = "dfg") const;

 private:
  std::vector<Op> ops_;
};

}  // namespace cgra
