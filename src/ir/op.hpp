// Operation set of the data-flow IR.
//
// The survey's compilation model (Fig. 3): the front-end/middle-end
// produce a graph IR whose nodes are operations and whose edges are
// data dependencies; the back-end (this library) maps it. We model a
// conventional integer ISA-neutral op set: word-level arithmetic and
// logic (this is exactly the "coarse grain" in CGRA), memory accesses,
// stream I/O, predication support, and the `kRoute` pass-through that
// mappers insert to carry values across cells/cycles (EPIMap-style
// routing nodes).
#pragma once

#include <cstdint>
#include <string_view>

namespace cgra {

enum class Opcode : std::uint8_t {
  // Nullary producers.
  kConst,   ///< immediate value (`imm`)
  kInput,   ///< per-iteration stream input (`slot` selects the stream)
  kIterIdx, ///< current loop iteration index (hardware-loop counter view)
  // Sinks.
  kOutput,  ///< per-iteration stream output (`slot` selects the stream)
  // Unary.
  kNeg,
  kNot,
  kAbs,
  kRoute,   ///< identity; occupies a cell slot purely to move data
  // Binary ALU.
  kAdd,
  kSub,
  kMul,
  kDiv,     ///< guarded: x/0 == 0 (keeps simulation total)
  kAnd,
  kOr,
  kXor,
  kShl,
  kShr,
  kMin,
  kMax,
  kCmpEq,
  kCmpNe,
  kCmpLt,
  kCmpLe,
  // Ternary.
  kSelect,  ///< select(c, a, b) == c != 0 ? a : b  (predication join)
  // Memory (`array` selects the memory array; address is operand 0).
  kLoad,
  kStore,   ///< store(addr, value); produces the stored value
  // Control-flow support.
  kPhi,     ///< join of two reaching definitions (lowered before mapping)
  kVarIn,   ///< CDFG live-in: reads variable `slot` from the var file
  kVarOut,  ///< CDFG live-out: writes operand 0 to variable `slot`
};

/// Number of data operands the opcode consumes.
int OpArity(Opcode op);

/// Mnemonic, e.g. "add".
std::string_view OpName(Opcode op);

/// True for kLoad/kStore (these must bind to memory-capable cells).
bool IsMemoryOp(Opcode op);

/// True for kInput/kOutput (these bind to array-boundary I/O cells when
/// the architecture distinguishes them).
bool IsIoOp(Opcode op);

/// Scalar semantics; `a`,`b`,`c` are operand values (unused ones
/// ignored). Memory and I/O opcodes are handled by the interpreter,
/// not here.
std::int64_t EvalAlu(Opcode op, std::int64_t a, std::int64_t b, std::int64_t c);

}  // namespace cgra
