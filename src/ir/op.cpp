#include "ir/op.hpp"

#include <cassert>
#include <cstdlib>

namespace cgra {

int OpArity(Opcode op) {
  switch (op) {
    case Opcode::kConst:
    case Opcode::kInput:
    case Opcode::kIterIdx:
    case Opcode::kVarIn:
      return 0;
    case Opcode::kOutput:
    case Opcode::kVarOut:
    case Opcode::kNeg:
    case Opcode::kNot:
    case Opcode::kAbs:
    case Opcode::kRoute:
    case Opcode::kLoad:
      return 1;
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kDiv:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kShl:
    case Opcode::kShr:
    case Opcode::kMin:
    case Opcode::kMax:
    case Opcode::kCmpEq:
    case Opcode::kCmpNe:
    case Opcode::kCmpLt:
    case Opcode::kCmpLe:
    case Opcode::kStore:
    case Opcode::kPhi:
      return 2;
    case Opcode::kSelect:
      return 3;
  }
  return 0;
}

std::string_view OpName(Opcode op) {
  switch (op) {
    case Opcode::kConst: return "const";
    case Opcode::kInput: return "input";
    case Opcode::kIterIdx: return "iter";
    case Opcode::kOutput: return "output";
    case Opcode::kNeg: return "neg";
    case Opcode::kNot: return "not";
    case Opcode::kAbs: return "abs";
    case Opcode::kRoute: return "route";
    case Opcode::kAdd: return "add";
    case Opcode::kSub: return "sub";
    case Opcode::kMul: return "mul";
    case Opcode::kDiv: return "div";
    case Opcode::kAnd: return "and";
    case Opcode::kOr: return "or";
    case Opcode::kXor: return "xor";
    case Opcode::kShl: return "shl";
    case Opcode::kShr: return "shr";
    case Opcode::kMin: return "min";
    case Opcode::kMax: return "max";
    case Opcode::kCmpEq: return "cmpeq";
    case Opcode::kCmpNe: return "cmpne";
    case Opcode::kCmpLt: return "cmplt";
    case Opcode::kCmpLe: return "cmple";
    case Opcode::kSelect: return "select";
    case Opcode::kLoad: return "load";
    case Opcode::kStore: return "store";
    case Opcode::kPhi: return "phi";
    case Opcode::kVarIn: return "varin";
    case Opcode::kVarOut: return "varout";
  }
  return "?";
}

bool IsMemoryOp(Opcode op) {
  return op == Opcode::kLoad || op == Opcode::kStore;
}

bool IsIoOp(Opcode op) {
  return op == Opcode::kInput || op == Opcode::kOutput ||
         op == Opcode::kVarIn || op == Opcode::kVarOut;
}

std::int64_t EvalAlu(Opcode op, std::int64_t a, std::int64_t b, std::int64_t c) {
  switch (op) {
    case Opcode::kNeg: return -a;
    case Opcode::kNot: return ~a;
    case Opcode::kAbs: return a < 0 ? -a : a;
    case Opcode::kRoute: return a;
    case Opcode::kAdd: return a + b;
    case Opcode::kSub: return a - b;
    case Opcode::kMul: return a * b;
    case Opcode::kDiv: return b == 0 ? 0 : a / b;
    case Opcode::kAnd: return a & b;
    case Opcode::kOr: return a | b;
    case Opcode::kXor: return a ^ b;
    case Opcode::kShl: return a << (b & 63);
    case Opcode::kShr: return static_cast<std::int64_t>(
        static_cast<std::uint64_t>(a) >> (b & 63));
    case Opcode::kMin: return a < b ? a : b;
    case Opcode::kMax: return a > b ? a : b;
    case Opcode::kCmpEq: return a == b ? 1 : 0;
    case Opcode::kCmpNe: return a != b ? 1 : 0;
    case Opcode::kCmpLt: return a < b ? 1 : 0;
    case Opcode::kCmpLe: return a <= b ? 1 : 0;
    case Opcode::kSelect: return a != 0 ? b : c;
    default:
      assert(false && "not an ALU opcode");
      return 0;
  }
}

}  // namespace cgra
