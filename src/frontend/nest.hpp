// Polyhedral-lite loop-nest IR: the workload frontend.
//
// The hand-written kernel library (src/ir/kernels.cpp) caps scenario
// diversity at a dozen shapes; this IR is the automated supply. A
// NestProgram is a sequence of *bands* — perfect nests of bounded,
// step-1 loops — whose statements store affine-addressed expressions
// into arrays, in the style of AutoSA's space-time transformed loop
// nests (PAPERS.md). The IR is deliberately small: every construct
// must survive three independent executions that the differential
// fuzzer (frontend/fuzz.hpp) compares bit-exactly —
//   1. EvaluateProgram, the direct nest-level evaluator (this file),
//   2. RunReference over the lowered loop-body DFG (frontend/lower.hpp
//      -> ir/interp), and
//   3. the mapped-and-simulated configuration (sim/harness.hpp).
//
// Semantics:
//   * Loops iterate 0 .. trip-1 with step 1. A band executes its
//     statements, in order, at every point of its loop box, row-major
//     over the *current* (transformed) loop order. Bands execute in
//     sequence; arrays are the only state crossing bands.
//   * A non-reduction statement writes `A[addr] = rhs` with an affine
//     address that is injective over ALL the band's variables, so the
//     store order within the band cannot matter.
//   * A reduction statement computes `A[addr] = fold(op, init, rhs)`
//     over the loops absent from `addr` (its *reduction loops*). The
//     fold operator is restricted to commutative-associative opcodes
//     (wraparound int64), so any loop permutation a transform
//     produces folds to the same value.
//   * Statement right-hand sides read loop indices, constants, and
//     affine-addressed loads from input arrays or arrays written by
//     earlier statements.
//
// Transforms (frontend/transform.hpp) reorder execution; they never
// touch statement bodies. Statements are written against *original*
// loop variables (global ids, extents in `var_extent`), and each band
// carries a recovery map from its current loops back to those
// variables — the standard polyhedral split of domain vs. schedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/op.hpp"
#include "support/status.hpp"

namespace cgra {

class ByteWriter;  // support/bytes.hpp

namespace frontend {

/// Affine form c0 + sum coeff[i] * x_i. The index space of `coeff`
/// depends on context: statement affines are over original variable
/// ids, band recovery affines are over loop ids.
struct Affine {
  std::int64_t c0 = 0;
  std::vector<std::int64_t> coeff;  ///< dense, trailing zeros implied

  std::int64_t Coeff(int i) const {
    return i >= 0 && i < static_cast<int>(coeff.size())
               ? coeff[static_cast<size_t>(i)]
               : 0;
  }
  void SetCoeff(int i, std::int64_t c);
  /// Indices with a nonzero coefficient.
  std::vector<int> Support() const;
  bool operator==(const Affine&) const = default;
};

/// Expression-tree node kinds for statement right-hand sides.
enum class ExprKind : std::uint8_t {
  kConst,   ///< imm
  kIndex,   ///< value of original loop variable `var`
  kLoad,    ///< array[addr], addr affine over original variables
  kUnary,   ///< op(a)
  kBinary,  ///< op(a, b)
};

/// One node of a statement's expression pool. Children (`a`, `b`)
/// index earlier nodes of the same pool, so the pool is a DAG in
/// construction order and trivially acyclic.
struct ExprNode {
  ExprKind kind = ExprKind::kConst;
  Opcode op = Opcode::kAdd;  ///< kUnary / kBinary opcode
  std::int64_t imm = 0;      ///< kConst payload
  int var = -1;              ///< kIndex: original variable id
  int array = -1;            ///< kLoad: array id
  Affine addr;               ///< kLoad: address over original variables
  int a = -1;                ///< first child
  int b = -1;                ///< second child (kBinary)
};

/// One statement: `store_array[store_addr] = rhs` or, when
/// `is_reduction`, `store_array[store_addr] = fold(reduction_op,
/// reduction_init, rhs over the loops absent from store_addr)`.
struct Statement {
  std::vector<ExprNode> nodes;
  int root = -1;
  int store_array = -1;
  Affine store_addr;  ///< over original variables; injective on support
  bool is_reduction = false;
  Opcode reduction_op = Opcode::kAdd;
  std::int64_t reduction_init = 0;
};

/// One loop of a band. `id` is stable under transforms and is the
/// coefficient index recovery affines use; position in Band::loops is
/// the (mutable) schedule order, outermost first.
struct Loop {
  int id = -1;
  std::int64_t trip = 1;
};

/// A perfect nest of loops plus the statements executed at each point.
struct Band {
  std::vector<Loop> loops;  ///< current order, outermost first
  /// recover[v] = value of original variable v as an affine over loop
  /// ids (c0 always 0). Empty coeff support = variable foreign to this
  /// band. INVARIANT: each loop id feeds exactly one variable.
  std::vector<Affine> recover;
  std::vector<Statement> stmts;
  /// Innermost unroll factor applied at lowering through cf/unroll's
  /// UnrollKernel (1 = none).
  int unroll = 1;

  /// Variables this band recovers (ids with nonzero recover support).
  std::vector<int> Vars() const;
  std::int64_t DomainSize() const;
};

/// Array declaration. Input arrays are read-only workload data; every
/// non-input array is written by exactly one statement (its owner).
struct ArrayDecl {
  std::string name;
  int size = 0;
  bool is_input = false;
  std::vector<std::int64_t> init;  ///< initial contents, `size` long
};

/// Reduction operators the IR admits: commutative + associative on
/// wraparound int64, so transformed loop orders fold identically.
bool IsReductionOpcode(Opcode op);

/// Largest band domain (product of trips) Verify accepts; keeps
/// lowered kernels simulable in fuzzing time budgets.
inline constexpr std::int64_t kMaxDomainSize = 1 << 16;

struct NestProgram {
  std::vector<ArrayDecl> arrays;
  std::vector<Band> bands;
  int num_vars = 0;                      ///< original variable count
  std::vector<std::int64_t> var_extent;  ///< original trip per variable

  /// Structural + legality checks (structured kInvalidArgument):
  /// positive trips (a zero-trip loop is rejected, not asserted),
  /// bounded domains, well-formed expression pools, loads restricted
  /// to input arrays / earlier-band arrays / exact-address forwarding
  /// within the band, injective store addresses, reduction operators
  /// commutative-associative, and — so lowering's carried accumulator
  /// is always contiguous — every reduction's address loops scheduled
  /// outside its reduction loops (the S-before-R prefix condition).
  Status Verify() const;

  /// Canonical byte encoding of every semantic field (names excluded),
  /// versioned; substrate of Digest().
  void AppendCanonicalBytes(ByteWriter& w) const;

  /// Stable 16-hex digest (generator-determinism tests, repro
  /// manifests, corpus dedup).
  std::string Digest() const;

  /// Pseudo-C rendering for logs and repro manifests.
  std::string ToString() const;
};

/// Result of direct nest-level evaluation.
struct NestEvalResult {
  /// Final contents of every array.
  std::vector<std::vector<std::int64_t>> arrays;
  /// Array state after each band (after_band[b] = state once bands
  /// 0..b have run); the per-band oracle the fuzzer compares lowered
  /// kernels against.
  std::vector<std::vector<std::vector<std::int64_t>>> after_band;
};

/// The nest-level oracle: executes `program` directly, without any
/// lowering. Verifies first; evaluation itself cannot fault after a
/// successful Verify (addresses are range-checked statically), but
/// out-of-range accesses are still guarded and reported as kInternal.
Result<NestEvalResult> EvaluateProgram(const NestProgram& program);

}  // namespace frontend
}  // namespace cgra
