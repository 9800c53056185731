// Tests for the IR: DFG structure, reference interpreter, CDFG walker,
// kernel library invariants.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "ir/cdfg.hpp"
#include "ir/dfg.hpp"
#include "ir/interp.hpp"
#include "ir/kernels.hpp"
#include "support/rng.hpp"

namespace cgra {
namespace {

TEST(Op, ArityMatchesSemantics) {
  EXPECT_EQ(OpArity(Opcode::kConst), 0);
  EXPECT_EQ(OpArity(Opcode::kAdd), 2);
  EXPECT_EQ(OpArity(Opcode::kSelect), 3);
  EXPECT_EQ(OpArity(Opcode::kStore), 2);
  EXPECT_EQ(OpArity(Opcode::kVarIn), 0);
  EXPECT_EQ(OpArity(Opcode::kVarOut), 1);
}

TEST(Op, EvalAluBasics) {
  EXPECT_EQ(EvalAlu(Opcode::kAdd, 2, 3, 0), 5);
  EXPECT_EQ(EvalAlu(Opcode::kSub, 2, 3, 0), -1);
  EXPECT_EQ(EvalAlu(Opcode::kMul, -4, 3, 0), -12);
  EXPECT_EQ(EvalAlu(Opcode::kDiv, 7, 2, 0), 3);
  EXPECT_EQ(EvalAlu(Opcode::kDiv, 7, 0, 0), 0) << "guarded division";
  EXPECT_EQ(EvalAlu(Opcode::kMin, 2, -5, 0), -5);
  EXPECT_EQ(EvalAlu(Opcode::kCmpLt, 1, 2, 0), 1);
  EXPECT_EQ(EvalAlu(Opcode::kSelect, 1, 10, 20), 10);
  EXPECT_EQ(EvalAlu(Opcode::kSelect, 0, 10, 20), 20);
  EXPECT_EQ(EvalAlu(Opcode::kAbs, -9, 0, 0), 9);
  EXPECT_EQ(EvalAlu(Opcode::kShr, -1, 32, 0),
            static_cast<std::int64_t>(0xFFFFFFFFull));
}

// The ALU is 64-bit two's complement: results wrap instead of being
// undefined, and INT64_MIN / -1 wraps to INT64_MIN instead of trapping.
TEST(Alu, WrapsLikeTwosComplement) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(EvalAlu(Opcode::kAdd, kMax, 1, 0), kMin);
  EXPECT_EQ(EvalAlu(Opcode::kSub, kMin, 1, 0), kMax);
  EXPECT_EQ(EvalAlu(Opcode::kMul, kMax, 2, 0), -2);
  // Cdfg.ClampIteBothFormsAgree's product: 9223372036854775778 * 3.
  EXPECT_EQ(EvalAlu(Opcode::kMul, 9223372036854775778, 3, 0),
            9223372036854775718);
  EXPECT_EQ(EvalAlu(Opcode::kNeg, kMin, 0, 0), kMin);
  EXPECT_EQ(EvalAlu(Opcode::kAbs, kMin, 0, 0), kMin);
  EXPECT_EQ(EvalAlu(Opcode::kDiv, kMin, -1, 0), kMin);
  EXPECT_EQ(EvalAlu(Opcode::kDiv, 7, -1, 0), -7);
  EXPECT_EQ(EvalAlu(Opcode::kShl, -1, 63, 0), kMin);
  EXPECT_EQ(EvalAlu(Opcode::kShl, 3, 64 + 1, 0), 6) << "shift count mod 64";
}

TEST(Dfg, VerifyAcceptsWellFormed) {
  Dfg d;
  const OpId a = d.AddInput(0);
  const OpId b = d.AddInput(1);
  const OpId s = d.AddBinary(Opcode::kAdd, a, b);
  d.AddOutput(s, 0);
  EXPECT_TRUE(d.Verify().ok());
}

TEST(Dfg, VerifyRejectsSameIterationCycle) {
  Dfg d;
  Op a;
  a.opcode = Opcode::kNeg;
  a.operands = {Operand{1, 0, 0}};
  d.AddOp(std::move(a));
  Op b;
  b.opcode = Opcode::kNeg;
  b.operands = {Operand{0, 0, 0}};
  d.AddOp(std::move(b));
  EXPECT_FALSE(d.Verify().ok());
}

TEST(Dfg, VerifyAcceptsCarriedCycle) {
  Dfg d;
  const OpId x = d.AddInput(0);
  Op acc;
  acc.opcode = Opcode::kAdd;
  acc.operands = {Operand{x, 0, 0}, Operand{0, 1, 0}};
  const OpId id = d.AddOp(std::move(acc));
  d.mutable_op(id).operands[1].producer = id;
  EXPECT_TRUE(d.Verify().ok());
}

TEST(Dfg, VerifyRejectsMissingSlot) {
  Dfg d;
  Op in;
  in.opcode = Opcode::kInput;  // slot left at -1
  d.AddOp(std::move(in));
  EXPECT_FALSE(d.Verify().ok());
}

TEST(Dfg, EdgesIncludePredAndOrder) {
  Dfg d;
  const OpId c = d.AddInput(0);
  Op guarded;
  guarded.opcode = Opcode::kNeg;
  guarded.operands = {Operand{c, 0, 0}};
  guarded.pred = c;
  const OpId g = d.AddOp(std::move(guarded));
  d.mutable_op(g).order_deps.push_back(Operand{c, 1, 0});
  const auto edges = d.Edges();
  int pred = 0, order = 0;
  for (const auto& e : edges) {
    if (e.to_port == kPredPort) ++pred;
    if (e.to_port == kOrderPort) ++order;
  }
  EXPECT_EQ(pred, 1);
  EXPECT_EQ(order, 1);
}

TEST(Interp, DotProductMatchesClosedForm) {
  Kernel k = MakeDotProduct(10, 99);
  const auto r = RunReference(k.dfg, k.input);
  ASSERT_TRUE(r.ok());
  std::int64_t acc = 0;
  for (int i = 0; i < 10; ++i) {
    acc += k.input.streams[0][static_cast<size_t>(i)] *
           k.input.streams[1][static_cast<size_t>(i)];
    EXPECT_EQ(r->outputs[0][static_cast<size_t>(i)], acc);
  }
}

TEST(Interp, Fir4UsesHistory) {
  Kernel k = MakeFir4(8, 5);
  const auto r = RunReference(k.dfg, k.input);
  ASSERT_TRUE(r.ok());
  const auto& x = k.input.streams[0];
  auto at = [&](int i) { return i >= 0 ? x[static_cast<size_t>(i)] : 0; };
  for (int i = 0; i < 8; ++i) {
    const std::int64_t want =
        5 * at(i) + 3 * at(i - 1) - 2 * at(i - 2) + at(i - 3);
    EXPECT_EQ(r->outputs[0][static_cast<size_t>(i)], want) << "i=" << i;
  }
}

TEST(Interp, CarriedInitValueUsed) {
  Kernel k = MakeRunningMaxPool(4, 3);
  // Initial max is -1000000, so the first output equals x[0] for any
  // x[0] > -1000000.
  const auto r = RunReference(k.dfg, k.input);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->outputs[0][0], k.input.streams[0][0]);
}

TEST(Interp, StreamUnderrunFails) {
  Kernel k = MakeVecAdd(4, 1);
  k.input.iterations = 10;  // streams only hold 4
  EXPECT_FALSE(RunReference(k.dfg, k.input).ok());
}

TEST(Interp, LoadStoreRoundTrip) {
  Kernel k = MakeGemmMac(6, 11);
  const auto r = RunReference(k.dfg, k.input);
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 6; ++i) {
    const std::int64_t want =
        k.input.arrays[2][static_cast<size_t>(i)] +
        k.input.arrays[0][static_cast<size_t>(i)] * k.input.arrays[1][static_cast<size_t>(i)];
    EXPECT_EQ(r->arrays[2][static_cast<size_t>(i)], want);
  }
}

TEST(Interp, HistogramCountsMatch) {
  Kernel k = MakeHistogram8(32, 17);
  const auto r = RunReference(k.dfg, k.input);
  ASSERT_TRUE(r.ok());
  std::vector<std::int64_t> expect(8, 0);
  for (int i = 0; i < 32; ++i) {
    ++expect[static_cast<size_t>(k.input.streams[0][static_cast<size_t>(i)] & 7)];
  }
  EXPECT_EQ(r->arrays[0], expect);
}

TEST(Interp, OutOfBoundsLoadFails) {
  Dfg d;
  const OpId big = d.AddConst(1000);
  const OpId ld = d.AddLoad(0, big);
  d.AddOutput(ld, 0);
  ExecInput in;
  in.iterations = 1;
  in.arrays.push_back(std::vector<std::int64_t>(4, 0));
  EXPECT_FALSE(RunReference(d, in).ok());
}

TEST(Interp, PredicatedStoreSkipsSideEffect) {
  Dfg d;
  const OpId x = d.AddInput(0, "x");
  const OpId zero = d.AddConst(0, "zero");
  const OpId cond = d.AddBinary(Opcode::kCmpLt, zero, x, "pos");
  Op st;
  st.opcode = Opcode::kStore;
  st.array = 0;
  st.operands = {Operand{zero, 0, 0}, Operand{x, 0, 0}};
  st.pred = cond;
  d.AddOp(std::move(st));
  ExecInput in;
  in.iterations = 2;
  in.streams.push_back({5, -3});
  in.arrays.push_back({0});
  const auto r = RunReference(d, in);
  ASSERT_TRUE(r.ok());
  // Second iteration's store (x = -3) must be suppressed.
  EXPECT_EQ(r->arrays[0][0], 5);
}

TEST(Interp, PhiPicksGuardedSide) {
  IteKernel k = MakeThresholdIte(16, 23);
  const auto r = RunReference(k.dfg, k.input);
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 16; ++i) {
    const std::int64_t x = k.input.streams[0][static_cast<size_t>(i)];
    const std::int64_t want = x > 10 ? x * 3 - 1 : x + 100;
    EXPECT_EQ(r->outputs[0][static_cast<size_t>(i)], want) << "i=" << i;
  }
}

TEST(Cdfg, VerifiesDiamond) {
  IteKernel k = MakeThresholdIte(4, 31);
  EXPECT_TRUE(k.cdfg.Verify().ok());
}

TEST(Cdfg, WalkerMatchesPredicatedDfg) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    IteKernel k = MakeThresholdIte(12, seed);
    const auto dfg_r = RunReference(k.dfg, k.input);
    const auto cdfg_r = RunCdfgReference(k.cdfg, k.input);
    ASSERT_TRUE(dfg_r.ok());
    ASSERT_TRUE(cdfg_r.ok()) << cdfg_r.error().message;
    EXPECT_EQ(dfg_r->outputs, cdfg_r->outputs) << "seed=" << seed;
  }
}

TEST(Cdfg, ClampIteBothFormsAgree) {
  IteKernel k = MakeClampIte(20, 77);
  const auto dfg_r = RunReference(k.dfg, k.input);
  const auto cdfg_r = RunCdfgReference(k.cdfg, k.input);
  ASSERT_TRUE(dfg_r.ok());
  ASSERT_TRUE(cdfg_r.ok()) << cdfg_r.error().message;
  EXPECT_EQ(dfg_r->outputs, cdfg_r->outputs);
}

TEST(Cdfg, StepLimitGuardsInfiniteLoops) {
  IteKernel k = MakeThresholdIte(1000, 3);
  EXPECT_FALSE(RunCdfgReference(k.cdfg, k.input, /*max_steps=*/10).ok());
}

TEST(Kernels, SuiteVerifiesAndRuns) {
  for (const Kernel& k : StandardKernelSuite(24, 0xABC)) {
    EXPECT_TRUE(k.dfg.Verify().ok()) << k.name;
    const auto r = RunReference(k.dfg, k.input);
    EXPECT_TRUE(r.ok()) << k.name << ": "
                        << (r.ok() ? "" : r.error().message);
  }
}

TEST(Kernels, DeterministicForSeed) {
  Kernel a = MakeSad(16, 5), b = MakeSad(16, 5);
  const auto ra = RunReference(a.dfg, a.input);
  const auto rb = RunReference(b.dfg, b.input);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->outputs, rb->outputs);
}

TEST(Kernels, RandomKernelsAreWellFormed) {
  Rng rng(99);
  RandomDfgOptions opts;
  for (int i = 0; i < 50; ++i) {
    Kernel k = MakeRandomKernel(rng, opts);
    ASSERT_TRUE(k.dfg.Verify().ok()) << "iteration " << i;
    const auto r = RunReference(k.dfg, k.input);
    EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().message);
  }
}

TEST(Kernels, ComplexMulClosedForm) {
  Kernel k = MakeComplexMul(8, 21);
  const auto r = RunReference(k.dfg, k.input);
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 8; ++i) {
    const auto a = k.input.streams[0][static_cast<size_t>(i)];
    const auto b = k.input.streams[1][static_cast<size_t>(i)];
    const auto c = k.input.streams[2][static_cast<size_t>(i)];
    const auto d = k.input.streams[3][static_cast<size_t>(i)];
    EXPECT_EQ(r->outputs[0][static_cast<size_t>(i)], a * c - b * d);
    EXPECT_EQ(r->outputs[1][static_cast<size_t>(i)], a * d + b * c);
  }
}

TEST(Kernels, AlphaBlendClosedForm) {
  Kernel k = MakeAlphaBlend(8, 22);
  const auto r = RunReference(k.dfg, k.input);
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 8; ++i) {
    const auto a = k.input.streams[0][static_cast<size_t>(i)];
    const auto p = k.input.streams[1][static_cast<size_t>(i)];
    const auto q = k.input.streams[2][static_cast<size_t>(i)];
    EXPECT_EQ(r->outputs[0][static_cast<size_t>(i)],
              (a * p + (256 - a) * q) >> 8);
  }
}

TEST(Kernels, Dct4ClosedForm) {
  Kernel k = MakeDct4Stage(6, 23);
  const auto r = RunReference(k.dfg, k.input);
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 6; ++i) {
    const auto x0 = k.input.streams[0][static_cast<size_t>(i)];
    const auto x1 = k.input.streams[1][static_cast<size_t>(i)];
    const auto x2 = k.input.streams[2][static_cast<size_t>(i)];
    const auto x3 = k.input.streams[3][static_cast<size_t>(i)];
    EXPECT_EQ(r->outputs[0][static_cast<size_t>(i)], (x0 + x3) + (x1 + x2));
    EXPECT_EQ(r->outputs[1][static_cast<size_t>(i)],
              17 * (x0 - x3) + 7 * (x1 - x2));
    EXPECT_EQ(r->outputs[2][static_cast<size_t>(i)], (x0 + x3) - (x1 + x2));
    EXPECT_EQ(r->outputs[3][static_cast<size_t>(i)],
              7 * (x0 - x3) - 17 * (x1 - x2));
  }
}

TEST(Kernels, WideDotProductSumsLanes) {
  Kernel k = MakeWideDotProduct(4, 6, 24);
  const auto r = RunReference(k.dfg, k.input);
  ASSERT_TRUE(r.ok());
  std::int64_t acc = 0;
  for (int i = 0; i < 6; ++i) {
    for (int lane = 0; lane < 4; ++lane) {
      acc += k.input.streams[static_cast<size_t>(2 * lane)][static_cast<size_t>(i)] *
             k.input.streams[static_cast<size_t>(2 * lane + 1)][static_cast<size_t>(i)];
    }
    EXPECT_EQ(r->outputs[0][static_cast<size_t>(i)], acc);
  }
}

TEST(Dfg, DotExportMentionsOps) {
  Kernel k = MakeDotProduct(4, 1);
  const std::string dot = k.dfg.ToDot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("mul"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos)
      << "carried edges are dashed";
}

}  // namespace
}  // namespace cgra
