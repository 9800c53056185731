// Tests for control-flow support (§III-B): the four ITE mapping
// methods and hardware-loop lowering — every method must reproduce the
// reference semantics end-to-end on the simulator.
#include <algorithm>
#include <iterator>

#include <gtest/gtest.h>

#include "cf/direct_cdfg.hpp"
#include "cf/hwloop.hpp"
#include "cf/predication.hpp"
#include "cf/unroll.hpp"
#include "ir/interp.hpp"
#include "ir/kernels.hpp"
#include "mappers/common.hpp"
#include "mappers/mappers.hpp"
#include "mapping/validator.hpp"
#include "sim/harness.hpp"

namespace cgra {
namespace {

Architecture Rotating4x4() {
  ArchParams p;
  p.rows = p.cols = 4;
  p.rf_kind = RfKind::kRotating;
  p.name = "rot4x4";
  return Architecture(p);
}

// Reference outputs of the base (select-semantics) kernel.
std::vector<std::vector<std::int64_t>> BaseOutputs(const IteKernel& k) {
  auto r = RunReference(k.dfg, k.input);
  EXPECT_TRUE(r.ok());
  return r->outputs;
}

using Transform = Result<Dfg> (*)(const IteKernel&);

struct IteMethod {
  const char* name;
  Transform apply;
};

constexpr IteMethod kIteMethods[] = {
    {"full_predication", &ApplyFullPredication},
    {"partial_predication", &ApplyPartialPredication},
    {"dual_issue", &ApplyDualIssue},
};

// The parameter is an index into kIteMethods, not the entry itself:
// gtest lists a parameter's printed value after each test name, and an
// entry prints as addresses that change from build to build.
class IteTransformTest : public ::testing::TestWithParam<int> {
 protected:
  static const IteMethod& Method() { return kIteMethods[GetParam()]; }
};

TEST_P(IteTransformTest, PreservesSemanticsInReference) {
  for (std::uint64_t seed : {7ull, 8ull, 9ull}) {
    for (const IteKernel& k :
         {MakeThresholdIte(24, seed), MakeClampIte(24, seed)}) {
      const auto base = BaseOutputs(k);
      auto transformed = Method().apply(k);
      ASSERT_TRUE(transformed.ok()) << Method().name << ": "
                                    << transformed.error().message;
      ExecInput input = k.input;
      const auto r = RunReference(*transformed, input);
      ASSERT_TRUE(r.ok()) << r.error().message;
      EXPECT_EQ(r->outputs, base) << Method().name << " kernel " << k.name;
    }
  }
}

TEST_P(IteTransformTest, MapsAndSimulatesBitExactly) {
  const Architecture arch = Rotating4x4();
  auto mapper = MakeIterativeModuloScheduler();
  for (const IteKernel& k : {MakeThresholdIte(16, 3ull), MakeClampIte(16, 4ull)}) {
    auto transformed = Method().apply(k);
    ASSERT_TRUE(transformed.ok());
    Kernel wrapped;
    wrapped.name = std::string(Method().name) + "_" + k.name;
    wrapped.dfg = *transformed;
    wrapped.input = k.input;
    MapperOptions opts;
    const auto e2e = RunEndToEnd(*mapper, wrapped, arch, opts);
    ASSERT_TRUE(e2e.ok()) << wrapped.name << ": " << e2e.error().message;
    EXPECT_GE(e2e->mapping.ii, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Methods, IteTransformTest,
    ::testing::Range(0, static_cast<int>(std::size(kIteMethods))),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::string(kIteMethods[info.param].name);
    });

TEST(DualIssue, UsesFewerSlotsThanPredication) {
  const IteKernel k = MakeClampIte(8, 1);
  const auto full = ApplyFullPredication(k);
  const auto dise = ApplyDualIssue(k);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(dise.ok());
  EXPECT_LT(MappableOpCount(*dise), MappableOpCount(*full))
      << "fused slots must reduce the issue count";
}

TEST(DualIssue, AltFieldsSurviveContextRoundTrip) {
  const IteKernel k = MakeThresholdIte(8, 2);
  const auto dise = ApplyDualIssue(k);
  ASSERT_TRUE(dise.ok());
  bool any_alt = false;
  for (const Op& op : dise->ops()) any_alt |= op.has_alt();
  EXPECT_TRUE(any_alt);
}

TEST(DirectCdfg, MatchesCdfgReference) {
  const Architecture arch = Rotating4x4();
  auto mapper = MakeIterativeModuloScheduler();
  for (std::uint64_t seed : {5ull, 6ull}) {
    const IteKernel k = MakeThresholdIte(10, seed);
    const auto ref = RunCdfgReference(k.cdfg, k.input);
    ASSERT_TRUE(ref.ok()) << ref.error().message;
    DirectCdfgOptions opts;
    const auto r = RunDirectCdfg(k.cdfg, arch, *mapper, k.input, opts);
    ASSERT_TRUE(r.ok()) << r.error().message;
    EXPECT_EQ(r->outputs, ref->outputs);
    EXPECT_GT(r->config_switches, 0);
    EXPECT_GT(r->reconfig_cycles, 0) << "block switches cost reconfiguration";
  }
}

TEST(DirectCdfg, ChargesReconfigurationPerSwitch) {
  const Architecture arch = Rotating4x4();
  auto mapper = MakeIterativeModuloScheduler();
  const IteKernel k = MakeThresholdIte(6, 11);
  DirectCdfgOptions cheap;
  cheap.reconfig_cycles_per_switch = 1;
  DirectCdfgOptions dear;
  dear.reconfig_cycles_per_switch = 100;
  const auto a = RunDirectCdfg(k.cdfg, arch, *mapper, k.input, cheap);
  const auto b = RunDirectCdfg(k.cdfg, arch, *mapper, k.input, dear);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->compute_cycles, b->compute_cycles);
  EXPECT_GT(b->reconfig_cycles, a->reconfig_cycles);
}

TEST(HwLoop, LoweringPreservesSemantics) {
  Kernel k = MakeMatVecRow(12, 9);
  ASSERT_GT(CountIterIdxOps(k.dfg), 0);
  const auto lowered = LowerIterIdx(k.dfg);
  ASSERT_TRUE(lowered.ok());
  EXPECT_EQ(CountIterIdxOps(*lowered), 0);
  const auto a = RunReference(k.dfg, k.input);
  const auto b = RunReference(*lowered, k.input);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->outputs, b->outputs);
}

TEST(HwLoop, LoweredKernelMapsWithoutHwLoopUnit) {
  ArchParams p;
  p.rows = p.cols = 4;
  p.rf_kind = RfKind::kRotating;
  p.has_hw_loop = false;
  const Architecture arch{p};
  Kernel k = MakeMatVecRow(10, 2);
  auto mapper = MakeIterativeModuloScheduler();
  MapperOptions opts;
  // Unlowered: rejected (kIterIdx needs the unit).
  EXPECT_FALSE(RunEndToEnd(*mapper, k, arch, opts).ok());
  // Lowered: maps and simulates bit-exactly.
  const auto lowered = LowerIterIdx(k.dfg);
  ASSERT_TRUE(lowered.ok());
  Kernel lk = k;
  lk.dfg = *lowered;
  const auto e2e = RunEndToEnd(*mapper, lk, arch, opts);
  ASSERT_TRUE(e2e.ok()) << e2e.error().message;
}

class UnrollTest : public ::testing::TestWithParam<int> {};

TEST_P(UnrollTest, UnrolledKernelsProduceOriginalOutputs) {
  const int factor = GetParam();
  for (Kernel k : {MakeDotProduct(24, 0x40), MakeFir4(24, 0x41),
                   MakeIir1(24, 0x42), MakeSobelRow(24, 0x43),
                   MakeButterfly(24, 0x44)}) {
    const auto base = RunReference(k.dfg, k.input);
    ASSERT_TRUE(base.ok()) << k.name;
    const auto unrolled = UnrollKernel(k, factor);
    ASSERT_TRUE(unrolled.ok()) << k.name << ": " << unrolled.error().message;
    EXPECT_EQ(unrolled->dfg.num_ops(), factor * k.dfg.num_ops());
    const auto r = RunReference(unrolled->dfg, unrolled->input);
    ASSERT_TRUE(r.ok()) << k.name << ": " << r.error().message;
    const auto flat = ReinterleaveOutputs(
        r->outputs, factor, static_cast<int>(base->outputs.size()));
    EXPECT_EQ(flat, base->outputs) << k.name << " x" << factor;
  }
}

INSTANTIATE_TEST_SUITE_P(Factors, UnrollTest, ::testing::Values(2, 3, 4));

TEST(Unroll, FactorOneIsIdentity) {
  Kernel k = MakeSad(8, 0x45);
  const auto u = UnrollKernel(k, 1);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->dfg.num_ops(), k.dfg.num_ops());
}

TEST(Unroll, RejectsUnsupportedShapes) {
  EXPECT_FALSE(UnrollKernel(MakeMatVecRow(8, 1), 2).ok()) << "kIterIdx";
  EXPECT_FALSE(UnrollKernel(MakeHistogram8(8, 1), 2).ok()) << "order deps";
  Kernel odd = MakeVecAdd(9, 1);
  EXPECT_FALSE(UnrollKernel(odd, 2).ok()) << "non-divisible trip count";
}

TEST(Unroll, UnrolledKernelsMapAndSimulate) {
  // The §IV-B scalability workload shape: unrolled bodies on a larger
  // array, end-to-end through contexts and the simulator.
  ArchParams p;
  p.rows = p.cols = 8;
  p.rf_kind = RfKind::kRotating;
  p.num_banks = 4;
  const Architecture arch(p);
  auto mapper = MakeIterativeModuloScheduler();
  MapperOptions opts;
  opts.deadline = Deadline::AfterSeconds(20);

  // A parallel body: unrolling multiplies per-II throughput.
  {
    Kernel k = MakeVecAdd(24, 0x46);
    const auto unrolled = UnrollKernel(k, 4);
    ASSERT_TRUE(unrolled.ok());
    const auto r = RunEndToEnd(*mapper, *unrolled, arch, opts);
    ASSERT_TRUE(r.ok()) << r.error().message;
    EXPECT_EQ(r->mapping.ii, 1) << "no recurrence: unrolling is free";
    EXPECT_GE(r->map_stats.ops_mapped / r->mapping.ii, 16);
  }
  // A serial reduction: the unrolled accumulator chain is a recurrence
  // cycle of length U, so RecMII grows with the factor — unrolling
  // does NOT speed up serial reductions (a real finding the mapper
  // surfaces through its MII bound).
  {
    Kernel k = MakeDotProduct(24, 0x47);
    const auto unrolled = UnrollKernel(k, 4);
    ASSERT_TRUE(unrolled.ok());
    const MiiBounds bounds = ComputeMii(unrolled->dfg, arch, 16);
    EXPECT_GE(bounds.rec_mii, 4);
    const auto r = RunEndToEnd(*mapper, *unrolled, arch, opts);
    ASSERT_TRUE(r.ok()) << r.error().message;
    EXPECT_GE(r->mapping.ii, 4);
  }
}

TEST(HwLoop, LoweringCostsIssueSlots) {
  // On a fabric WITH the hardware loop unit the counter is free
  // (folded); lowering turns it into a real op occupying a slot.
  Kernel k = MakeGemmMac(8, 3);  // one kIterIdx feeding 4 memory ops
  const auto lowered = LowerIterIdx(k.dfg);
  ASSERT_TRUE(lowered.ok());
  const Architecture arch = Architecture::Adres4x4();
  auto slots = [&](const Dfg& d) {
    int n = 0;
    for (const Op& op : d.ops()) {
      if (!arch.IsFolded(op.opcode)) ++n;
    }
    return n;
  };
  EXPECT_GT(slots(*lowered), slots(k.dfg));
}

}  // namespace
}  // namespace cgra
