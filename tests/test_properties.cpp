// Cross-cutting property suites: randomised invariants over the whole
// stack (router, tracker, codegen, mappers, solvers). These are the
// "every mapping is valid and bit-exact" checks of DESIGN.md §5, swept
// over seeds, fabrics, and II values with parameterised gtest.
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "arch/context.hpp"
#include "arch/fault.hpp"
#include "arch/mrrg.hpp"
#include "ir/interp.hpp"
#include "ir/kernels.hpp"
#include "mappers/common.hpp"
#include "mappers/mappers.hpp"
#include "mapping/place_route.hpp"
#include "mapping/router.hpp"
#include "mapping/validator.hpp"
#include "sim/compile.hpp"
#include "sim/harness.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace cgra {
namespace {

Architecture RotatingMesh(int n, Topology topo = Topology::kMesh) {
  ArchParams p;
  p.rows = p.cols = n;
  p.rf_kind = RfKind::kRotating;
  p.topology = topo;
  p.num_banks = std::max(1, n / 2);
  return Architecture(p);
}

// ---- router properties -------------------------------------------------------

class RouterPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RouterPropertyTest, RoutesHaveExactLatencyAndValidSteps) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const Architecture arch = RotatingMesh(4);
  const Mrrg mrrg(arch);
  for (int ii : {1, 2, 4}) {
    ResourceTracker tracker(mrrg, ii);
    for (int trial = 0; trial < 40; ++trial) {
      RouteRequest req;
      req.from_cell = static_cast<int>(rng.NextIndex(16));
      req.to_cell = static_cast<int>(rng.NextIndex(16));
      req.from_time = rng.NextInt(0, 3);
      req.to_time = req.from_time + rng.NextInt(1, 6);
      req.value = trial;
      const auto route = RouteValue(mrrg, tracker, req);
      if (!route.ok()) continue;  // congestion/latency failures are fine
      // Starts at the producer's latch.
      ASSERT_FALSE(route->steps.empty());
      EXPECT_EQ(route->steps.front().node, mrrg.HoldNode(req.from_cell));
      EXPECT_EQ(route->steps.front().time, req.from_time + 1);
      // Ends at a hold the consumer can read, exactly on time.
      const auto& goals = mrrg.ReadableHolds(req.to_cell);
      EXPECT_NE(std::find(goals.begin(), goals.end(), route->steps.back().node),
                goals.end());
      EXPECT_EQ(route->steps.back().time, req.to_time);
      // Every hop follows a real MRRG link with matching latency.
      for (size_t i = 0; i + 1 < route->steps.size(); ++i) {
        bool ok = false;
        for (const auto& link : mrrg.OutLinks(route->steps[i].node)) {
          if (link.to == route->steps[i + 1].node &&
              route->steps[i].time + link.latency == route->steps[i + 1].time) {
            ok = true;
          }
        }
        EXPECT_TRUE(ok) << "seed " << GetParam() << " trial " << trial;
      }
      // The tracker never exceeds capacity after commits.
      for (const auto& step : route->steps) {
        EXPECT_LE(tracker.Load(step.node, ((step.time % ii) + ii) % ii),
                  mrrg.capacity(step.node));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouterPropertyTest, ::testing::Range(1, 6));

TEST(RouterProperty, RouteReleaseIsExactInverse) {
  Rng rng(99);
  const Architecture arch = RotatingMesh(4);
  const Mrrg mrrg(arch);
  ResourceTracker tracker(mrrg, 2);
  for (int trial = 0; trial < 50; ++trial) {
    RouteRequest req;
    req.from_cell = static_cast<int>(rng.NextIndex(16));
    req.to_cell = static_cast<int>(rng.NextIndex(16));
    req.from_time = 0;
    req.to_time = rng.NextInt(1, 6);
    req.value = trial;
    const auto route = RouteValue(mrrg, tracker, req);
    if (route.ok()) ReleaseRoute(tracker, *route, trial);
  }
  for (int n = 0; n < mrrg.num_nodes(); ++n) {
    EXPECT_EQ(tracker.Load(n, 0), 0);
    EXPECT_EQ(tracker.Load(n, 1), 0);
  }
}

// ---- place-and-route transactionality ------------------------------------------

TEST(PlaceRouteProperty, FailedPlacementsLeaveNoResidue) {
  Rng rng(0xBADF00D);
  const Architecture arch = RotatingMesh(3);
  const Mrrg& mrrg = arch.mrrg();
  for (int trial = 0; trial < 20; ++trial) {
    Kernel k = MakeRandomKernel(rng, RandomDfgOptions{}, 4);
    PlaceRouteState a(k.dfg, arch, 2);
    PlaceRouteState b(k.dfg, arch, 2);
    // a: attempt a storm of random placements, keeping successes.
    std::vector<std::tuple<OpId, int, int>> placed;
    for (int i = 0; i < 60; ++i) {
      const OpId op =
          a.MappableOps()[rng.NextIndex(a.MappableOps().size())];
      if (a.IsPlaced(op)) continue;
      const int cell = static_cast<int>(rng.NextIndex(9));
      const int t = rng.NextInt(0, 5);
      if (a.TryPlace(op, cell, t)) placed.push_back({op, cell, t});
    }
    // b: replay ONLY the successes; both states must accept identically
    // and end with the same loads.
    for (const auto& [op, cell, t] : placed) {
      EXPECT_TRUE(b.TryPlace(op, cell, t))
          << "failed attempts on `a` must not consume resources";
    }
    for (int n = 0; n < mrrg.num_nodes(); ++n) {
      for (int s = 0; s < 2; ++s) {
        ASSERT_EQ(a.tracker().Load(n, s), b.tracker().Load(n, s))
            << "trial " << trial << " node " << n << " slot " << s;
      }
    }
  }
}

TEST(PlaceRouteProperty, PlaceUnplaceRoundTripRestoresCapacity) {
  const Architecture arch = RotatingMesh(4);
  Kernel k = MakeMac2(8, 5);
  PlaceRouteState state(k.dfg, arch, 2);
  // Fill (systematic scan in dependence order), then empty, then
  // refill identically.
  std::vector<std::tuple<OpId, int, int>> placements;
  for (OpId op : state.MappableOps()) {
    bool done = false;
    for (int t = 0; t < 12 && !done; ++t) {
      for (int cell = 0; cell < 16 && !done; ++cell) {
        if (state.TryPlace(op, cell, t)) {
          placements.push_back({op, cell, t});
          done = true;
        }
      }
    }
    ASSERT_TRUE(done) << "op " << op;
  }
  for (const auto& [op, cell, t] : placements) state.Unplace(op);
  EXPECT_EQ(state.placed_count(), 0);
  for (const auto& [op, cell, t] : placements) {
    EXPECT_TRUE(state.TryPlace(op, cell, t));
  }
}

// ---- codegen / simulator sweeps -------------------------------------------------

struct SweepCase {
  int arch_size;
  Topology topo;
  std::uint64_t seed;
};

class RandomKernelSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RandomKernelSweepTest, EveryMappedRandomKernelIsBitExact) {
  const auto [size, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919);
  const Architecture arch =
      RotatingMesh(size, size >= 8 ? Topology::kHop2 : Topology::kMesh);
  auto mapper = MakeIterativeModuloScheduler();
  RandomDfgOptions gen;
  gen.num_ops = 8 + size;
  for (int trial = 0; trial < 8; ++trial) {
    Kernel k = MakeRandomKernel(rng, gen, 10);
    k.name = "sweep";
    MapperOptions opts;
    opts.deadline = Deadline::AfterSeconds(10);
    const auto r = RunEndToEnd(*mapper, k, arch, opts);
    ASSERT_TRUE(r.ok()) << size << "x" << size << " seed " << seed << " trial "
                        << trial << ": " << r.error().message;
    // And the mapping independently revalidates.
    EXPECT_TRUE(ValidateMapping(k.dfg, arch, r->mapping).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, RandomKernelSweepTest,
                         ::testing::Combine(::testing::Values(3, 4, 6),
                                            ::testing::Values(1, 2, 3)));

// ---- decode robustness (bitstream fuzz) ----------------------------------------

TEST(ContextFuzz, RandomBitstreamsNeverCrashDecode) {
  Rng rng(123456);
  const Architecture arch = RotatingMesh(4);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> bits(rng.NextIndex(400));
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.NextBounded(256));
    const auto decoded = DecodeConfig(arch, bits);  // must not crash/UB
    if (decoded.ok()) {
      EXPECT_GE(decoded->ii, 1);
      EXPECT_LE(decoded->ii, arch.MaxIi());
    }
  }
}

TEST(ContextFuzz, BitflipsEitherFailOrDecodeDifferently) {
  const Architecture arch = RotatingMesh(4);
  Kernel k = MakeSaxpy(8, 3);
  auto mapper = MakeIterativeModuloScheduler();
  MapperOptions opts;
  auto mapping = mapper->Map(k.dfg, arch, opts);
  ASSERT_TRUE(mapping.ok());
  auto image = CompileToContexts(k.dfg, arch, *mapping);
  ASSERT_TRUE(image.ok());
  const auto bits = EncodeConfig(arch, *image);
  Rng rng(9);
  for (int trial = 0; trial < 64; ++trial) {
    auto flipped = bits;
    const size_t byte = rng.NextIndex(flipped.size());
    flipped[byte] ^= static_cast<std::uint8_t>(1u << rng.NextBounded(8));
    const auto decoded = DecodeConfig(arch, flipped);
    if (decoded.ok()) {
      EXPECT_FALSE(*decoded == *image)
          << "a flipped bit must not decode to the identical image";
    }
  }
}

// ---- mapper agreement across seeds -----------------------------------------------

TEST(MapperAgreement, AchievedIiNeverBelowTheoreticalMii) {
  const Architecture arch = RotatingMesh(4);
  for (const Kernel& k : StandardKernelSuite(8, 0x717)) {
    const MiiBounds bounds = ComputeMii(k.dfg, arch, 16);
    for (const auto& mapper :
         {MakeIterativeModuloScheduler(), MakeUltraFastScheduler(),
          MakeEdgeCentricMapper(), MakeRampMapper()}) {
      MapperOptions opts;
      opts.deadline = Deadline::AfterSeconds(10);
      const auto r = mapper->Map(k.dfg, arch, opts);
      if (!r.ok()) continue;
      EXPECT_GE(r->ii, bounds.mii())
          << mapper->name() << " on " << k.name
          << ": no mapper may beat the MII lower bound";
    }
  }
}

TEST(MapperAgreement, AllMappersAgreeOnObservableSemantics) {
  // Different mappers, same kernel: the simulator must produce the
  // SAME outputs for all of them (they may differ in cycles/energy).
  const Architecture arch = RotatingMesh(4);
  Kernel k = MakeFir4(12, 0xFEED);
  const auto ref = RunReference(k.dfg, k.input);
  ASSERT_TRUE(ref.ok());
  for (const auto& mapper :
       {MakeIterativeModuloScheduler(), MakeDrescAnnealingMapper(),
        MakeBackwardBeamMapper(), MakeEpimapStyleMapper()}) {
    MapperOptions opts;
    opts.deadline = Deadline::AfterSeconds(20);
    const auto r = RunEndToEnd(*mapper, k, arch, opts);
    if (!r.ok()) continue;  // the harness itself enforces bit-exactness
    SUCCEED();
  }
}

// ---- validator mutation coverage -------------------------------------------------
//
// Start from a known-valid mapping and apply four single mutations; the
// validator must reject each one with a DISTINCT diagnostic, proving the
// checks fire independently rather than through one catch-all error.

struct MutationFixture {
  Architecture arch = RotatingMesh(4);
  // MatVecRow loads A[i] and x[i]: two memory ops for the bank checks.
  Kernel kernel = MakeMatVecRow(8, 7);
  Mapping mapping;

  MutationFixture() {
    auto mapper = MakeIterativeModuloScheduler();
    MapperOptions opts;
    opts.deadline = Deadline::AfterSeconds(20);
    auto r = mapper->Map(kernel.dfg, arch, opts);
    EXPECT_TRUE(r.ok());
    if (r.ok()) mapping = *r;
    EXPECT_TRUE(ValidateMapping(kernel.dfg, arch, mapping).ok());
  }

  // First OpId whose placement occupies a real cell.
  OpId FirstPlacedOp() const {
    for (OpId op = 0; op < kernel.dfg.num_ops(); ++op) {
      if (mapping.place[static_cast<size_t>(op)].cell >= 0) return op;
    }
    return kNoOp;
  }

  // True when no placed op other than `except_a`/`except_b` occupies
  // (cell, slot) under the mapping's II.
  bool FuFree(int cell, int slot, OpId except_a, OpId except_b = kNoOp) const {
    for (OpId op = 0; op < kernel.dfg.num_ops(); ++op) {
      if (op == except_a || op == except_b) continue;
      const Placement& p = mapping.place[static_cast<size_t>(op)];
      if (p.cell == cell && ((p.time % mapping.ii) + mapping.ii) % mapping.ii ==
                                slot) {
        return false;
      }
    }
    return true;
  }
};

TEST(ValidatorMutation, FourSingleMutationsFourDistinctDiagnostics) {
  const MutationFixture fx;
  ASSERT_TRUE(ValidateMapping(fx.kernel.dfg, fx.arch, fx.mapping).ok());
  std::vector<std::string> diagnostics;

  // (a) Rebind a memory op onto a cell without a load/store unit.
  {
    Mapping m = fx.mapping;
    OpId victim = kNoOp;
    for (OpId op = 0; op < fx.kernel.dfg.num_ops(); ++op) {
      if (IsMemoryOp(fx.kernel.dfg.op(op).opcode) &&
          m.place[static_cast<size_t>(op)].cell >= 0) {
        victim = op;
        break;
      }
    }
    ASSERT_NE(victim, kNoOp);
    Placement& p = m.place[static_cast<size_t>(victim)];
    // Cell 5 (row 1, col 1) has no memory port under mem_on_left_col;
    // find a slot-compatible rebinding that trips ONLY the capability
    // check, not FU exclusivity.
    bool rebound = false;
    for (int t = 0; t < m.length && !rebound; ++t) {
      const int slot = ((t % m.ii) + m.ii) % m.ii;
      if (fx.FuFree(5, slot, victim)) {
        p.cell = 5;
        p.time = t;
        rebound = true;
      }
    }
    ASSERT_TRUE(rebound);
    const Status s = ValidateMapping(fx.kernel.dfg, fx.arch, m);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.error().message.find("bound to incompatible cell"),
              std::string::npos)
        << s.error().message;
    diagnostics.push_back(s.error().message);
  }

  // (b) Drop an interior route hop.
  {
    Mapping m = fx.mapping;
    bool mutated = false;
    for (Route& route : m.routes) {
      if (route.steps.size() >= 3) {
        route.steps.erase(route.steps.begin() + 1);
        mutated = true;
        break;
      }
    }
    ASSERT_TRUE(mutated) << "expected at least one multi-hop route";
    const Status s = ValidateMapping(fx.kernel.dfg, fx.arch, m);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.error().message.find("does not follow an MRRG link"),
              std::string::npos)
        << s.error().message;
    diagnostics.push_back(s.error().message);
  }

  // (c) Oversubscribe a bank port: both loads on bank 0 (cells 0 and
  // 8 under row-round-robin banking) in the same slot, with
  // bank_ports == 1.
  {
    ASSERT_EQ(fx.arch.params().bank_ports, 1);
    ASSERT_EQ(fx.arch.caps(0).bank, fx.arch.caps(8).bank);
    Mapping m = fx.mapping;
    std::vector<OpId> loads;
    for (OpId op = 0; op < fx.kernel.dfg.num_ops(); ++op) {
      if (IsMemoryOp(fx.kernel.dfg.op(op).opcode) &&
          m.place[static_cast<size_t>(op)].cell >= 0) {
        loads.push_back(op);
      }
    }
    ASSERT_GE(loads.size(), 2u);
    bool rebound = false;
    for (int t = 0; t < m.length && !rebound; ++t) {
      const int slot = ((t % m.ii) + m.ii) % m.ii;
      if (fx.FuFree(0, slot, loads[0], loads[1]) &&
          fx.FuFree(8, slot, loads[0], loads[1])) {
        m.place[static_cast<size_t>(loads[0])] = Placement{0, t};
        m.place[static_cast<size_t>(loads[1])] = Placement{8, t};
        rebound = true;
      }
    }
    ASSERT_TRUE(rebound);
    const Status s = ValidateMapping(fx.kernel.dfg, fx.arch, m);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.error().message.find("oversubscribed"), std::string::npos)
        << s.error().message;
    EXPECT_NE(s.error().message.find("ports"), std::string::npos)
        << s.error().message;
    diagnostics.push_back(s.error().message);
  }

  // (d) Same mapping, but the fabric lost the cell under the first op.
  {
    const OpId first = fx.FirstPlacedOp();
    ASSERT_NE(first, kNoOp);
    FaultModel fm;
    fm.KillCell(fx.mapping.place[static_cast<size_t>(first)].cell);
    const Architecture degraded = fx.arch.WithFaults(fm);
    const Status s = ValidateMapping(fx.kernel.dfg, degraded, fx.mapping);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.error().message.find("bound to faulted cell"),
              std::string::npos)
        << s.error().message;
    diagnostics.push_back(s.error().message);
  }

  // All four diagnostics are pairwise distinct.
  ASSERT_EQ(diagnostics.size(), 4u);
  for (size_t i = 0; i < diagnostics.size(); ++i) {
    for (size_t j = i + 1; j < diagnostics.size(); ++j) {
      EXPECT_NE(diagnostics[i], diagnostics[j]) << i << " vs " << j;
    }
  }
}

// ---- deterministic end-to-end (same seed, same bitstream) ------------------------

TEST(Determinism, SameSeedSameBitstream) {
  const Architecture arch = RotatingMesh(4);
  Kernel k = MakeSobelRow(8, 0xD5);
  auto mapper = MakeCrimsonScheduler();
  MapperOptions opts;
  opts.seed = 77;
  auto m1 = mapper->Map(k.dfg, arch, opts);
  auto m2 = mapper->Map(k.dfg, arch, opts);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  auto i1 = CompileToContexts(k.dfg, arch, *m1);
  auto i2 = CompileToContexts(k.dfg, arch, *m2);
  ASSERT_TRUE(i1.ok());
  ASSERT_TRUE(i2.ok());
  EXPECT_EQ(EncodeConfig(arch, *i1), EncodeConfig(arch, *i2));
}

// ---- warm-up reservations under stress -------------------------------------------

class CarriedDistanceTest : public ::testing::TestWithParam<int> {};

TEST_P(CarriedDistanceTest, DeepCarriedHistoriesStayExact) {
  // y[i] = x[i] + y[i-d] with d = 1..4: deep warm-up windows, nonzero
  // init values, on a small fabric that forces register reuse.
  const int d = GetParam();
  Dfg dfg;
  const OpId x = dfg.AddInput(0, "x");
  Op add;
  add.opcode = Opcode::kAdd;
  add.name = "y";
  add.operands = {Operand{x, 0, 0}, Operand{kNoOp, d, 100 + d}};
  const OpId y = dfg.AddOp(std::move(add));
  dfg.mutable_op(y).operands[1].producer = y;
  dfg.AddOutput(y, 0, "out");

  Kernel k;
  k.name = "carried_d" + std::to_string(d);
  k.dfg = dfg;
  k.input.iterations = 12;
  Rng rng(static_cast<std::uint64_t>(d));
  std::vector<std::int64_t> xs;
  for (int i = 0; i < 12; ++i) xs.push_back(rng.NextInt(-9, 9));
  k.input.streams.push_back(xs);

  const Architecture arch = RotatingMesh(3);
  auto mapper = MakeIterativeModuloScheduler();
  MapperOptions opts;
  const auto r = RunEndToEnd(*mapper, k, arch, opts);
  ASSERT_TRUE(r.ok()) << "d=" << d << ": " << r.error().message;
}

INSTANTIATE_TEST_SUITE_P(Depths, CarriedDistanceTest, ::testing::Range(1, 5));

}  // namespace
}  // namespace cgra
