// Fault suite: the FaultModel value type, Architecture::WithFaults()
// derating, MRRG pruning, mapper avoidance, simulator fault injection,
// and the acceptance sweep of ISSUE 2 — k = 1..4 random dead PEs on a
// 4x4 ADRES must still yield validating, bit-exact mappings through
// MappingEngine::RunWithRepair.
#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "arch/fault.hpp"
#include "arch/mrrg.hpp"
#include "engine/engine.hpp"
#include "ir/kernels.hpp"
#include "mappers/mappers.hpp"
#include "mapping/validator.hpp"
#include "sim/harness.hpp"

namespace cgra {
namespace {

Architecture Adres4x4(RfKind rf = RfKind::kRotating) {
  ArchParams p;
  p.rows = p.cols = 4;
  p.rf_kind = rf;
  p.name = "adres4x4";
  return Architecture(p);
}

// ---- FaultModel value semantics ---------------------------------------------

TEST(FaultModel, InsertionsDedupeAndStaySorted) {
  FaultModel fm;
  fm.KillCell(9);
  fm.KillCell(2);
  fm.KillCell(9);
  EXPECT_EQ(fm.dead_cells(), (std::vector<int>{2, 9}));
  EXPECT_TRUE(fm.CellDead(2));
  EXPECT_FALSE(fm.CellDead(3));

  fm.KillLink(1, 2);
  fm.KillLink(0, 1);
  fm.KillLink(1, 2);
  ASSERT_EQ(fm.dead_links().size(), 2u);
  EXPECT_TRUE(fm.LinkDead(1, 2));
  EXPECT_FALSE(fm.LinkDead(2, 1));  // faults are directional
  EXPECT_EQ(fm.TotalFaults(), 4);
}

TEST(FaultModel, DigestIsOrderIndependentAndFaultSensitive) {
  FaultModel a, b;
  a.KillCell(3);
  a.KillRfEntry(1, 0);
  b.KillRfEntry(1, 0);
  b.KillCell(3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Digest(), b.Digest());
  EXPECT_EQ(a.Digest().size(), 16u);
  EXPECT_EQ(FaultModel{}.Digest(), "healthy");

  b.KillContextSlot(0, 1);
  EXPECT_NE(a.Digest(), b.Digest());
}

TEST(FaultModel, MergeIsUnion) {
  FaultModel a, b;
  a.KillCell(1);
  a.KillLink(0, 1);
  b.KillCell(1);
  b.KillCell(7);
  a.Merge(b);
  EXPECT_EQ(a.dead_cells(), (std::vector<int>{1, 7}));
  EXPECT_EQ(a.TotalFaults(), 3);
}

TEST(FaultModel, ValidateRejectsResourcesTheFabricLacks) {
  const Architecture arch = Adres4x4();
  FaultModel fm;
  fm.KillCell(99);
  EXPECT_FALSE(fm.Validate(arch).ok());

  FaultModel link;
  link.KillLink(0, 15);  // opposite corners: no mesh link
  EXPECT_FALSE(link.Validate(arch).ok());

  FaultModel ok;
  ok.KillCell(5);
  ok.KillLink(0, 1);
  EXPECT_TRUE(ok.Validate(arch).ok());
}

TEST(FaultModel, RandomIsDeterministicPerSeedAndRespectsSpec) {
  const Architecture arch = Adres4x4();
  FaultModel::RandomSpec spec;
  spec.dead_cells = 2;
  spec.dead_links = 3;
  spec.dead_rf_entries = 1;
  spec.dead_context_slots = 1;
  const FaultModel a = FaultModel::Random(arch, spec, 42);
  const FaultModel b = FaultModel::Random(arch, spec, 42);
  const FaultModel c = FaultModel::Random(arch, spec, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.dead_cells().size(), 2u);
  EXPECT_EQ(a.dead_links().size(), 3u);
  EXPECT_EQ(a.dead_rf_entries().size(), 1u);
  EXPECT_EQ(a.dead_context_slots().size(), 1u);
  EXPECT_TRUE(a.Validate(arch).ok());
}

// ---- Architecture derating --------------------------------------------------

TEST(WithFaults, DeadCellLosesCapsLinksAndReadability) {
  const Architecture healthy = Adres4x4();
  FaultModel fm;
  fm.KillCell(5);
  const Architecture arch = healthy.WithFaults(fm);

  EXPECT_TRUE(arch.HasFaults());
  EXPECT_FALSE(arch.CellAlive(5));
  EXPECT_TRUE(arch.CellAlive(4));
  EXPECT_FALSE(arch.caps(5).alu);
  EXPECT_EQ(arch.HoldCapacityAt(5), 0);
  EXPECT_EQ(arch.RouteChannelsAt(5), 0);
  EXPECT_TRUE(arch.LinksOut(5).empty());
  for (int c = 0; c < arch.num_cells(); ++c) {
    const auto& outs = arch.LinksOut(c);
    EXPECT_EQ(std::find(outs.begin(), outs.end(), 5), outs.end())
        << "cell " << c << " still links into the dead cell";
    if (c != 5) {
      const auto& readable = arch.ReadableFrom(c);
      EXPECT_EQ(std::find(readable.begin(), readable.end(), 5), readable.end())
          << "cell " << c << " still reads the dead cell";
    }
  }
  // The healthy original is untouched.
  EXPECT_FALSE(healthy.HasFaults());
  EXPECT_TRUE(healthy.caps(5).alu);
}

TEST(WithFaults, DeadLinkIsDirectional) {
  FaultModel fm;
  fm.KillLink(1, 2);
  const Architecture arch = Adres4x4().WithFaults(fm);
  const auto& out1 = arch.LinksOut(1);
  const auto& out2 = arch.LinksOut(2);
  EXPECT_EQ(std::find(out1.begin(), out1.end(), 2), out1.end());
  EXPECT_NE(std::find(out2.begin(), out2.end(), 1), out2.end());
}

TEST(WithFaults, RfEntryFaultDeratesStaticFilePreciselyRotatingWholly) {
  FaultModel fm;
  fm.KillRfEntry(6, 0);

  const Architecture stat = Adres4x4(RfKind::kLocal).WithFaults(fm);
  EXPECT_EQ(stat.HoldCapacityAt(6), stat.HoldCapacity() - 1);
  EXPECT_TRUE(stat.RfEntryFaulted(6, 0));
  EXPECT_FALSE(stat.RfEntryFaulted(6, 1));

  // A rotating file cycles every value through every entry, so one
  // stuck register poisons the whole cell's file.
  const Architecture rot = Adres4x4(RfKind::kRotating).WithFaults(fm);
  EXPECT_EQ(rot.HoldCapacityAt(6), 0);
}

TEST(WithFaults, SuccessiveApplicationsAccumulate) {
  FaultModel first, second;
  first.KillCell(3);
  second.KillCell(12);
  const Architecture arch = Adres4x4().WithFaults(first).WithFaults(second);
  EXPECT_FALSE(arch.CellAlive(3));
  EXPECT_FALSE(arch.CellAlive(12));
  ASSERT_NE(arch.faults(), nullptr);
  EXPECT_EQ(arch.faults()->dead_cells(), (std::vector<int>{3, 12}));
}

// Distances from `source` by a plain BFS over the fabric's LinksOut.
std::vector<int> BfsHops(const Architecture& arch, int source) {
  std::vector<int> dist(static_cast<size_t>(arch.num_cells()), -1);
  std::vector<int> queue{source};
  dist[static_cast<size_t>(source)] = 0;
  for (size_t head = 0; head < queue.size(); ++head) {
    const int v = queue[head];
    for (const int w : arch.LinksOut(v)) {
      if (dist[static_cast<size_t>(w)] < 0) {
        dist[static_cast<size_t>(w)] = dist[static_cast<size_t>(v)] + 1;
        queue.push_back(w);
      }
    }
  }
  return dist;
}

void ExpectHopTableIsBfs(const Architecture& arch, const std::string& where) {
  for (int s = 0; s < arch.num_cells(); ++s) {
    const std::vector<int> dist = BfsHops(arch, s);
    for (int t = 0; t < arch.num_cells(); ++t) {
      ASSERT_EQ(arch.HopDistance(s, t), dist[static_cast<size_t>(t)])
          << where << ": " << s << " -> " << t;
    }
  }
}

void ExpectSameFabric(const Architecture& a, const Architecture& b,
                      const std::string& where) {
  ASSERT_EQ(a.num_cells(), b.num_cells()) << where;
  for (int c = 0; c < a.num_cells(); ++c) {
    const CellCaps& ca = a.caps(c);
    const CellCaps& cb = b.caps(c);
    EXPECT_EQ(std::tie(ca.alu, ca.mul, ca.mem, ca.bank, ca.io),
              std::tie(cb.alu, cb.mul, cb.mem, cb.bank, cb.io))
        << where << ": cell " << c;
    EXPECT_EQ(a.CellAlive(c), b.CellAlive(c)) << where << ": cell " << c;
    EXPECT_EQ(a.HoldCapacityAt(c), b.HoldCapacityAt(c)) << where << ": cell " << c;
    EXPECT_EQ(a.LinksOut(c), b.LinksOut(c)) << where << ": cell " << c;
    EXPECT_EQ(a.ReadableFrom(c), b.ReadableFrom(c)) << where << ": cell " << c;
    for (int t = 0; t < a.num_cells(); ++t) {
      ASSERT_EQ(a.HopDistance(c, t), b.HopDistance(c, t))
          << where << ": " << c << " -> " << t;
    }
  }
  ASSERT_NE(a.faults(), nullptr);
  ASSERT_NE(b.faults(), nullptr);
  EXPECT_EQ(*a.faults(), *b.faults()) << where;
  EXPECT_EQ(a.Digest(), b.Digest()) << where;
}

TEST(WithFaults, HopTableIsBfsOverSurvivingLinks) {
  const Architecture presets[] = {
      Architecture::Small2x2(),   Architecture::Adres4x4(),
      Architecture::Hetero4x4(),  Architecture::Spatial4x4(),
      Architecture::Torus4x4(),   Architecture::Big8x8(),
      Architecture::Mega16x16(),  Architecture::VliwLike4(),
  };
  for (const Architecture& healthy : presets) {
    const std::string name = healthy.params().name;
    ExpectHopTableIsBfs(healthy, name);
    FaultModel::RandomSpec spec;
    spec.dead_cells = std::max(1, healthy.num_cells() / 16);
    spec.dead_links = std::max(1, healthy.num_cells() / 4);
    spec.dead_rf_entries = 2;
    spec.dead_context_slots = 2;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const std::string where = name + " seed " + std::to_string(seed);
      const FaultModel first = FaultModel::Random(healthy, spec, seed);
      const FaultModel second = FaultModel::Random(healthy, spec, seed + 100);
      FaultModel both = first;
      both.Merge(second);
      const Architecture once = healthy.WithFaults(first);
      const Architecture twice = once.WithFaults(second);
      ExpectHopTableIsBfs(once, where + " once");
      ExpectHopTableIsBfs(twice, where + " twice");
      ExpectSameFabric(twice, healthy.WithFaults(both), where);
    }
  }
}

// ---- MRRG pruning -----------------------------------------------------------

TEST(MrrgPruning, FaultedResourcesGetZeroCapacity) {
  FaultModel fm;
  fm.KillCell(5);
  fm.KillContextSlot(7, 1);
  const Architecture healthy = Adres4x4();
  const Architecture arch = healthy.WithFaults(fm);
  const Mrrg pruned(arch);
  const Mrrg full(healthy);

  // Node numbering is stable across derating.
  ASSERT_EQ(pruned.num_nodes(), full.num_nodes());
  EXPECT_EQ(pruned.capacity(pruned.FuNode(5)), 0);
  EXPECT_EQ(pruned.capacity(pruned.RtNode(5)), 0);
  EXPECT_GE(full.capacity(full.FuNode(5)), 1);

  // Context-slot faults gate per-slot usability, not capacity.
  EXPECT_GE(pruned.capacity(pruned.FuNode(7)), 1);
  EXPECT_TRUE(pruned.SlotUsable(pruned.FuNode(7), 0));
  EXPECT_FALSE(pruned.SlotUsable(pruned.FuNode(7), 1));
  EXPECT_FALSE(pruned.SlotUsable(pruned.RtNode(7), 1));
  // The register file keeps values across slots; only FU/RT configure
  // per context word.
  EXPECT_TRUE(pruned.SlotUsable(pruned.HoldNode(7), 1));
}

// ---- mappers avoid faults transparently ------------------------------------

TEST(FaultAvoidance, MapperRoutesAroundDeadCellsAndValidates) {
  FaultModel fm;
  fm.KillCell(5);
  fm.KillCell(6);
  const Architecture arch = Adres4x4().WithFaults(fm);
  const Kernel k = MakeDotProduct(8, 7);

  auto mapper = MakeIterativeModuloScheduler();
  MapperOptions opts;
  opts.deadline = Deadline::AfterSeconds(20);
  const auto m = mapper->Map(k.dfg, arch, opts);
  ASSERT_TRUE(m.ok()) << m.error().message;
  EXPECT_TRUE(ValidateMapping(k.dfg, arch, *m).ok());
  for (const Placement& p : m->place) {
    EXPECT_NE(p.cell, 5);
    EXPECT_NE(p.cell, 6);
  }
  // And the mapping still simulates bit-exactly on the derated fabric.
  const auto match = MappingMatchesReference(k, arch, *m);
  ASSERT_TRUE(match.ok()) << match.error().message;
  EXPECT_TRUE(*match);
}

// ---- simulator-side injection ----------------------------------------------

TEST(SimInjection, DeadPeOnAUsedCellMiscompares) {
  const Architecture arch = Adres4x4();
  const Kernel k = MakeDotProduct(8, 7);
  auto mapper = MakeIterativeModuloScheduler();
  MapperOptions opts;
  opts.deadline = Deadline::AfterSeconds(20);
  const auto m = mapper->Map(k.dfg, arch, opts);
  ASSERT_TRUE(m.ok()) << m.error().message;

  const auto clean = MappingMatchesReference(k, arch, *m);
  ASSERT_TRUE(clean.ok()) << clean.error().message;
  EXPECT_TRUE(*clean);

  int victim = -1;
  for (const Placement& p : m->place) {
    if (p.cell >= 0) {
      victim = p.cell;
      break;
    }
  }
  ASSERT_GE(victim, 0);
  SimFaultPlan plan;
  plan.faults.push_back(SimFault::DeadPe(victim));
  const auto faulty = MappingMatchesReference(k, arch, *m, &plan);
  ASSERT_TRUE(faulty.ok()) << faulty.error().message;
  EXPECT_FALSE(*faulty) << "a dead PE under live work must miscompare";

  // Killing a cell the mapping never touches is invisible.
  int unused = -1;
  for (int c = 0; c < arch.num_cells(); ++c) {
    bool used = false;
    for (const Placement& p : m->place) {
      if (p.cell == c) used = true;
    }
    // Routes may pass through unplaced cells; only claim invisibility
    // when no route step touches the cell either.
    if (!used) {
      for (const Route& r : m->routes) {
        const Mrrg mrrg(arch);
        for (const RouteStep& s : r.steps) {
          if (mrrg.cell(s.node) == c) used = true;
        }
      }
    }
    if (!used) {
      unused = c;
      break;
    }
  }
  if (unused >= 0) {
    SimFaultPlan benign;
    benign.faults.push_back(SimFault::DeadPe(unused));
    const auto still = MappingMatchesReference(k, arch, *m, &benign);
    ASSERT_TRUE(still.ok());
    EXPECT_TRUE(*still);
  }
}

// ---- acceptance sweep: RunWithRepair vs k random dead PEs ------------------

class DeadPeSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(DeadPeSweepTest, RepairedMappingsValidateAndSimulateBitExactly) {
  const int k = GetParam();
  const Architecture healthy = Adres4x4();
  const FaultModel fm = FaultModel::RandomDeadPes(healthy, k, 0xFA17 + k);
  ASSERT_EQ(fm.dead_cells().size(), static_cast<size_t>(k));

  EngineOptions eo;
  eo.deadline = Deadline::AfterSeconds(60);
  const MappingEngine engine(eo);
  int mapped = 0;
  for (const Kernel& kernel : TinyKernelSuite(8, 0xACCE)) {
    const auto r = engine.RunWithRepair(kernel.dfg, healthy, fm,
                                        std::vector<std::string>{"ims", "ultrafast"});
    if (!r.ok()) {
      // Unmappable under this derating is acceptable — but the failure
      // must be a clean aggregate error, never a crash or a bogus code.
      EXPECT_FALSE(r.error().message.empty());
      continue;
    }
    ASSERT_NE(r->arch, nullptr);
    EXPECT_TRUE(ValidateMapping(kernel.dfg, *r->arch, r->result.mapping).ok())
        << kernel.name << " with " << k << " dead PEs";
    for (const Placement& p : r->result.mapping.place) {
      EXPECT_FALSE(fm.CellDead(p.cell));
    }
    const auto match =
        MappingMatchesReference(kernel, *r->arch, r->result.mapping);
    ASSERT_TRUE(match.ok()) << match.error().message;
    EXPECT_TRUE(*match) << kernel.name << " with " << k << " dead PEs";
    ++mapped;
  }
  // A 4x4 fabric down 1..4 PEs still has 12+ live cells; the tiny
  // kernels must not all become unmappable.
  EXPECT_GT(mapped, 0) << "every kernel failed with " << k << " dead PEs";
}

INSTANTIATE_TEST_SUITE_P(KDeadPes, DeadPeSweepTest, ::testing::Range(1, 5));

}  // namespace
}  // namespace cgra
