// The mapper property suite: EVERY mapper's output on EVERY kernel it
// can handle must (a) pass the validator and (b) execute bit-exactly
// on the simulator. This is the §II-C invariant enforced wholesale.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "api/request.hpp"
#include "arch/fault.hpp"
#include "engine/trace.hpp"
#include "ir/kernels.hpp"
#include "mappers/common.hpp"
#include "mappers/mappers.hpp"
#include "mappers/registry.hpp"
#include "mapping/validator.hpp"
#include "sim/harness.hpp"
#include "support/rng.hpp"
#include "support/stop_token.hpp"
#include "support/timer.hpp"

namespace cgra {
namespace {

Architecture Rotating4x4() {
  ArchParams p;
  p.rows = p.cols = 4;
  p.rf_kind = RfKind::kRotating;
  p.name = "rot4x4";
  return Architecture(p);
}

Architecture Rotating2x2() {
  ArchParams p;
  p.rows = p.cols = 2;
  p.rf_kind = RfKind::kRotating;
  p.num_banks = 1;
  p.name = "rot2x2";
  return Architecture(p);
}

bool IsExact(const Mapper& m) {
  return m.technique() == TechniqueClass::kExactIlp ||
         m.technique() == TechniqueClass::kExactCsp;
}

// ---- common helpers ---------------------------------------------------------

// Running out of budget is allowed (exact methods may not finish), but
// only within the 1.5x grace the end-to-end benchmark grants. Returns
// the mapped II, or 0 when nothing was mapped.
int ExpectEndToEnd(const Mapper& mapper, const Kernel& kernel,
                   const Architecture& arch, double budget_seconds = 20.0,
                   MapObserver* observer = nullptr) {
  MapperOptions opts;
  opts.deadline = Deadline::AfterSeconds(budget_seconds);
  opts.observer = observer;
  WallTimer timer;
  const auto r = RunEndToEnd(mapper, kernel, arch, opts);
  if (!r.ok() && r.error().code == Error::Code::kResourceLimit) {
    EXPECT_LE(timer.Seconds(), 1.5 * budget_seconds)
        << mapper.name() << " overran its budget on " << kernel.name;
    return 0;
  }
  EXPECT_TRUE(r.ok()) << mapper.name() << " on " << kernel.name << ": "
                      << r.error().message;
  if (!r.ok()) return 0;
  EXPECT_GE(r->mapping.ii, 1);
  return r->mapping.ii;
}

// ---- per-mapper smoke on the tiny suite ------------------------------------

struct MapperCase {
  std::string name;
};

class EveryMapperTest : public ::testing::TestWithParam<int> {};

TEST_P(EveryMapperTest, TinySuiteEndToEnd) {
  const Mapper& mapper =
      MapperRegistry::Global().at(static_cast<size_t>(GetParam()));
  // Exact temporal mappers get the tiny fabric (their models explode);
  // exact spatial needs one cell per op under direct-adjacency routing,
  // so it gets the 4x4 like the heuristics.
  const bool exact = IsExact(mapper);
  const bool tiny_fabric = exact && mapper.kind() != MappingKind::kSpatial;
  const Architecture arch = tiny_fabric ? Rotating2x2() : Rotating4x4();
  const auto suite = TinyKernelSuite(10, 0xBEEF);
  for (const Kernel& k : suite) {
    // Spatial mappers need one cell per op.
    if (mapper.kind() == MappingKind::kSpatial) {
      int mappable = 0;
      for (const Op& op : k.dfg.ops()) {
        if (!arch.IsFolded(op.opcode)) ++mappable;
      }
      if (mappable > arch.num_cells()) continue;
    }
    MapTrace trace;
    const int ii = ExpectEndToEnd(mapper, k, arch, exact ? 30.0 : 10.0, &trace);
    // A successful Map records an ok attempt row at the II it returned,
    // and every ok row records the tracker work that realised its
    // mapping, whichever path bracketed it.
    bool recorded = false;
    for (const MapTrace::Attempt& a : trace.Attempts()) {
      if (a.ok) {
        EXPECT_GT(a.perf.tracker_checks, 0u)
            << mapper.name() << " on " << k.name << " at II=" << a.ii;
        recorded = recorded || a.ii == ii;
      }
    }
    if (ii > 0) {
      EXPECT_TRUE(recorded) << mapper.name() << " on " << k.name
                            << " mapped at II=" << ii
                            << " without an ok attempt row there";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMappers, EveryMapperTest,
    ::testing::Range(0, static_cast<int>(MapperRegistry::Global().size())),
    [](const ::testing::TestParamInfo<int>& info) {
      std::string name =
          MapperRegistry::Global().at(static_cast<size_t>(info.param)).name();
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---- heuristics on the full suite -------------------------------------------

class HeuristicFullSuiteTest : public ::testing::TestWithParam<int> {};

TEST_P(HeuristicFullSuiteTest, FullSuiteEndToEnd) {
  const auto suite = StandardKernelSuite(16, 0xCAFE);
  const Kernel& k = suite[static_cast<size_t>(GetParam())];
  const Architecture arch = Rotating4x4();
  for (const auto& mapper :
       {MakeIterativeModuloScheduler(), MakeUltraFastScheduler(),
        MakeEdgeCentricMapper(), MakeRampMapper(), MakeCrimsonScheduler(),
        MakeHierarchicalMapper()}) {
    ExpectEndToEnd(*mapper, k, arch, 15.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, HeuristicFullSuiteTest,
                         ::testing::Range(0, 15),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return StandardKernelSuite(4, 0xCAFE)
                               [static_cast<size_t>(info.param)].name;
                         });

// ---- property: random DFGs --------------------------------------------------

TEST(MapperProperty, RandomDfgsValidateAndSimulate) {
  Rng rng(0xD00D);
  const Architecture arch = Rotating4x4();
  auto ims = MakeIterativeModuloScheduler();
  auto ems = MakeEdgeCentricMapper();
  RandomDfgOptions gen;
  gen.num_ops = 10;
  for (int trial = 0; trial < 15; ++trial) {
    Kernel k = MakeRandomKernel(rng, gen, 12);
    k.name = "random" + std::to_string(trial);
    MapperOptions opts;
    opts.deadline = Deadline::AfterSeconds(10);
    for (Mapper* mapper : {ims.get(), ems.get()}) {
      const auto r = RunEndToEnd(*mapper, k, arch, opts);
      ASSERT_TRUE(r.ok()) << mapper->name() << " trial " << trial << ": "
                          << r.error().message;
    }
  }
}

// ---- cross-mapper agreement: exact beats-or-ties heuristics -----------------

TEST(MapperProperty, ExactIiNeverWorseOnTinyKernels) {
  // Branch & bound shares the heuristics' full router, so within its
  // horizon its first feasible II is a true lower bound for IMS.
  // (The SAT/SMT/ILP mappers use restricted routing and may honestly
  // need a higher II than a multi-hop heuristic — that asymmetry is a
  // finding the Table I bench reports, not a bug.)
  const Architecture arch = Rotating2x2();
  auto ims = MakeIterativeModuloScheduler();
  auto bnb = MakeBranchBoundMapper();
  for (const Kernel& k : TinyKernelSuite(8, 0x1D)) {
    MapperOptions opts;
    opts.deadline = Deadline::AfterSeconds(30);
    const auto hr = ims->Map(k.dfg, arch, opts);
    const auto er = bnb->Map(k.dfg, arch, opts);
    if (!hr.ok() || !er.ok()) continue;  // timeouts are fine here
    EXPECT_LE(er->ii, hr->ii)
        << k.name << ": B&B explores exhaustively; IMS cannot beat it";
  }
}

// ---- determinism -------------------------------------------------------------

TEST(MapperProperty, DeterministicForFixedSeed) {
  const Architecture arch = Rotating4x4();
  Kernel k = MakeFir4(8, 3);
  for (const auto& mapper :
       {MakeDrescAnnealingMapper(), MakeCrimsonScheduler(),
        MakeGeneticSpatialMapper()}) {
    MapperOptions opts;
    opts.seed = 42;
    opts.deadline = Deadline::AfterSeconds(20);
    const auto a = mapper->Map(k.dfg, arch, opts);
    const auto b = mapper->Map(k.dfg, arch, opts);
    ASSERT_EQ(a.ok(), b.ok()) << mapper->name();
    if (a.ok()) {
      EXPECT_EQ(a->ii, b->ii) << mapper->name();
      for (size_t i = 0; i < a->place.size(); ++i) {
        EXPECT_EQ(a->place[i].cell, b->place[i].cell) << mapper->name();
        EXPECT_EQ(a->place[i].time, b->place[i].time) << mapper->name();
      }
    }
  }
}

// ---- taxonomy metadata --------------------------------------------------------

TEST(MapperRegistryTest, CoversEveryTableOneCell) {
  const auto& registry = MapperRegistry::Global();
  EXPECT_GE(registry.size(), 20u);
  bool seen[5][4] = {};
  for (const Mapper& m : registry) {
    seen[static_cast<int>(m.technique())][static_cast<int>(m.kind())] = true;
    EXPECT_FALSE(m.name().empty());
    EXPECT_FALSE(m.lineage().empty());
  }
  // Table I's populated cells (see DESIGN.md §3).
  EXPECT_TRUE(seen[0][0]) << "heuristic spatial";
  EXPECT_TRUE(seen[0][1]) << "heuristic temporal";
  EXPECT_TRUE(seen[0][2]) << "heuristic binding";
  EXPECT_TRUE(seen[0][3]) << "heuristic scheduling";
  EXPECT_TRUE(seen[1][0]) << "GA spatial";
  EXPECT_TRUE(seen[1][2]) << "QEA binding";
  EXPECT_TRUE(seen[2][0]) << "SA spatial";
  EXPECT_TRUE(seen[2][1]) << "SA temporal (DRESC)";
  EXPECT_TRUE(seen[2][2]) << "SA binding (SPR)";
  EXPECT_TRUE(seen[3][0]) << "ILP spatial";
  EXPECT_TRUE(seen[3][1]) << "ILP/B&B temporal";
  EXPECT_TRUE(seen[3][2]) << "ILP binding";
  EXPECT_TRUE(seen[3][3]) << "ILP scheduling";
  EXPECT_TRUE(seen[4][1]) << "CSP temporal (CP/SAT/SMT)";
}

TEST(MapperRegistryTest, NamesAreUnique) {
  const auto& registry = MapperRegistry::Global();
  std::set<std::string> names;
  for (const Mapper& m : registry) names.insert(m.name());
  EXPECT_EQ(names.size(), registry.size());
}

TEST(MapperRegistryTest, FindLocatesEveryMapperAndRejectsUnknown) {
  const auto& registry = MapperRegistry::Global();
  for (const Mapper& m : registry) {
    const Mapper* found = registry.Find(m.name());
    ASSERT_NE(found, nullptr) << m.name();
    EXPECT_EQ(found, &m) << "Find must return the shared instance";
  }
  EXPECT_EQ(registry.Find("no-such-mapper"), nullptr);
}

TEST(MapperRegistryTest, ByTechniqueAndByKindPartitionTheCatalogue) {
  const auto& registry = MapperRegistry::Global();
  std::size_t by_technique = 0;
  for (TechniqueClass t :
       {TechniqueClass::kHeuristic, TechniqueClass::kMetaPopulation,
        TechniqueClass::kMetaLocalSearch, TechniqueClass::kExactIlp,
        TechniqueClass::kExactCsp}) {
    for (const Mapper* m : registry.ByTechnique(t)) {
      EXPECT_EQ(m->technique(), t);
      ++by_technique;
    }
  }
  EXPECT_EQ(by_technique, registry.size());

  std::size_t by_kind = 0;
  for (MappingKind k : {MappingKind::kSpatial, MappingKind::kTemporal,
                        MappingKind::kBinding, MappingKind::kScheduling}) {
    for (const Mapper* m : registry.ByKind(k)) {
      EXPECT_EQ(m->kind(), k);
      ++by_kind;
    }
  }
  EXPECT_EQ(by_kind, registry.size());
}

// ---- deadline and stop contract -----------------------------------------------
// Every mapper returns within 1.5x its budget, the grace the end-to-end
// benchmark grants; a budget-bound mapper reports kResourceLimit.

constexpr double kSweepBudget = 0.5;

void ExpectReturnsWithinGrace(const Mapper& mapper, const Kernel& kernel,
                              const Architecture& arch) {
  MapperOptions opts;
  opts.deadline = Deadline::AfterSeconds(kSweepBudget);
  WallTimer timer;
  const auto r = mapper.Map(kernel.dfg, arch, opts);
  const double seconds = timer.Seconds();
  EXPECT_LE(seconds, 1.5 * kSweepBudget)
      << mapper.name() << " on " << kernel.name << "@" << arch.params().name;
  if (!r.ok() && seconds >= kSweepBudget) {
    EXPECT_EQ(r.error().code, Error::Code::kResourceLimit)
        << mapper.name() << ": " << r.error().message;
  }
}

class DeadlineSweep : public ::testing::TestWithParam<int> {};

TEST_P(DeadlineSweep, Big8x8ComplexMul) {
  const Mapper& mapper =
      MapperRegistry::Global().at(static_cast<size_t>(GetParam()));
  const std::optional<Kernel> kernel = api::KernelByName("complex_mul", 32, 1);
  ASSERT_TRUE(kernel.has_value());
  ExpectReturnsWithinGrace(mapper, *kernel, Architecture::Big8x8());
}

INSTANTIATE_TEST_SUITE_P(
    AllMappers, DeadlineSweep,
    ::testing::Range(0, static_cast<int>(MapperRegistry::Global().size())),
    [](const ::testing::TestParamInfo<int>& info) {
      std::string name =
          MapperRegistry::Global().at(static_cast<size_t>(info.param)).name();
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// The largest fabric only for epimap: its embedding search is the one
// that has to notice the deadline (smt overruns it here, ROADMAP item 1).
TEST(DeadlineSweepMega, EpimapOnMega16x16WideDot8) {
  const Mapper* epimap = MapperRegistry::Global().Find("epimap");
  ASSERT_NE(epimap, nullptr);
  const std::optional<Kernel> kernel = api::KernelByName("wide_dot_8", 32, 1);
  ASSERT_TRUE(kernel.has_value());
  ExpectReturnsWithinGrace(*epimap, *kernel, Architecture::Mega16x16());
}

TEST(DeadlineSweepMega, EpimapHonoursStopWithoutDeadline) {
  const Mapper* epimap = MapperRegistry::Global().Find("epimap");
  ASSERT_NE(epimap, nullptr);
  const std::optional<Kernel> kernel = api::KernelByName("wide_dot_8", 32, 1);
  ASSERT_TRUE(kernel.has_value());
  const Architecture arch = Architecture::Mega16x16();
  StopSource source;
  MapperOptions opts;
  opts.stop = source.token();
  std::thread stopper([&source] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    source.RequestStop();
  });
  WallTimer timer;
  const auto r = epimap->Map(kernel->dfg, arch, opts);
  const double seconds = timer.Seconds();
  stopper.join();
  EXPECT_LE(seconds, 0.5);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Error::Code::kResourceLimit) << r.error().message;
}

// ---- annealer incremental cost and blind-route memo --------------------------

void ExpectIncrementalCostHolds(const Architecture& arch, const char* name,
                                int ii) {
  const std::optional<Kernel> kernel = api::KernelByName(name, 32, 1);
  ASSERT_TRUE(kernel.has_value()) << name;
  for (const bool fixed_times : {false, true}) {
    const annealing_internal::CostCheck check =
        annealing_internal::CheckIncrementalCost(kernel->dfg, arch, ii,
                                                 fixed_times, 7, 1500);
    const std::string where = std::string(name) + "@" + arch.params().name +
                              (fixed_times ? " fixed times" : " free times");
    EXPECT_GT(check.cost_checks, 1500) << where;
    EXPECT_EQ(check.cost_mismatches, 0) << where;
    EXPECT_GT(check.route_checks, 0) << where;
    EXPECT_EQ(check.route_mismatches, 0) << where;
  }
}

TEST(AnnealerCost, IncrementalCostAndMemoMatchRecountAdres4x4) {
  const Architecture arch = Architecture::Adres4x4();
  ExpectIncrementalCostHolds(arch, "butterfly", 2);
  ExpectIncrementalCostHolds(arch, "histogram8", 3);
  ExpectIncrementalCostHolds(arch, "fir4", 2);
}

TEST(AnnealerCost, IncrementalCostAndMemoMatchRecountBig8x8) {
  const Architecture arch = Architecture::Big8x8();
  ExpectIncrementalCostHolds(arch, "complex_mul", 3);
  ExpectIncrementalCostHolds(arch, "histogram8", 3);
}

// ---- population mappers' genome memo -----------------------------------------

void ExpectMemoMatchesFreshScores(const Architecture& arch, const char* name,
                                  int ii) {
  const std::optional<Kernel> kernel = api::KernelByName(name, 32, 1);
  ASSERT_TRUE(kernel.has_value()) << name;
  const evolutionary_internal::MemoCheck check =
      evolutionary_internal::CheckGenomeMemo(kernel->dfg, arch, ii, 11, 240);
  const std::string where = std::string(name) + "@" + arch.params().name;
  EXPECT_GT(check.scored, 240) << where;
  EXPECT_GT(check.hits, 60) << where;
  EXPECT_EQ(check.mismatch, "") << where;
}

TEST(GenomeMemo, HitsEqualFreshScores) {
  ExpectMemoMatchesFreshScores(Architecture::Adres4x4(), "complex_mul", 1);
  ExpectMemoMatchesFreshScores(Architecture::Adres4x4(), "gemm_mac", 2);
  const Architecture big = Architecture::Big8x8();
  ExpectMemoMatchesFreshScores(big, "fir4", 1);
  FaultModel::RandomSpec spec;
  spec.dead_cells = 6;
  spec.dead_links = 12;
  ExpectMemoMatchesFreshScores(big.WithFaults(FaultModel::Random(big, spec, 5)),
                               "gemm_mac", 1);
}

// ---- MII bounds ---------------------------------------------------------------

TEST(Mii, RecurrenceBoundFromIir) {
  Kernel k = MakeIir1(8, 1);  // y = 3x + 2*y@1: 2-op recurrence
  const Architecture arch = Rotating4x4();
  const MiiBounds b = ComputeMii(k.dfg, arch, 16);
  EXPECT_GE(b.rec_mii, 2) << "mul+add cycle over distance 1";
}

TEST(Mii, ResourceBoundFromWideKernel) {
  Kernel k = MakeMac2(8, 1);
  ArchParams p;
  p.rows = 1;
  p.cols = 2;
  p.rf_kind = RfKind::kRotating;
  p.io_on_border = true;
  const Architecture arch{p};
  const MiiBounds b = ComputeMii(k.dfg, arch, 16);
  // 8 mappable ops on 2 cells: ResMII >= 4.
  EXPECT_GE(b.res_mii, 4);
}

TEST(Mii, ModuloAsapRespectsCarriedLatency) {
  Kernel k = MakeIir1(8, 1);
  const Architecture arch = Rotating4x4();
  const auto est2 = ModuloAsap(k.dfg, arch, 2);
  ASSERT_FALSE(est2.empty());
  const auto est1 = ModuloAsap(k.dfg, arch, 1);
  EXPECT_TRUE(est1.empty()) << "II=1 infeasible for the 2-cycle recurrence";
}

// (res_mii, rec_mii) of 8 presets × 21 catalog kernels × 200 seeded
// random kernels × max_ii, folded into one FNV-1a hash. The benchmark's
// ii_over_mii divides by these bounds, so any change to either one —
// including the max_ii + 1 answer when no II up to max_ii qualifies —
// shows here. The fabric and kernel lists are spelled out, so a preset
// or kernel added to the catalog leaves the hash alone.
TEST(Mii, GoldenOverPresetsAndKernels) {
  const char* const kFabrics[] = {"small2x2", "adres4x4",  "hetero4x4",
                                  "spatial4x4", "torus4x4", "big8x8",
                                  "mega16x16", "vliw4"};
  const char* const kKernels[] = {
      "dot_product", "vecadd",      "saxpy",      "fir4",
      "iir1",        "mavg3",       "sobel_gx",   "sad",
      "butterfly",   "matvec_row",  "gemm_mac",   "histogram8",
      "relu_scale",  "maxpool_run", "mac2",       "complex_mul",
      "alpha_blend", "dct4",        "wide_dot_4", "wide_dot_8",
      "wide_dot_16"};
  std::vector<Kernel> kernels;
  for (const char* name : kKernels) {
    kernels.push_back(*api::KernelByName(name, 16, 0x5EED));
  }
  Rng rng(0x3117);
  for (int i = 0; i < 200; ++i) {
    RandomDfgOptions o;
    o.num_ops = 3 + i % 18;
    o.carried_fraction = 0.1 + 0.05 * (i % 7);
    o.max_distance = 1 + i % 3;
    o.allow_memory = i % 2 == 1;
    kernels.push_back(MakeRandomKernel(rng, o, 8));
  }
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](int x) {
    h ^= static_cast<std::uint64_t>(static_cast<std::int64_t>(x));
    h *= 1099511628211ull;
  };
  int capped = 0;
  for (const char* fabric : kFabrics) {
    const Architecture arch = *api::FabricByName(fabric);
    for (const Kernel& k : kernels) {
      for (const int max_ii : {0, 1, 2, 3, 4, 8, 16, 32}) {
        const MiiBounds b = ComputeMii(k.dfg, arch, max_ii);
        mix(b.res_mii);
        mix(b.rec_mii);
        if (b.rec_mii == max_ii + 1 && max_ii > 0) ++capped;
      }
    }
  }
  EXPECT_GT(capped, 0) << "no case reached the max_ii + 1 answer";
  EXPECT_EQ(h, 0xa253b22af404dba3ull) << "hash 0x" << std::hex << h;
}

// The recurrence bound on hand-built loop bodies: the least II whose
// modulo schedule exists, or max_ii + 1 when none up to max_ii does.
TEST(RecMii, SelfLoopDistanceOne) {
  // acc = acc@1 + x: latency 1 over distance 1.
  Dfg d;
  const OpId x = d.AddInput(0);
  const OpId acc = d.AddBinary(Opcode::kAdd, Operand{x, 0}, Operand{d.num_ops(), 1});
  d.AddOutput(acc, 0);
  EXPECT_EQ(ComputeMii(d, Architecture::Adres4x4(), 16).rec_mii, 1);
}

TEST(RecMii, TwoOpCycle) {
  // a = x + b@1, b = a * x: cycle latency 2 over distance 1.
  Dfg d;
  const OpId x = d.AddInput(0);
  const OpId a = d.AddBinary(Opcode::kAdd, Operand{x, 0}, Operand{d.num_ops() + 1, 1});
  const OpId b = d.AddBinary(Opcode::kMul, a, x);
  d.AddOutput(b, 0);
  EXPECT_EQ(ComputeMii(d, Architecture::Adres4x4(), 16).rec_mii, 2);
}

TEST(RecMii, InfeasibleCycleReturnsAboveMax) {
  // A five-op cycle over distance 1 needs II 5; allow at most 3.
  Dfg d;
  const OpId x = d.AddInput(0);
  OpId v = d.AddBinary(Opcode::kAdd, Operand{x, 0}, Operand{d.num_ops() + 4, 1});
  for (int i = 0; i < 4; ++i) v = d.AddBinary(Opcode::kAdd, v, x);
  d.AddOutput(v, 0);
  const Architecture arch = Architecture::Adres4x4();
  EXPECT_EQ(ComputeMii(d, arch, 3).rec_mii, 4);
  EXPECT_EQ(ComputeMii(d, arch, 5).rec_mii, 5);
}

// A mapper attempts an II below the recurrence bound only when max_ii
// forces it (a spatial mapper always tries II = 1). The attempt bracket
// then fails that attempt with one message, whichever mapper's search
// it wraps; smt escalates schedule length instead and is left out.
TEST(AttemptBracket, OneRecurrenceErrorForEveryMapper) {
  const Kernel k = MakeIir1(16, 0x5EED);
  const Architecture arch = Architecture::Adres4x4();
  ASSERT_GT(ComputeMii(k.dfg, arch, 16).rec_mii, 1);
  for (const Mapper& mapper : MapperRegistry::Global()) {
    if (mapper.name() == "smt") continue;
    MapTrace trace;
    MapperOptions opts;
    opts.max_ii = 1;
    opts.observer = &trace;
    EXPECT_FALSE(mapper.Map(k.dfg, arch, opts).ok()) << mapper.name();
    const std::vector<MapTrace::Attempt> attempts = trace.Attempts();
    ASSERT_EQ(attempts.size(), 1u) << mapper.name();
    EXPECT_EQ(attempts[0].ii, 1) << mapper.name();
    EXPECT_EQ(attempts[0].error_code, "unmappable") << mapper.name();
    EXPECT_EQ(attempts[0].message, "recurrences infeasible at II=1")
        << mapper.name();
  }
}

// An exact mapper's "no mapping" holds only inside the horizon its model
// spans. sat proves vecadd unmappable at II = 1 on adres4x4; the attempt
// must say within how many cycles: max ASAP + min(3, II) + 1.
TEST(ExactMappers, SatInfeasibilityNamesItsHorizon) {
  const Kernel k = MakeVecAdd(16, 0x5EED);
  const Architecture arch = Architecture::Adres4x4();
  const std::vector<int> asap = ModuloAsap(k.dfg, arch, 1);
  ASSERT_FALSE(asap.empty());
  const int horizon = *std::max_element(asap.begin(), asap.end()) + 2;
  MapTrace trace;
  MapperOptions opts;
  opts.observer = &trace;
  const auto m = MapperRegistry::Global().Find("sat")->Map(k.dfg, arch, opts);
  ASSERT_TRUE(m.ok()) << m.error().message;
  const std::vector<MapTrace::Attempt> attempts = trace.Attempts();
  ASSERT_GE(attempts.size(), 2u);
  EXPECT_EQ(attempts[0].ii, 1);
  EXPECT_FALSE(attempts[0].ok);
  EXPECT_EQ(attempts[0].error_code, "unmappable");
  const std::string bound =
      "no mapping at II=1 within a " + std::to_string(horizon) + "-cycle horizon";
  EXPECT_NE(attempts[0].message.find(bound), std::string::npos)
      << attempts[0].message;
}

// A deadline that stops ilp-spatial is a budget stop, whether it lands
// in the ILP solve or in the realization of the solved cells: fir4 on
// hetero4x4 solves its ILP in a few branch-and-bound nodes and then
// realizes until the deadline.
TEST(ExactMappers, IlpSpatialReportsADeadlineStopAsResourceLimit) {
  const Kernel k = MakeFir4(16, 0x5EED);
  const Architecture arch = Architecture::Hetero4x4();
  MapperOptions opts;
  opts.deadline = Deadline::AfterSeconds(0.3);
  const auto m = MapperRegistry::Global().Find("ilp-spatial")->Map(k.dfg, arch, opts);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.error().code, Error::Code::kResourceLimit) << m.error().message;
}

}  // namespace
}  // namespace cgra
