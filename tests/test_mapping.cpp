// Tests for the mapping core: resource tracker, time-extended router,
// incremental place-and-route, validator, stats.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arch/arch.hpp"
#include "arch/fault.hpp"
#include "arch/mrrg.hpp"
#include "ir/kernels.hpp"
#include "mappers/registry.hpp"
#include "mapping/mapping.hpp"
#include "mapping/perf.hpp"
#include "mapping/place_route.hpp"
#include "mapping/router.hpp"
#include "mapping/tracker.hpp"
#include "mapping/validator.hpp"
#include "support/rng.hpp"

namespace cgra {
namespace {

TEST(Tracker, CapacityEnforced) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker t(mrrg, /*ii=*/2);
  const int fu = mrrg.FuNode(0);  // capacity 1
  EXPECT_TRUE(t.CanOccupy(fu, 0, /*value=*/10));
  t.Occupy(fu, 0, 10);
  EXPECT_FALSE(t.CanOccupy(fu, 0, 11));
  EXPECT_FALSE(t.CanOccupy(fu, 2, 11)) << "slot 0 == slot 2 mod II";
  EXPECT_TRUE(t.CanOccupy(fu, 1, 11));
}

TEST(Tracker, SameValueSameTimeShares) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker t(mrrg, 2);
  const int h = mrrg.HoldNode(0);
  t.Occupy(h, 3, 7);
  // Re-occupying (same value, same absolute time) is free net sharing.
  EXPECT_TRUE(t.CanOccupy(h, 3, 7));
  // Same value at a DIFFERENT time mapping to the same slot is a new
  // copy (modulo self-overlap) and consumes capacity.
  for (int k = 0; k < arch.HoldCapacity() - 1; ++k) {
    t.Occupy(h, 3 + 2 * (k + 1), 7);
  }
  EXPECT_FALSE(t.CanOccupy(h, 3 + 2 * arch.HoldCapacity(), 7));
}

TEST(Tracker, RefCountedRelease) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker t(mrrg, 1);
  const int h = mrrg.HoldNode(0);
  t.Occupy(h, 0, 5);
  t.Occupy(h, 0, 5);  // second reference (net sharing)
  t.Release(h, 0, 5);
  EXPECT_EQ(t.Load(h, 0), 1) << "still referenced once";
  t.Release(h, 0, 5);
  EXPECT_EQ(t.Load(h, 0), 0);
}

TEST(Router, DirectNeighbourOneCycle) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker t(mrrg, 2);
  RouteRequest req;
  req.from_cell = arch.CellAt(0, 0);
  req.from_time = 0;
  req.to_cell = arch.CellAt(0, 1);
  req.to_time = 1;
  req.value = 0;
  const auto route = RouteValue(mrrg, t, req);
  ASSERT_TRUE(route.ok()) << route.error().message;
  // One step: the value sits in the producer's hold, read directly.
  ASSERT_EQ(route->steps.size(), 1u);
  EXPECT_EQ(route->steps[0].node, mrrg.HoldNode(req.from_cell));
  EXPECT_EQ(route->steps[0].time, 1);
}

TEST(Router, WaitsInRegisterForLateConsumer) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker t(mrrg, 8);
  RouteRequest req;
  req.from_cell = 0;
  req.from_time = 0;
  req.to_cell = 0;
  req.to_time = 4;
  req.value = 0;
  const auto route = RouteValue(mrrg, t, req);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route->steps.size(), 4u) << "held cycles 1..4";
  for (const auto& s : route->steps) {
    EXPECT_EQ(s.node, mrrg.HoldNode(0));
  }
}

TEST(Router, MultiHopThroughRoutingChannels) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker t(mrrg, 8);
  RouteRequest req;
  req.from_cell = arch.CellAt(0, 0);
  req.from_time = 0;
  req.to_cell = arch.CellAt(0, 3);  // 3 hops away; reader covers 1 hop
  req.to_time = 3;
  req.value = 1;
  const auto route = RouteValue(mrrg, t, req);
  ASSERT_TRUE(route.ok()) << route.error().message;
  // Needs at least 2 routed hops to reach a hold adjacent to (0,3).
  int rts = 0;
  for (const auto& s : route->steps) {
    if (mrrg.kind(s.node) == Mrrg::Kind::kRt) ++rts;
  }
  EXPECT_GE(rts, 2);
}

TEST(Router, ImpossibleLatencyFails) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker t(mrrg, 2);
  RouteRequest req;
  req.from_cell = 0;
  req.from_time = 3;
  req.to_cell = 1;
  req.to_time = 3;  // same cycle: latency 0 < 1
  req.value = 0;
  EXPECT_FALSE(RouteValue(mrrg, t, req).ok());
}

TEST(Router, TooFarForDeadlineFails) {
  const Architecture arch = Architecture::Big8x8();
  const Mrrg mrrg(arch);
  ResourceTracker t(mrrg, 4);
  RouteRequest req;
  req.from_cell = arch.CellAt(0, 0);
  req.from_time = 0;
  req.to_cell = arch.CellAt(7, 7);  // 14 hops
  req.to_time = 2;                  // only 2 cycles
  req.value = 0;
  EXPECT_FALSE(RouteValue(mrrg, t, req).ok());
}

TEST(Router, CongestionForcesDetourOrFailure) {
  // Saturate the single route channel of the intermediate cell, then
  // ask for a 2-hop route in exactly 2 cycles at II=1.
  ArchParams p;
  p.rows = 1;
  p.cols = 3;
  p.route_channels = 1;
  p.rf_size = 4;
  const Architecture arch{p};
  const Mrrg mrrg(arch);
  ResourceTracker t(mrrg, 1);
  // Block RT of the middle cell at slot 0 with a foreign value.
  t.Occupy(mrrg.RtNode(1), 0, /*value=*/99);
  RouteRequest req;
  req.from_cell = 0;
  req.from_time = 0;
  req.to_cell = 2;
  req.to_time = 2;
  req.value = 1;
  // In a 1x3 row the only 2-cycle path crosses RT(1): must fail.
  EXPECT_FALSE(RouteValue(mrrg, t, req).ok());
}

TEST(Router, ReleaseRouteRestoresCapacity) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker t(mrrg, 1);
  RouteRequest req;
  req.from_cell = 0;
  req.from_time = 0;
  req.to_cell = 1;
  req.to_time = 1;
  req.value = 3;
  const auto route = RouteValue(mrrg, t, req);
  ASSERT_TRUE(route.ok());
  ReleaseRoute(t, *route, 3);
  EXPECT_EQ(t.Load(mrrg.HoldNode(0), 0), 0);
}

TEST(PlaceRoute, PlacesChainAndFinalizes) {
  Kernel k = MakeVecAdd(4, 1);
  const Architecture arch = Architecture::Adres4x4();
  PlaceRouteState state(k.dfg, arch, /*ii=*/1);
  // vecadd: a(in), b(in), sum, out. At II=1 every op needs its own
  // cell; sum sits between its producers so both holds are readable.
  ASSERT_EQ(state.MappableOps().size(), 4u);
  EXPECT_TRUE(state.TryPlace(0, arch.CellAt(0, 1), 0));
  EXPECT_TRUE(state.TryPlace(1, arch.CellAt(1, 0), 0));
  EXPECT_TRUE(state.TryPlace(2, arch.CellAt(1, 1), 1)) << "reads both holds";
  // The output op needs a border (I/O) cell: two routed hops away.
  EXPECT_TRUE(state.TryPlace(3, arch.CellAt(3, 1), 3));
  const Mapping m = state.Finalize();
  EXPECT_TRUE(ValidateMapping(k.dfg, arch, m).ok());
  EXPECT_EQ(m.length, 4);
}

TEST(PlaceRoute, FuConflictRejected) {
  Kernel k = MakeVecAdd(4, 1);
  const Architecture arch = Architecture::Adres4x4();
  PlaceRouteState state(k.dfg, arch, 2);
  ASSERT_TRUE(state.TryPlace(0, 0, 0));
  EXPECT_FALSE(state.TryPlace(1, 0, 2)) << "same cell, same slot mod II";
  EXPECT_EQ(state.last_fail(), PlaceRouteState::FailReason::kFuBusy);
}

TEST(PlaceRoute, IncompatibleCellRejected) {
  Kernel k = MakeGemmMac(4, 1);  // has loads/stores
  const Architecture arch = Architecture::Hetero4x4();
  PlaceRouteState state(k.dfg, arch, 2);
  // Op 1 is a load; column 1 has no memory.
  EXPECT_FALSE(state.TryPlace(1, arch.CellAt(0, 1), 0));
  EXPECT_EQ(state.last_fail(), PlaceRouteState::FailReason::kIncompatibleCell);
}

TEST(PlaceRoute, TimingViolationRejectedAndRolledBack) {
  Kernel k = MakeVecAdd(4, 1);
  const Architecture arch = Architecture::Adres4x4();
  PlaceRouteState state(k.dfg, arch, 4);
  ASSERT_TRUE(state.TryPlace(0, 0, 2));
  // Consumer (op 2, sum) before producer: must fail and roll back.
  EXPECT_FALSE(state.TryPlace(2, 1, 1));
  EXPECT_FALSE(state.IsPlaced(2));
  EXPECT_EQ(state.placed_count(), 1);
  // And succeed at a legal time.
  EXPECT_TRUE(state.TryPlace(1, 4, 2));
  EXPECT_TRUE(state.TryPlace(2, 0, 3));
}

// Every (node, slot) load of `a` equals that of `b`.
void ExpectSameLoads(const Mrrg& mrrg, const ResourceTracker& a,
                     const ResourceTracker& b) {
  for (int n = 0; n < mrrg.num_nodes(); ++n) {
    for (int s = 0; s < a.ii(); ++s) {
      ASSERT_EQ(a.Load(n, s), b.Load(n, s)) << "node " << n << " slot " << s;
    }
  }
}

TEST(PlaceRoute, FailedPlacementLeavesTrackerAsIfNeverTried) {
  // Two placements whose first edge routes and whose second cannot:
  // `a` on cell 1 fans out to `b` on the adjacent cell 5 and to `c` on
  // the far corner cell 15, both one cycle later; `d = b + c` on cell 5
  // reads `b` in place but cannot reach `c` in one cycle. Each failed
  // placement must leave the tracker exactly as a state that never
  // tried it.
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg& mrrg = arch.mrrg();
  Dfg dfg;
  const OpId a = dfg.AddInput(0, "a");
  const OpId b = dfg.AddUnary(Opcode::kNeg, a, "b");
  const OpId c = dfg.AddUnary(Opcode::kNeg, a, "c");
  const OpId d = dfg.AddBinary(Opcode::kAdd, b, c, "d");
  const int ii = 4;
  PlaceRouteState tried(dfg, arch, ii);
  PlaceRouteState untried(dfg, arch, ii);
  for (PlaceRouteState* state : {&tried, &untried}) {
    ASSERT_TRUE(state->TryPlace(b, 5, 1));
    ASSERT_TRUE(state->TryPlace(c, 15, 1));
  }
  const PerfCounters before = ThreadPerfCounters();
  EXPECT_FALSE(tried.TryPlace(a, 1, 0));
  EXPECT_FALSE(tried.TryPlace(d, 5, 2));
  const PerfCounters spent = ThreadPerfCounters() - before;
  EXPECT_EQ(spent.router_queries, 4u);
  EXPECT_EQ(spent.router_routed, 2u);  // each try's first edge routed
  EXPECT_EQ(tried.last_fail(), PlaceRouteState::FailReason::kRouteCongested);
  EXPECT_EQ(tried.placed_count(), 2);
  ExpectSameLoads(mrrg, tried.tracker(), untried.tracker());

  // Both states still accept the same placements and end up alike.
  for (PlaceRouteState* state : {&tried, &untried}) {
    state->Unplace(c);
    ASSERT_TRUE(state->TryPlace(c, 2, 1));
    ASSERT_TRUE(state->TryPlace(a, 1, 0));
    ASSERT_TRUE(state->TryPlace(d, 6, 2));
  }
  ExpectSameLoads(mrrg, tried.tracker(), untried.tracker());
}

TEST(PlaceRoute, UnplaceRestoresEverything) {
  Kernel k = MakeDotProduct(4, 1);
  const Architecture arch = Architecture::Adres4x4();
  PlaceRouteState state(k.dfg, arch, 1);
  ASSERT_TRUE(state.TryPlace(0, arch.CellAt(0, 0), 0));
  ASSERT_TRUE(state.TryPlace(1, arch.CellAt(0, 2), 0));
  ASSERT_TRUE(state.TryPlace(2, arch.CellAt(0, 1), 1));  // mul reads both
  state.Unplace(2);
  EXPECT_EQ(state.placed_count(), 2);
  // Re-placing at the same spot must succeed (resources were freed).
  EXPECT_TRUE(state.TryPlace(2, arch.CellAt(0, 1), 1));
}

// ByAffinity against a scan of every DFG edge: random partial
// placements of random kernels (self-loops, carried and duplicate
// edges included) on fabrics where a hop distance can be -1.
TEST(PlaceRoute, ByAffinityMatchesEdgeScan) {
  const Architecture adres = Architecture::Adres4x4();
  const Architecture big = Architecture::Big8x8();
  FaultModel::RandomSpec spec;
  spec.dead_cells = 6;
  spec.dead_links = 40;
  const Architecture faulted = big.WithFaults(FaultModel::Random(big, spec, 3));
  int unreachable = 0;
  for (int a = 0; a < faulted.num_cells(); ++a) {
    for (int b = 0; b < faulted.num_cells(); ++b) {
      if (faulted.HopDistance(a, b) < 0) ++unreachable;
    }
  }
  ASSERT_GT(unreachable, 0) << "the faulted fabric should split some pairs";

  Rng rng(0xAFF1);
  int checks = 0, placed_neighbours = 0;
  for (const Architecture* arch : {&adres, &big, &faulted}) {
    for (int trial = 0; trial < 12; ++trial) {
      RandomDfgOptions o;
      o.num_ops = 6 + trial;
      o.carried_fraction = 0.3;
      const Kernel k = MakeRandomKernel(rng, o, 8);
      const Dfg& dfg = k.dfg;
      const std::vector<DfgEdge> edges = dfg.Edges();
      PlaceRouteState state(dfg, *arch, 2);
      std::vector<int> all(static_cast<size_t>(arch->num_cells()));
      for (int c = 0; c < arch->num_cells(); ++c) all[static_cast<size_t>(c)] = c;
      for (const OpId op : state.MappableOps()) {
        for (int tries = 0; tries < 4 && !state.IsPlaced(op); ++tries) {
          const int cell = static_cast<int>(rng.NextIndex(all.size()));
          state.TryPlace(op, cell, static_cast<int>(rng.NextIndex(8)));
        }
      }
      for (const OpId op : state.MappableOps()) {
        std::vector<int> cells = all;
        rng.Shuffle(cells);
        std::vector<long long> sum(static_cast<size_t>(arch->num_cells()), 0);
        for (const DfgEdge& e : edges) {
          OpId other = kNoOp;
          if (e.from == op && e.to != op) other = e.to;
          if (e.to == op && e.from != op) other = e.from;
          if (other == kNoOp || !state.IsPlaced(other)) continue;
          ++placed_neighbours;
          for (int c = 0; c < arch->num_cells(); ++c) {
            sum[static_cast<size_t>(c)] +=
                arch->HopDistance(c, state.placement(other).cell);
          }
        }
        std::vector<int> expected = cells;
        std::stable_sort(expected.begin(), expected.end(), [&](int a, int b) {
          return sum[static_cast<size_t>(a)] < sum[static_cast<size_t>(b)];
        });
        EXPECT_EQ(state.ByAffinity(op, cells), expected)
            << arch->params().name << " trial " << trial << " op " << op;
        ++checks;
      }
    }
  }
  EXPECT_GT(checks, 300);
  EXPECT_GT(placed_neighbours, 300);
}

TEST(PlaceRoute, BankPortsEnforced) {
  Kernel k = MakeGemmMac(4, 1);  // 3 loads + 1 store
  ArchParams p;
  p.rows = 4;
  p.cols = 4;
  p.num_banks = 1;
  p.bank_ports = 1;
  p.mem_on_left_col = true;
  const Architecture arch{p};
  PlaceRouteState state(k.dfg, arch, /*ii=*/1);
  // Two memory ops in the same slot on bank 0: second must fail.
  ASSERT_TRUE(state.TryPlace(1, arch.CellAt(0, 0), 0));   // load A
  EXPECT_FALSE(state.TryPlace(2, arch.CellAt(1, 0), 0));  // load B same slot
  EXPECT_EQ(state.last_fail(), PlaceRouteState::FailReason::kBankPortConflict);
}

TEST(Validator, RejectsCorruptedMappings) {
  Kernel k = MakeVecAdd(4, 1);
  const Architecture arch = Architecture::Adres4x4();
  PlaceRouteState state(k.dfg, arch, 1);
  ASSERT_TRUE(state.TryPlace(0, arch.CellAt(0, 1), 0));
  ASSERT_TRUE(state.TryPlace(1, arch.CellAt(1, 0), 0));
  ASSERT_TRUE(state.TryPlace(2, arch.CellAt(1, 1), 1));
  ASSERT_TRUE(state.TryPlace(3, arch.CellAt(3, 1), 3));
  Mapping good = state.Finalize();
  ASSERT_TRUE(ValidateMapping(k.dfg, arch, good).ok());

  {
    Mapping bad = good;  // move an op off its route
    bad.place[2].cell = arch.CellAt(3, 3);
    EXPECT_FALSE(ValidateMapping(k.dfg, arch, bad).ok());
  }
  {
    Mapping bad = good;  // break a route step
    for (auto& r : bad.routes) {
      if (!r.steps.empty()) {
        r.steps.back().time += 1;
        break;
      }
    }
    EXPECT_FALSE(ValidateMapping(k.dfg, arch, bad).ok());
  }
  {
    Mapping bad = good;  // II beyond config memory
    bad.ii = arch.MaxIi() + 1;
    EXPECT_FALSE(ValidateMapping(k.dfg, arch, bad).ok());
  }
  {
    Mapping bad = good;  // drop a route entirely
    for (auto& r : bad.routes) r.steps.clear();
    EXPECT_FALSE(ValidateMapping(k.dfg, arch, bad).ok());
  }
}

TEST(Validator, CatchesFuDoubleBooking) {
  Kernel k = MakeVecAdd(4, 1);
  const Architecture arch = Architecture::Adres4x4();
  PlaceRouteState state(k.dfg, arch, 2);
  ASSERT_TRUE(state.TryPlace(0, arch.CellAt(0, 1), 0));
  ASSERT_TRUE(state.TryPlace(1, arch.CellAt(1, 0), 0));
  ASSERT_TRUE(state.TryPlace(2, arch.CellAt(1, 1), 1));
  ASSERT_TRUE(state.TryPlace(3, arch.CellAt(3, 1), 3));
  Mapping bad = state.Finalize();
  bad.place[1] = bad.place[0];  // two inputs on one (cell, slot)
  EXPECT_FALSE(ValidateMapping(k.dfg, arch, bad).ok());
}

// ---- the validator's diagnostic corpus --------------------------------------
// ims maps two kernels on each of the 8 presets and on one faulted
// big8x8. Every valid mapping then meets seeded corruptions (an op moved
// to an incompatible or faulted cell, two ops in one slot, two memory
// ops on one bank in one slot, a shifted or cut route step) and the
// fabrics it does not fit: one with a single
// register per file, one with fewer route channels or bank ports than
// the fabric it was mapped on, and, for big8x8, the faulted copy.

struct ValidationCase {
  const Dfg* dfg;
  const Architecture* arch;
  Mapping mapping;
};

struct ValidatorCorpus {
  std::deque<Kernel> kernels;
  std::deque<Architecture> archs;
  std::vector<ValidationCase> cases;
};

std::optional<Mapping> MapWithIms(const Dfg& dfg, const Architecture& arch) {
  MapperOptions mo;
  mo.seed = 1;
  mo.deadline = Deadline::AfterSeconds(10);
  const Result<Mapping> r = MapperRegistry::Global().Find("ims")->Map(dfg, arch, mo);
  if (!r.ok()) return std::nullopt;
  return *r;
}

std::vector<OpId> PlacedOps(const Dfg& dfg, const Mapping& m) {
  std::vector<OpId> ops;
  for (OpId op = 0; op < dfg.num_ops(); ++op) {
    if (m.place[static_cast<size_t>(op)].cell >= 0) ops.push_back(op);
  }
  return ops;
}

/// One seeded corruption of a valid mapping.
Mapping Corrupt(const Dfg& dfg, const Architecture& arch, const Mapping& good,
                Rng& rng) {
  Mapping m = good;
  const std::vector<OpId> ops = PlacedOps(dfg, m);
  std::vector<size_t> routed;
  for (size_t e = 0; e < m.routes.size(); ++e) {
    if (!m.routes[e].steps.empty()) routed.push_back(e);
  }
  const int kind = static_cast<int>(rng.NextIndex(5));
  if (kind == 4) {
    // A memory op moved next to another one on the same bank, in the
    // same slot, so the bank needs one port more than it has.
    std::vector<OpId> mem;
    for (const OpId op : ops) {
      if (IsMemoryOp(dfg.op(op).opcode)) mem.push_back(op);
    }
    if (mem.size() >= 2) {
      const OpId a = mem[rng.NextIndex(mem.size())];
      OpId b = mem[rng.NextIndex(mem.size() - 1)];
      if (b == a) b = mem.back();
      const Placement pa = m.place[static_cast<size_t>(a)];
      std::vector<int> cells;
      for (int c = 0; c < arch.num_cells(); ++c) {
        if (c != pa.cell && arch.caps(c).bank == arch.caps(pa.cell).bank &&
            arch.CellAlive(c) && arch.CanExecute(c, dfg.op(b))) {
          cells.push_back(c);
        }
      }
      if (!cells.empty()) {
        m.place[static_cast<size_t>(b)] = {cells[rng.NextIndex(cells.size())],
                                           pa.time};
        return m;
      }
    }
  }
  if (kind == 0 || (kind >= 2 && kind < 4 && routed.empty())) {
    // An op on a cell that cannot host it, else on any other cell.
    const OpId op = ops[rng.NextIndex(ops.size())];
    std::vector<int> bad;
    for (int c = 0; c < arch.num_cells(); ++c) {
      if (!arch.CellAlive(c) || !arch.CanExecute(c, dfg.op(op))) bad.push_back(c);
    }
    Placement& p = m.place[static_cast<size_t>(op)];
    p.cell = bad.empty() ? (p.cell + 1 + static_cast<int>(rng.NextIndex(
                                             static_cast<size_t>(arch.num_cells() - 1)))) %
                               arch.num_cells()
                         : bad[rng.NextIndex(bad.size())];
  } else if (kind == 1 || kind == 4) {
    // Two ops in one (cell, slot).
    const OpId a = ops[rng.NextIndex(ops.size())];
    const OpId b = ops[rng.NextIndex(ops.size())];
    m.place[static_cast<size_t>(b)].cell = m.place[static_cast<size_t>(a)].cell;
    if (a == b) m.place[static_cast<size_t>(b)].time += m.ii;
    else m.place[static_cast<size_t>(b)].time = m.place[static_cast<size_t>(a)].time;
  } else if (kind == 2) {
    // A step shifted in time or moved to another node.
    std::vector<RouteStep>& steps = m.routes[routed[rng.NextIndex(routed.size())]].steps;
    RouteStep& s = steps[rng.NextIndex(steps.size())];
    if (rng.NextBool()) {
      s.time += rng.NextBool() ? 1 : -1;
    } else {
      s.node = (s.node + 1) % Mrrg(arch).num_nodes();
    }
  } else {
    // A step cut out of the route.
    std::vector<RouteStep>& steps = m.routes[routed[rng.NextIndex(routed.size())]].steps;
    steps.erase(steps.begin() + static_cast<std::ptrdiff_t>(rng.NextIndex(steps.size())));
  }
  return m;
}

ValidatorCorpus BuildValidatorCorpus() {
  ValidatorCorpus c;
  FaultModel faults;
  for (const int cell : {9, 18, 27, 36}) faults.KillCell(cell);
  faults.KillContextSlot(10, 1);
  faults.KillContextSlot(20, 0);
  c.archs = {Architecture::Small2x2(), Architecture::Adres4x4(),
             Architecture::Hetero4x4(), Architecture::Spatial4x4(),
             Architecture::Torus4x4(),  Architecture::Big8x8(),
             Architecture::Mega16x16(), Architecture::VliwLike4(),
             Architecture::Big8x8().WithFaults(faults)};
  const size_t num_fabrics = c.archs.size();
  const Architecture* healthy_big = &c.archs[5];
  const Architecture* faulted_big = &c.archs[8];
  c.kernels = {MakeGemmMac(8, 1), MakeVecAdd(8, 1), MakeFir4(8, 1),
               MakeSad(8, 1), MakeDotProduct(8, 1)};
  // A variant of `base` with different capacities, carrying its faults.
  const auto variant = [&](const Architecture& base, auto&& edit) {
    ArchParams p = base.params();
    edit(p);
    Architecture a(p);
    if (base.faults()) a = a.WithFaults(*base.faults());
    c.archs.push_back(std::move(a));
    return &c.archs.back();
  };
  for (size_t f = 0; f < num_fabrics; ++f) {
    const Architecture* arch = &c.archs[f];
    const Architecture* one_register =
        variant(*arch, [](ArchParams& p) { p.rf_size = 1; });
    const Architecture* roomy = variant(*arch, [](ArchParams& p) {
      if (p.route_channels > 0) p.route_channels = 2;
      p.bank_ports = 2;
    });
    int mapped = 0;
    for (size_t k = 0; k < c.kernels.size() && mapped < 2; ++k) {
      const Dfg* dfg = &c.kernels[k].dfg;
      const std::optional<Mapping> good = MapWithIms(*dfg, *arch);
      if (!good) continue;
      ++mapped;
      c.cases.push_back({dfg, arch, *good});
      Rng rng(0xD1A6 + 97 * f + k);
      for (int i = 0; i < 24; ++i) {
        c.cases.push_back({dfg, arch, Corrupt(*dfg, *arch, *good, rng)});
      }
      c.cases.push_back({dfg, one_register, *good});
      if (arch == healthy_big) c.cases.push_back({dfg, faulted_big, *good});
      // Mapped where each channel and bank port is doubled, checked
      // where it is not.
      if (const std::optional<Mapping> wide = MapWithIms(*dfg, *roomy)) {
        c.cases.push_back({dfg, arch, *wide});
      }
    }
    EXPECT_EQ(mapped, 2) << arch->params().name;
  }
  return c;
}

// (ok, message) of every corpus case, folded into one FNV-1a hash. The
// first diagnostic is part of the validator's contract: a rewrite must
// reject the same mappings with the same words, naming the same op,
// cell, node and slot.
TEST(Validator, GoldenDiagnostics) {
  const ValidatorCorpus corpus = BuildValidatorCorpus();
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::string_view bytes) {
    for (const char ch : bytes) {
      h ^= static_cast<std::uint8_t>(ch);
      h *= 1099511628211ull;
    }
    h ^= 0xff;
    h *= 1099511628211ull;
  };
  int ok = 0, fu = 0, bank = 0, hold = 0, channel = 0, faulted = 0, route = 0;
  for (const ValidationCase& v : corpus.cases) {
    const Status s = ValidateMapping(*v.dfg, *v.arch, v.mapping);
    mix(s.ok() ? "ok" : s.error().message);
    if (s.ok()) {
      ++ok;
      continue;
    }
    const std::string& msg = s.error().message;
    if (msg.find("share cell") != std::string::npos) ++fu;
    if (msg.find("bank ") == 0) ++bank;
    if (msg.find("register file of cell") == 0) ++hold;
    if (msg.find("route channel of cell") == 0) ++channel;
    if (msg.find("faulted") != std::string::npos) ++faulted;
    if (msg.find("route step") != std::string::npos) ++route;
  }
  // Every diagnostic family the corpus is meant to reach shows up.
  EXPECT_GE(ok, 18);
  EXPECT_GE(fu, 1);
  EXPECT_GE(bank, 1);
  EXPECT_GE(hold, 1);
  EXPECT_GE(channel, 1);
  EXPECT_GE(faulted, 1);
  EXPECT_GE(route, 1);
  EXPECT_EQ(corpus.cases.size(), 488u);
  EXPECT_EQ(h, 0x302d9cdec5e23ba3ull) << std::hex << h;
}

TEST(Stats, ComputedFromMapping) {
  Kernel k = MakeVecAdd(4, 1);
  const Architecture arch = Architecture::Adres4x4();
  PlaceRouteState state(k.dfg, arch, 1);
  ASSERT_TRUE(state.TryPlace(0, arch.CellAt(0, 1), 0));
  ASSERT_TRUE(state.TryPlace(1, arch.CellAt(1, 0), 0));
  ASSERT_TRUE(state.TryPlace(2, arch.CellAt(1, 1), 1));
  ASSERT_TRUE(state.TryPlace(3, arch.CellAt(3, 1), 3));
  const Mapping m = state.Finalize();
  const MappingStats s = ComputeStats(k.dfg, arch, m);
  EXPECT_EQ(s.ii, 1);
  EXPECT_EQ(s.ops_mapped, 4);
  EXPECT_EQ(s.cells_used, 4);
  EXPECT_GT(s.route_steps, 0);
  EXPECT_GT(s.energy_proxy, 0);
  const std::string table = RenderSchedule(k.dfg, arch, m);
  EXPECT_NE(table.find("sum"), std::string::npos);
}

}  // namespace
}  // namespace cgra
