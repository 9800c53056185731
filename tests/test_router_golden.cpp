// Golden and property tests for the flat-state routing hot path.
//
// The router and tracker were rewritten from per-query hash maps to
// epoch-stamped flat arenas (see docs/PERF.md). These tests pin the
// rewrite down from three directions:
//   * golden digests — a deterministic query stream and the full
//     deterministic-mapper portfolio must reproduce, bit for bit, the
//     routes the pre-rewrite Dijkstra router produced (the hex
//     constants below were captured from the last hash-map build);
//   * arena epochs — scratch reuse across queries, II escalation, and
//     uint32 epoch wrap-around must never leak a stale best/parent
//     entry into a later query;
//   * feasibility — a query whose window is shorter than the hop
//     distance to every goal fails without searching, and with
//     capacities ignored a query routes exactly when plain reachability
//     over (node, time) says it can;
//   * tracker properties — the inline-block + spill storage must agree
//     with a naive reference model under random occupy/release traffic,
//     including fault-gated SlotUsable and >kInlineOccupants spilling.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "api/request.hpp"
#include "arch/arch.hpp"
#include "arch/fault.hpp"
#include "arch/mrrg.hpp"
#include "engine/trace.hpp"
#include "ir/kernels.hpp"
#include "mappers/registry.hpp"
#include "mapping/mapping.hpp"
#include "mapping/perf.hpp"
#include "mapping/router.hpp"
#include "mapping/tracker.hpp"
#include "support/rng.hpp"
#include "telemetry/search_log.hpp"

namespace cgra {
namespace {

// ---- digest helpers ---------------------------------------------------------
// FNV-1a 64-bit. MUST stay in sync with the copy in bench/perf_suite.cpp
// (the golden constants below were produced with exactly this hash).

std::uint64_t HashU64(std::uint64_t h, std::uint64_t x) {
  h ^= x;
  h *= 1099511628211ull;
  return h;
}

std::uint64_t RouteDigest(const Route& r) {
  std::uint64_t h = 1469598103934665603ull;
  h = HashU64(h, static_cast<std::uint64_t>(r.steps.size()));
  for (const RouteStep& s : r.steps) {
    h = HashU64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(s.node)));
    h = HashU64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(s.time)));
  }
  return h;
}

std::uint64_t MappingDigest(const Mapping& m) {
  std::uint64_t h = 1469598103934665603ull;
  h = HashU64(h, static_cast<std::uint64_t>(m.ii));
  h = HashU64(h, static_cast<std::uint64_t>(m.length));
  for (const Placement& p : m.place) {
    h = HashU64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(p.cell)));
    h = HashU64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(p.time)));
  }
  for (const Route& r : m.routes) {
    h = HashU64(h, static_cast<std::uint64_t>(r.steps.size()));
    for (const RouteStep& s : r.steps) {
      h = HashU64(h,
                  static_cast<std::uint64_t>(static_cast<std::int64_t>(s.node)));
      h = HashU64(h,
                  static_cast<std::uint64_t>(static_cast<std::int64_t>(s.time)));
    }
  }
  return h;
}

// The deterministic query stream of the router microbenchmark. MUST
// stay in sync with the copy in bench/perf_suite.cpp — the golden
// digests pin this exact stream.
std::uint64_t RouterMicroDigest(const Architecture& arch, int ii, int rounds,
                                bool ignore_capacity, long long* routed_out) {
  const Mrrg mrrg(arch);
  ResourceTracker tracker(mrrg, ii);
  Rng rng(0xC0FFEEull + static_cast<unsigned>(ii));
  RouterOptions opts;
  opts.ignore_capacity = ignore_capacity;
  std::uint64_t digest = 1469598103934665603ull;
  long long routed = 0;
  std::vector<std::pair<Route, ValueId>> held;
  for (int r = 0; r < rounds; ++r) {
    if ((r & 63) == 0 && !ignore_capacity) {
      tracker.Reset();
      held.clear();
    }
    RouteRequest req;
    req.from_cell =
        static_cast<int>(rng.NextIndex(static_cast<size_t>(arch.num_cells())));
    req.to_cell =
        static_cast<int>(rng.NextIndex(static_cast<size_t>(arch.num_cells())));
    req.from_time = static_cast<int>(rng.NextIndex(static_cast<size_t>(ii)));
    const int hops = arch.HopDistance(req.from_cell, req.to_cell);
    req.to_time =
        req.from_time + 1 + hops + static_cast<int>(rng.NextIndex(4));
    req.value = static_cast<ValueId>(r & 1023);
    auto route = RouteValue(mrrg, tracker, req, opts);
    if (route.ok()) {
      ++routed;
      digest = HashU64(digest, RouteDigest(*route));
      if (!ignore_capacity) {
        if (rng.NextBool(0.5)) {
          held.emplace_back(std::move(route).value(), req.value);
        } else {
          ReleaseRoute(tracker, *route, req.value);
        }
      }
    }
  }
  if (routed_out) *routed_out = routed;
  return digest;
}

// ---- golden route streams ---------------------------------------------------
// Captured from the pre-rewrite hash-map router (same seeds, same
// stream). The flat-arena router must reproduce them exactly.

TEST(RouterGolden, MicroStreamAdres4x4Ii2) {
  long long routed = 0;
  EXPECT_EQ(RouterMicroDigest(Architecture::Adres4x4(), 2, 40000, false,
                              &routed),
            0x1ab5b88775a449b5ull);
  EXPECT_EQ(routed, 21527);
}

TEST(RouterGolden, MicroStreamAdres4x4Ii4) {
  long long routed = 0;
  EXPECT_EQ(RouterMicroDigest(Architecture::Adres4x4(), 4, 40000, false,
                              &routed),
            0x89e27976f1b18e19ull);
  EXPECT_EQ(routed, 32857);
}

TEST(RouterGolden, MicroStreamBig8x8Ii2) {
  long long routed = 0;
  EXPECT_EQ(RouterMicroDigest(Architecture::Big8x8(), 2, 20000, false,
                              &routed),
            0x803482dff50a7fabull);
  EXPECT_EQ(routed, 12761);
}

TEST(RouterGolden, MicroStreamBlindMode) {
  // DRESC-style capacity-blind negotiation (tracker never consulted).
  long long routed = 0;
  EXPECT_EQ(RouterMicroDigest(Architecture::Adres4x4(), 4, 20000, true,
                              &routed),
            0x9a0d91c2993dba24ull);
  EXPECT_EQ(routed, 20000);
}

// ---- golden mapper digests --------------------------------------------------
// Full portfolio of deterministic(-for-a-fixed-seed) mappers over the
// tiny kernel suite, captured from the pre-rewrite build. Changing the
// router's tie-breaking, the tracker's admission order, or a mapper's
// RNG consumption will show up here.

struct MapperGolden {
  const char* mapper;
  const char* kernel;
  std::uint64_t digest;
};

void CheckMapperGoldens(const Architecture& arch,
                        const std::vector<MapperGolden>& goldens) {
  const auto kernels = TinyKernelSuite();
  auto find_kernel = [&](const std::string& name) -> const Kernel* {
    for (const Kernel& k : kernels) {
      if (k.name == name) return &k;
    }
    return nullptr;
  };
  for (const MapperGolden& g : goldens) {
    const Mapper* mapper = MapperRegistry::Global().Find(g.mapper);
    ASSERT_NE(mapper, nullptr) << g.mapper;
    const Kernel* kernel = find_kernel(g.kernel);
    ASSERT_NE(kernel, nullptr) << g.kernel;
    MapperOptions opts;
    opts.seed = 42;
    auto m = mapper->Map(kernel->dfg, arch, opts);
    ASSERT_TRUE(m.ok()) << g.mapper << "/" << g.kernel << ": "
                        << m.error().message;
    EXPECT_EQ(MappingDigest(*m), g.digest) << g.mapper << "/" << g.kernel;
  }
}

TEST(RouterGolden, DeterministicMappersAdres4x4) {
  CheckMapperGoldens(
      Architecture::Adres4x4(),
      {
          {"greedy-spatial", "vecadd", 0xaa13142054cba1a1ull},
          {"greedy-spatial", "dot_product", 0x19f6fed0bd502f81ull},
          {"greedy-spatial", "saxpy", 0x4ccfa267edb70cd0ull},
          {"greedy-spatial", "relu_scale", 0x017842f28f0ba080ull},
          {"greedy-spatial", "butterfly", 0x8aff3b014d31c486ull},
          {"ims", "vecadd", 0xaa13142054cba1a1ull},
          {"ims", "dot_product", 0x19f6fed0bd502f81ull},
          {"ims", "butterfly", 0xca95338201e8dd19ull},
          {"ems", "saxpy", 0x4ccfa267edb70cd0ull},
          {"ems", "relu_scale", 0x017842f28f0ba080ull},
          {"ems", "butterfly", 0xca95338201e8dd19ull},
          {"ultrafast", "vecadd", 0xaa13142054cba1a1ull},
          {"ultrafast", "butterfly", 0x8aff3b014d31c486ull},
          {"bwd-beam", "vecadd", 0xfec592eae9db89f6ull},
          {"bwd-beam", "dot_product", 0x6de163890d92d4fbull},
          {"bwd-beam", "butterfly", 0xb8dad123f040fa78ull},
          {"epimap", "vecadd", 0x5b988e9814d31826ull},
          {"epimap", "saxpy", 0x9cfba73708768408ull},
          {"dresc-sa", "vecadd", 0x0f30ee283d69d58aull},
          {"dresc-sa", "dot_product", 0x7f96901013b516f2ull},
          {"crimson", "vecadd", 0x8d3dba1a913af0faull},
          {"crimson", "relu_scale", 0xd457f9b5dfab8096ull},
          {"spr-sa", "vecadd", 0xce61433ed9df8b8bull},
          {"spr-sa", "dot_product", 0x99f200b4977d3123ull},
          {"spr-sa", "saxpy", 0xd7cbfd4bd5422dcdull},
          {"spr-sa", "relu_scale", 0x7f4c82a7e6e64f0dull},
          {"spr-sa", "butterfly", 0x6cca02b15b32dd1cull},
          {"sa-spatial", "vecadd", 0x0f30ee283d69d58aull},
          {"sa-spatial", "dot_product", 0x7f96901013b516f2ull},
          {"sa-spatial", "saxpy", 0x6d38cb8fed22c96full},
          {"sa-spatial", "relu_scale", 0x58e33b97b928a331ull},
          {"sa-spatial", "butterfly", 0xc13b788406c0cc40ull},
      });
}

TEST(RouterGolden, DeterministicMappersHetero4x4) {
  CheckMapperGoldens(
      Architecture::Hetero4x4(),
      {
          {"greedy-spatial", "relu_scale", 0x4d46798f02000907ull},
          {"greedy-spatial", "butterfly", 0x8aff3b014d31c486ull},
          {"ims", "saxpy", 0x4ccfa267edb70cd0ull},
          {"ems", "dot_product", 0x19f6fed0bd502f81ull},
          {"ultrafast", "relu_scale", 0x4d46798f02000907ull},
          {"bwd-beam", "saxpy", 0x2b545bacb8c03e13ull},
          {"epimap", "dot_product", 0xfe05cc5d17fa2ccdull},
          {"dresc-sa", "butterfly", 0x8d7ebfda42e5c74dull},
          {"crimson", "saxpy", 0xadbfc8b8bbadd24bull},
          {"spr-sa", "vecadd", 0xce61433ed9df8b8bull},
          {"spr-sa", "dot_product", 0x2bc6a0ddffdbfce5ull},
          {"spr-sa", "saxpy", 0xc1494ea5a12bbc2bull},
          {"spr-sa", "relu_scale", 0x05e306511ff65d6dull},
          {"spr-sa", "butterfly", 0x73e4ef2d9c02429eull},
          {"sa-spatial", "vecadd", 0x0f30ee283d69d58aull},
          {"sa-spatial", "dot_product", 0xb778773b90067644ull},
          {"sa-spatial", "saxpy", 0x159c4792d6f8ebbcull},
          {"sa-spatial", "relu_scale", 0x21aab3b67c518faeull},
      });
}

// ---- golden exact-mapper digests --------------------------------------------
// The ILP, SAT, SMT, CP and B&B mappers on small (kernel, fabric) pairs
// where each search finishes in milliseconds without a deadline, so the
// digests depend only on the solvers' pivot and branching order. Captured
// from the dense-elimination simplex and linear-scan SAT branching; the
// bnb rows were captured before the exact mappers shared one depth-first
// realizer (bnb backtracks on complex_mul: 199 evictions on adres4x4).

struct ExactGolden {
  const char* mapper;
  const char* kernel;
  const char* fabric;
  std::uint64_t digest;
};

TEST(RouterGolden, DeterministicExactMappers) {
  const ExactGolden goldens[] = {
      {"ilp-spatial", "dot_product", "adres4x4", 0xc258bcd9456e3bbeull},
      {"ilp-spatial", "vecadd", "adres4x4", 0x4d74dfdec2fbda73ull},
      {"ilp-bind", "dot_product", "adres4x4", 0x347e10141405dc47ull},
      {"ilp-bind", "vecadd", "adres4x4", 0x8244142ec78a1bf2ull},
      {"ilp-temporal", "saxpy", "small2x2", 0x04ae04144de49650ull},
      {"ilp-temporal", "dot_product", "small2x2", 0xe64cd030a8506065ull},
      {"ilp-sched", "saxpy", "adres4x4", 0x3525a7c22369b913ull},
      {"ilp-sched", "fir4", "adres4x4", 0xed9b00b8ccc666e2ull},
      {"sat", "vecadd", "adres4x4", 0xeee2ea01a4997ae1ull},
      {"sat", "fir4", "adres4x4", 0xd1742a4b2eddc05bull},
      {"smt", "dot_product", "adres4x4", 0xd268dec9c1cd239dull},
      {"smt", "fir4", "adres4x4", 0x6b7f7bf12f57cbdeull},
      {"cp", "vecadd", "adres4x4", 0xe40151329706bbdfull},
      {"cp", "fir4", "adres4x4", 0x710987b2c7c6e828ull},
      {"bnb", "fir4", "adres4x4", 0xae00114e3dc92b2aull},
      {"bnb", "complex_mul", "adres4x4", 0x7a1544e69a2817d7ull},
      {"bnb", "histogram8", "small2x2", 0xb2a8f3d8f5ac94a3ull},
  };
  for (const ExactGolden& g : goldens) {
    const Mapper* mapper = MapperRegistry::Global().Find(g.mapper);
    ASSERT_NE(mapper, nullptr) << g.mapper;
    const std::optional<Architecture> arch = api::FabricByName(g.fabric);
    ASSERT_TRUE(arch.has_value()) << g.fabric;
    const std::optional<Kernel> kernel = api::KernelByName(g.kernel, 16, 0x5EED);
    ASSERT_TRUE(kernel.has_value()) << g.kernel;
    MapperOptions opts;
    opts.seed = 42;
    auto m = mapper->Map(kernel->dfg, *arch, opts);
    ASSERT_TRUE(m.ok()) << g.mapper << "/" << g.kernel << "/" << g.fabric
                        << ": " << m.error().message;
    EXPECT_EQ(MappingDigest(*m), g.digest)
        << g.mapper << "/" << g.kernel << "/" << g.fabric << ": digest 0x"
        << std::hex << MappingDigest(*m);
  }
}

// ---- golden exact search effort ---------------------------------------------
// One hash per exact mapper over every II attempt of three (kernel,
// fabric) cases: the attempt's II, verdict and error code, every
// PerfCounters field and its SearchLog JSON, then the mapping digest (0
// when none). A search that tries its choices in another order, or a
// model whose variables are numbered in another order, moves the solver
// steps, the router and tracker counters or the search log even where
// the mapping stays the same; rows or clauses added in another order
// move nothing this short (see SatEffortOnALongProof). Every case
// finishes far inside its budget with no deadline set, and no wall time
// or message is hashed. Each mapper fails at least one II attempt where
// a small case shows one (bnb backtracks instead: it fails none here).
// Captured before the exact mappers shared one placement space and one
// depth-first realizer.

std::uint64_t HashString(std::uint64_t h, const std::string& s) {
  for (const char c : s) h = HashU64(h, static_cast<unsigned char>(c));
  return HashU64(h, s.size());
}

// Folds one Map call's attempts and mapping digest into `h`, adding the
// attempts' placement evictions to `evictions`.
std::uint64_t HashSearchEffort(std::uint64_t h, const Mapper& mapper,
                               const char* kernel_name, const char* fabric,
                               std::uint64_t& evictions) {
  const std::optional<Architecture> arch = api::FabricByName(fabric);
  const std::optional<Kernel> kernel = api::KernelByName(kernel_name, 16, 0x5EED);
  EXPECT_TRUE(arch.has_value() && kernel.has_value()) << kernel_name << "/" << fabric;
  if (!arch || !kernel) return h;
  const telemetry::SearchDetail detail = telemetry::GetSearchDetail();
  telemetry::SetSearchDetail(telemetry::SearchDetail::kCounters);
  // The arena counters count from a fresh router arena.
  router_internal::ResetScratchForTest();
  MapTrace trace;
  MapperOptions opts;
  opts.seed = 42;
  opts.observer = &trace;
  const auto m = mapper.Map(kernel->dfg, *arch, opts);
  telemetry::SetSearchDetail(detail);
  for (const MapTrace::Attempt& a : trace.Attempts()) {
    h = HashU64(h, static_cast<std::uint64_t>(a.ii));
    h = HashU64(h, a.ok ? 1 : 0);
    h = HashString(h, a.error_code);
    for (const PerfCounterField& f : kPerfCounterFields) {
      h = HashU64(h, a.perf.*f.member);
    }
    h = HashString(h, a.search != nullptr ? a.search->ToJson() : "");
    if (a.search != nullptr) evictions += a.search->place_evictions;
  }
  return HashU64(h, m.ok() ? MappingDigest(*m) : 0);
}

TEST(MapperGolden, ExactSearchEffort) {
  struct Case {
    const char* kernel;
    const char* fabric;
  };
  struct EffortGolden {
    const char* mapper;
    std::vector<Case> cases;
    std::uint64_t hash;
  };
  const EffortGolden goldens[] = {
      // ILP infeasible on small2x2; the realization backtracks on butterfly.
      {"ilp-spatial",
       {{"saxpy", "small2x2"}, {"dot_product", "adres4x4"},
        {"butterfly", "adres4x4"}},
       0x25b27099eb546af4ull},
      {"ilp-temporal",
       {{"vecadd", "small2x2"}, {"saxpy", "small2x2"}, {"iir1", "small2x2"}},
       0x5971f1ae25e7c5c9ull},
      {"ilp-bind",
       {{"vecadd", "small2x2"}, {"fir4", "small2x2"}, {"saxpy", "adres4x4"}},
       0x93912c784b957ddfull},
      // The fixed-time binder exhausts vecadd's II = 1 and spends its
      // node budget on complex_mul's II = 2 and 3.
      {"ilp-sched",
       {{"vecadd", "adres4x4"}, {"butterfly", "adres4x4"},
        {"complex_mul", "adres4x4"}},
       0x471fe1082a1d9e08ull},
      {"bnb",
       {{"complex_mul", "adres4x4"}, {"histogram8", "small2x2"},
        {"fir4", "adres4x4"}},
       0x872ce3f02c0d70c7ull},
      // SAT proves II = 1 infeasible for vecadd and fir4 on adres4x4.
      {"sat",
       {{"vecadd", "adres4x4"}, {"fir4", "adres4x4"}, {"dot_product", "small2x2"}},
       0xaa7680deab42e2f6ull},
      {"cp",
       {{"vecadd", "adres4x4"}, {"fir4", "adres4x4"}, {"saxpy", "small2x2"}},
       0x0ac243a320d8f393ull},
      {"smt",
       {{"complex_mul", "hetero4x4"}, {"dot_product", "adres4x4"},
        {"fir4", "adres4x4"}},
       0xcb1f819c3a9be1b9ull},
  };
  for (const EffortGolden& g : goldens) {
    const Mapper* mapper = MapperRegistry::Global().Find(g.mapper);
    ASSERT_NE(mapper, nullptr) << g.mapper;
    std::uint64_t h = 1469598103934665603ull;
    std::uint64_t evictions = 0;
    for (const Case& c : g.cases) {
      h = HashSearchEffort(h, *mapper, c.kernel, c.fabric, evictions);
    }
    EXPECT_EQ(h, g.hash) << g.mapper << ": effort 0x" << std::hex << h;
    if (std::string(g.mapper) == "bnb") {
      EXPECT_GT(evictions, 0u) << "bnb must backtrack in one of its cases";
    }
  }
}

// The CDCL search above is short: no small case's conflicts move when
// the dependence clauses are added in another order. sat on complex_mul
// and hetero4x4 proves II = 1 and II = 2 infeasible (6990 conflicts at
// II = 2) before it maps at II = 3; that proof does move. Captured
// before the exact mappers shared one placement space.
TEST(MapperGolden, SatEffortOnALongProof) {
  const Mapper* sat = MapperRegistry::Global().Find("sat");
  ASSERT_NE(sat, nullptr);
  std::uint64_t evictions = 0;
  const std::uint64_t h = HashSearchEffort(1469598103934665603ull, *sat,
                                           "complex_mul", "hetero4x4", evictions);
  EXPECT_EQ(h, 0x4e0f3243f663eb18ull) << "effort 0x" << std::hex << h;
}

// ---- golden heuristic search effort -----------------------------------------
// ExactSearchEffort's hash for each of the 15 heuristic and meta-heuristic
// mappers, over three (kernel, fabric) cases each that need no deadline:
// iir1 is recurrence-bound (its MII is 2, so escalation starts above II =
// 1 and every spatial mapper fails its one II = 1 attempt), and each
// mapper fails at least one attempt where a small case shows one.
// graph-drawing runs only kernels its II = 1 schedule admits. Captured
// before the attempt bracket computed each attempt's modulo schedule.
TEST(MapperGolden, HeuristicSearchEffort) {
  struct Case {
    const char* kernel;
    const char* fabric;
  };
  struct EffortGolden {
    const char* mapper;
    std::vector<Case> cases;
    std::uint64_t hash;
  };
  const EffortGolden goldens[] = {
      {"greedy-spatial",
       {{"iir1", "adres4x4"}, {"fir4", "adres4x4"}, {"saxpy", "small2x2"}},
       0x2fe176c3b7dffcdcull},
      {"graph-drawing",
       {{"fir4", "adres4x4"}, {"complex_mul", "adres4x4"},
        {"butterfly", "hetero4x4"}},
       0x00bec64c3e59244full},
      {"ims",
       {{"iir1", "adres4x4"}, {"histogram8", "small2x2"},
        {"complex_mul", "adres4x4"}},
       0x9b29473a059e6682ull},
      {"ultrafast",
       {{"iir1", "small2x2"}, {"mac2", "small2x2"}, {"complex_mul", "adres4x4"}},
       0x042e08e740c77795ull},
      {"ems",
       {{"iir1", "hetero4x4"}, {"histogram8", "small2x2"},
        {"complex_mul", "hetero4x4"}},
       0x7b67882ddfd6d49full},
      {"ramp",
       {{"iir1", "adres4x4"}, {"histogram8", "small2x2"},
        {"complex_mul", "adres4x4"}},
       0x599c2cf9efdda63aull},
      {"epimap",
       {{"iir1", "adres4x4"}, {"fir4", "small2x2"}, {"complex_mul", "hetero4x4"}},
       0x92afba257439f740ull},
      {"bwd-beam",
       {{"iir1", "adres4x4"}, {"vecadd", "small2x2"},
        {"complex_mul", "adres4x4"}},
       0x618dcb803411d0ecull},
      {"crimson",
       {{"iir1", "hetero4x4"}, {"gemm_mac", "spatial4x4"},
        {"butterfly", "adres4x4"}},
       0xc2d064bf5ba31e48ull},
      // adres4x4 is large enough for himap's quadrant split.
      {"himap",
       {{"iir1", "adres4x4"}, {"histogram8", "small2x2"},
        {"complex_mul", "adres4x4"}},
       0x26476e3a46e00b01ull},
      {"sa-spatial",
       {{"iir1", "adres4x4"}, {"fir4", "adres4x4"}, {"complex_mul", "adres4x4"}},
       0xaf8c45a6ba8989aeull},
      {"dresc-sa",
       {{"iir1", "adres4x4"}, {"histogram8", "small2x2"},
        {"complex_mul", "adres4x4"}},
       0x5205f121665bcd76ull},
      {"spr-sa",
       {{"iir1", "adres4x4"}, {"fir4", "small2x2"}, {"mac2", "adres4x4"}},
       0xd192cd2f5aaa67f1ull},
      {"ga-spatial",
       {{"iir1", "adres4x4"}, {"butterfly", "hetero4x4"}, {"saxpy", "small2x2"}},
       0xe5ac08ba6c2ecd4cull},
      {"qea-bind",
       {{"iir1", "adres4x4"}, {"histogram8", "small2x2"},
        {"complex_mul", "adres4x4"}},
       0xf014b0478c58c0e5ull},
  };
  for (const EffortGolden& g : goldens) {
    const Mapper* mapper = MapperRegistry::Global().Find(g.mapper);
    ASSERT_NE(mapper, nullptr) << g.mapper;
    std::uint64_t h = 1469598103934665603ull;
    std::uint64_t evictions = 0;
    for (const Case& c : g.cases) {
      h = HashSearchEffort(h, *mapper, c.kernel, c.fabric, evictions);
    }
    EXPECT_EQ(h, g.hash) << g.mapper << ": effort 0x" << std::hex << h;
  }
}

// ---- golden big8x8 digests --------------------------------------------------
// epimap's embedding search and the annealers' blind-route memo do the
// most work on the larger fabric. Captured with the McGregor common-
// subgraph binder and the re-route-every-move annealer; each search
// finishes well inside epimap's per-bind cap, so the digests depend on
// the search order alone.

TEST(RouterGolden, DeterministicMappersBig8x8) {
  const ExactGolden goldens[] = {
      {"epimap", "fir4", "big8x8", 0xc3b1536bb1863ae7ull},
      {"epimap", "gemm_mac", "big8x8", 0x9a6ae4fda2bf735eull},
      {"epimap", "alpha_blend", "big8x8", 0x3b4cc74b2b974fe5ull},
      {"dresc-sa", "complex_mul", "big8x8", 0xd76036e1f9f266e4ull},
      {"dresc-sa", "mavg3", "big8x8", 0xf09cef38aba606fdull},
      {"dresc-sa", "histogram8", "big8x8", 0x6595a34756fd4fb0ull},
  };
  for (const ExactGolden& g : goldens) {
    const Mapper* mapper = MapperRegistry::Global().Find(g.mapper);
    ASSERT_NE(mapper, nullptr) << g.mapper;
    const std::optional<Architecture> arch = api::FabricByName(g.fabric);
    ASSERT_TRUE(arch.has_value()) << g.fabric;
    const std::optional<Kernel> kernel = api::KernelByName(g.kernel, 16, 0x5EED);
    ASSERT_TRUE(kernel.has_value()) << g.kernel;
    MapperOptions opts;
    opts.seed = 42;
    auto m = mapper->Map(kernel->dfg, *arch, opts);
    ASSERT_TRUE(m.ok()) << g.mapper << "/" << g.kernel << ": "
                        << m.error().message;
    EXPECT_EQ(MappingDigest(*m), g.digest) << g.mapper << "/" << g.kernel;
  }
}

// ---- golden population-mapper digests and cost curves -----------------------
// ga-spatial and qea-bind score one genome per individual. Each attempt's
// cost curve records every generation's best fitness, so a genome scored
// wrongly moves the curve even when the final mapping stays the same.
// Captured before genome scores were memoised per II.

std::uint64_t CurveDigest(const MapTrace& trace) {
  std::uint64_t h = 1469598103934665603ull;
  for (const MapTrace::Attempt& a : trace.Attempts()) {
    h = HashU64(h, static_cast<std::uint64_t>(a.ii));
    if (a.search == nullptr) continue;
    h = HashU64(h, static_cast<std::uint64_t>(a.search->curve.size()));
    for (const telemetry::SearchLog::CostSample& s : a.search->curve) {
      h = HashU64(h, static_cast<std::uint64_t>(s.iteration));
      h = HashU64(h, std::bit_cast<std::uint64_t>(s.cost));
    }
  }
  return h;
}

TEST(RouterGolden, DeterministicPopulationMappers) {
  struct PopulationGolden {
    const char* mapper;
    const char* kernel;
    const char* fabric;
    std::uint64_t digest;  ///< 0: no mapping (generations exhausted)
    std::uint64_t curve;
  };
  const PopulationGolden goldens[] = {
      {"qea-bind", "complex_mul", "adres4x4", 0xac5a38ede47405acull,
       0x98e9588b173ed5ccull},
      {"qea-bind", "dct4", "adres4x4", 0xa40e411db4cf7745ull,
       0xcdda2acad92b4402ull},
      {"qea-bind", "sobel_gx", "hetero4x4", 0x669d5950eae7486cull,
       0xc4f47d36dbe38e9full},
      {"ga-spatial", "fir4", "adres4x4", 0x3710463e77eb6dfbull,
       0x22dfed5e86d1ee62ull},
      {"ga-spatial", "butterfly", "hetero4x4", 0x971a5ffd46925c42ull,
       0x4fbfe88bdc6b385cull},
      {"ga-spatial", "dct4", "adres4x4", 0x0ull,
       0x3232908175edab9eull},
  };
  for (const PopulationGolden& g : goldens) {
    const std::string where =
        std::string(g.mapper) + "/" + g.kernel + "/" + g.fabric;
    const Mapper* mapper = MapperRegistry::Global().Find(g.mapper);
    ASSERT_NE(mapper, nullptr) << g.mapper;
    const std::optional<Architecture> arch = api::FabricByName(g.fabric);
    ASSERT_TRUE(arch.has_value()) << g.fabric;
    const std::optional<Kernel> kernel = api::KernelByName(g.kernel, 16, 0x5EED);
    ASSERT_TRUE(kernel.has_value()) << g.kernel;
    MapTrace trace;
    MapperOptions opts;
    opts.seed = 42;
    opts.observer = &trace;
    auto m = mapper->Map(kernel->dfg, *arch, opts);
    const std::uint64_t curve = CurveDigest(trace);
    EXPECT_EQ(curve, g.curve) << where << ": curve 0x" << std::hex << curve;
    if (g.digest == 0) {
      EXPECT_FALSE(m.ok()) << where;
      continue;
    }
    ASSERT_TRUE(m.ok()) << where << ": " << m.error().message;
    EXPECT_EQ(MappingDigest(*m), g.digest)
        << where << ": digest 0x" << std::hex << MappingDigest(*m);
  }
}

// ---- golden digests for paths the goldens above do not reach ----------------
// epimap's route-node transform with its projection back onto the
// original DFG, RAMP's route-insertion projection, graph-drawing, and
// himap's quadrant split. Captured before the pinned realizations, the
// affinity order and the schedule order each got one shared copy.

std::uint64_t MapDigest(const char* mapper, const Dfg& dfg,
                        const Architecture& arch) {
  const Mapper* m = MapperRegistry::Global().Find(mapper);
  if (m == nullptr) return 0;
  MapperOptions opts;
  opts.seed = 42;
  const auto r = m->Map(dfg, arch, opts);
  return r.ok() ? MappingDigest(*r) : 0;
}

TEST(MapperGolden, EpimapTransformPath) {
  // Each of these inserts a route node and projects back; each binds in
  // milliseconds, far inside epimap's per-bind cap.
  const ExactGolden goldens[] = {
      {"epimap", "complex_mul", "adres4x4", 0x31dd5bfc2446142aull},
      {"epimap", "dct4", "adres4x4", 0x44c25d6abc421384ull},
      {"epimap", "complex_mul", "hetero4x4", 0x06ab2e85bfcc9990ull},
  };
  for (const ExactGolden& g : goldens) {
    const std::optional<Architecture> arch = api::FabricByName(g.fabric);
    ASSERT_TRUE(arch.has_value()) << g.fabric;
    const std::optional<Kernel> kernel = api::KernelByName(g.kernel, 16, 0x5EED);
    ASSERT_TRUE(kernel.has_value()) << g.kernel;
    const std::uint64_t digest = MapDigest(g.mapper, kernel->dfg, *arch);
    EXPECT_EQ(digest, g.digest) << g.mapper << "/" << g.kernel << "/" << g.fabric
                                << ": digest 0x" << std::hex << digest;
  }
}

TEST(MapperGolden, RampRouteInsertionProjection) {
  // No catalog kernel reaches RAMP's third strategy; this random stream
  // does (on adres4x4 at i = 4, 41, 47 and 76). One hash over the first
  // 100 kernels per fabric, 0 standing for an unmapped kernel.
  const std::pair<const char*, std::uint64_t> goldens[] = {
      {"adres4x4", 0xeef55b53e848be9cull},
      {"hetero4x4", 0x83b7ff01b92ef874ull},
  };
  for (const auto& [fabric, golden] : goldens) {
    const std::optional<Architecture> arch = api::FabricByName(fabric);
    ASSERT_TRUE(arch.has_value()) << fabric;
    Rng rng(99);
    std::uint64_t h = 1469598103934665603ull;
    for (int i = 0; i < 100; ++i) {
      const Kernel k = MakeRandomKernel(rng, RandomDfgOptions{}, 6 + i % 14);
      h = HashU64(h, MapDigest("ramp", k.dfg, *arch));
    }
    EXPECT_EQ(h, golden) << "ramp stream on " << fabric << ": 0x" << std::hex
                         << h;
  }
}

TEST(MapperGolden, GraphDrawingAndHimap) {
  const ExactGolden goldens[] = {
      {"graph-drawing", "vecadd", "adres4x4", 0xf40fd8a3909f64a9ull},
      {"graph-drawing", "saxpy", "adres4x4", 0xafa3f90e26dd4221ull},
      {"graph-drawing", "butterfly", "hetero4x4", 0xe385e0cebf19ec9cull},
      // big8x8 makes himap split the DFG over quadrant regions.
      {"himap", "complex_mul", "big8x8", 0xa797028f1a06e1faull},
      {"himap", "fir4", "big8x8", 0xae96e5701fa4e9b1ull},
      {"himap", "dct4", "big8x8", 0x406fd3d55ee84b03ull},
  };
  for (const ExactGolden& g : goldens) {
    const std::optional<Architecture> arch = api::FabricByName(g.fabric);
    ASSERT_TRUE(arch.has_value()) << g.fabric;
    const std::optional<Kernel> kernel = api::KernelByName(g.kernel, 16, 0x5EED);
    ASSERT_TRUE(kernel.has_value()) << g.kernel;
    const std::uint64_t digest = MapDigest(g.mapper, kernel->dfg, *arch);
    EXPECT_EQ(digest, g.digest) << g.mapper << "/" << g.kernel << "/" << g.fabric
                                << ": digest 0x" << std::hex << digest;
  }
}

// ---- A* heuristic equivalence -----------------------------------------------
// The heuristic may return a *different* route among equal-cost
// alternatives, but it must never change feasibility or route cost.

TEST(RouterHeuristic, SameFeasibilityAndCostAsDijkstra) {
  const Architecture arch = Architecture::Big8x8();
  const Mrrg mrrg(arch);
  const int ii = 4;
  ResourceTracker tracker(mrrg, ii);
  Rng rng(0xFEEDull);
  RouterOptions plain;
  RouterOptions astar;
  astar.use_heuristic = true;
  int routed = 0;
  for (int r = 0; r < 3000; ++r) {
    if ((r & 63) == 0) tracker.Reset();
    RouteRequest req;
    req.from_cell =
        static_cast<int>(rng.NextIndex(static_cast<size_t>(arch.num_cells())));
    req.to_cell =
        static_cast<int>(rng.NextIndex(static_cast<size_t>(arch.num_cells())));
    req.from_time = static_cast<int>(rng.NextIndex(static_cast<size_t>(ii)));
    const int hops = arch.HopDistance(req.from_cell, req.to_cell);
    req.to_time =
        req.from_time + 1 + hops + static_cast<int>(rng.NextIndex(4));
    req.value = static_cast<ValueId>(r & 255);
    // Route with A* against the same tracker state, undo, then route
    // with plain Dijkstra and keep that one, so both modes always see
    // identical occupancy.
    auto fast = RouteValue(mrrg, tracker, req, astar);
    if (fast.ok()) ReleaseRoute(tracker, *fast, req.value);
    auto slow = RouteValue(mrrg, tracker, req, plain);
    ASSERT_EQ(fast.ok(), slow.ok()) << "round " << r;
    if (slow.ok()) {
      ++routed;
      // Uniform step cost, so equal cost == equal step count.
      EXPECT_EQ(fast->steps.size(), slow->steps.size()) << "round " << r;
      if (rng.NextBool(0.5)) ReleaseRoute(tracker, *slow, req.value);
    }
  }
  EXPECT_GT(routed, 1000);  // the stream must actually exercise routing
}

TEST(RouterHeuristic, PrunesImpossibleDeadlinesToSameAnswer) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker tracker(mrrg, 2);
  RouteRequest req;
  req.from_cell = 0;
  req.to_cell = arch.num_cells() - 1;  // opposite corner
  req.from_time = 0;
  // One cycle is never enough to cross the fabric corner to corner.
  req.to_time = 1;
  req.value = 7;
  RouterOptions astar;
  astar.use_heuristic = true;
  EXPECT_FALSE(RouteValue(mrrg, tracker, req, astar).ok());
  EXPECT_FALSE(RouteValue(mrrg, tracker, req, RouterOptions{}).ok());
}

// ---- arena epochs -----------------------------------------------------------

// A fresh cold arena and a warm reused arena must produce identical
// routes for an identical query mix — if an epoch bump ever failed to
// invalidate a stale best/parent entry, the warm run would diverge.
TEST(RouterArena, WarmReuseMatchesColdArena) {
  const Architecture arch = Architecture::Adres4x4();
  auto run = [&](bool reset_between) {
    std::uint64_t digest = 1469598103934665603ull;
    // Interleave IIs so the packed (node, time, stay) layout changes
    // shape between consecutive queries — exactly the II-escalation
    // retry pattern that once produced stale-parent corruption.
    for (int round = 0; round < 6; ++round) {
      for (int ii : {2, 4, 3}) {
        if (reset_between) router_internal::ResetScratchForTest();
        const Mrrg mrrg(arch);
        ResourceTracker tracker(mrrg, ii);
        RouteRequest req;
        req.from_cell = round % arch.num_cells();
        req.to_cell = (round * 5 + ii) % arch.num_cells();
        req.from_time = round % ii;
        req.to_time = req.from_time + 1 +
                      arch.HopDistance(req.from_cell, req.to_cell) + round % 3;
        req.value = static_cast<ValueId>(round);
        auto route = RouteValue(mrrg, tracker, req);
        digest = HashU64(digest, route.ok() ? RouteDigest(*route) : 0);
      }
    }
    return digest;
  };
  router_internal::ResetScratchForTest();
  const std::uint64_t warm = run(/*reset_between=*/false);
  const std::uint64_t cold = run(/*reset_between=*/true);
  EXPECT_EQ(warm, cold);
}

TEST(RouterArena, EpochAdvancesAndArenaIsReusedWithoutGrowth) {
  router_internal::ResetScratchForTest();
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker tracker(mrrg, 2);
  RouteRequest req;
  req.from_cell = 0;
  req.to_cell = 5;
  req.from_time = 0;
  req.to_time = 1 + arch.HopDistance(0, 5);
  req.value = 1;
  ASSERT_TRUE(RouteValue(mrrg, tracker, req).ok());
  const auto first = router_internal::CurrentScratchStats();
  const PerfCounters perf_first = ThreadPerfCounters();
  EXPECT_GE(first.capacity, 1u);
  ReleaseRoute(tracker, *RouteValue(mrrg, tracker, req), req.value);
  tracker.Reset();
  ASSERT_TRUE(RouteValue(mrrg, tracker, req).ok());
  const auto second = router_internal::CurrentScratchStats();
  const PerfCounters delta = ThreadPerfCounters() - perf_first;
  EXPECT_GT(second.epoch, first.epoch);          // every query stamps anew
  EXPECT_EQ(second.capacity, first.capacity);    // same shape: no realloc
  EXPECT_GT(delta.arena_reuses, 0u);             // ... so it was a warm reuse
  EXPECT_EQ(delta.arena_grows, 0u);
}

TEST(RouterArena, EpochWrapAroundStaysCorrect) {
  router_internal::ResetScratchForTest();
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker tracker(mrrg, 2);
  RouteRequest req;
  req.from_cell = 3;
  req.to_cell = 12;
  req.from_time = 1;
  req.to_time = 2 + arch.HopDistance(3, 12);
  req.value = 9;
  auto before = RouteValue(mrrg, tracker, req);
  ASSERT_TRUE(before.ok());
  ReleaseRoute(tracker, *before, req.value);

  // Force the next query to wrap the 32-bit epoch counter: the arena
  // must clear its stamps instead of treating entries stamped with
  // epoch 0/1 from the pre-wrap era as valid.
  router_internal::SetEpochForTest(0xFFFFFFFFu);
  for (int i = 0; i < 3; ++i) {
    auto after = RouteValue(mrrg, tracker, req);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(RouteDigest(*after), RouteDigest(*before)) << "wrap step " << i;
    ReleaseRoute(tracker, *after, req.value);
    const auto stats = router_internal::CurrentScratchStats();
    EXPECT_NE(stats.epoch, 0u);
  }
}

// Goal marks and A* hop bounds carry the query epoch too, so the wrap
// must clear them with the state stamps: marks a query to another
// consumer left at epoch 1 would otherwise pass for the goals and
// bounds of the first query after the wrap, which also runs at 1.
TEST(RouterArena, EpochWrapClearsGoalMarksAndHopBounds) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker tracker(mrrg, 2);
  RouteRequest req;
  req.from_cell = 3;
  req.to_cell = 12;
  req.from_time = 1;
  req.to_time = 2 + arch.HopDistance(3, 12);
  req.value = 9;
  RouteRequest other = req;
  other.to_cell = 1;
  other.value = 10;
  for (const bool astar : {false, true}) {
    RouterOptions opts;
    opts.use_heuristic = astar;
    router_internal::ResetScratchForTest();
    auto expected = RouteValue(mrrg, tracker, req, opts);
    ASSERT_TRUE(expected.ok());
    ReleaseRoute(tracker, *expected, req.value);

    router_internal::ResetScratchForTest();
    auto first = RouteValue(mrrg, tracker, other, opts);
    ASSERT_TRUE(first.ok());
    ReleaseRoute(tracker, *first, other.value);
    router_internal::SetEpochForTest(0xFFFFFFFFu);
    auto wrapped = RouteValue(mrrg, tracker, req, opts);
    ASSERT_TRUE(wrapped.ok()) << (astar ? "A*" : "Dijkstra");
    EXPECT_EQ(RouteDigest(*wrapped), RouteDigest(*expected))
        << (astar ? "A*" : "Dijkstra");
    EXPECT_EQ(router_internal::CurrentScratchStats().epoch, 1u);
    ReleaseRoute(tracker, *wrapped, req.value);
  }
}

// ---- hop-feasibility exit ---------------------------------------------------

// Fewest fabric hops from `from_cell` to any hold the consumer on
// `to_cell` can read (-1 when none is reachable). Each hop costs one
// cycle, so a window shorter than this can never route. A shared
// register file (no cell) is readable from everywhere: 0 hops.
int NearestGoalHops(const Mrrg& mrrg, int from_cell, int to_cell) {
  int nearest = -1;
  for (const std::int32_t g : mrrg.ReadableHolds(to_cell)) {
    const int gcell = mrrg.cell(g);
    const int hops =
        gcell < 0 ? 0 : mrrg.arch().HopDistance(from_cell, gcell);
    if (hops >= 0 && (nearest < 0 || hops < nearest)) nearest = hops;
  }
  return nearest;
}

TEST(RouterArena, HopInfeasibleQueryDoesNotSearch) {
  for (const Architecture& arch :
       {Architecture::Adres4x4(), Architecture::Big8x8()}) {
    const Mrrg mrrg(arch);
    ResourceTracker tracker(mrrg, 2);
    RouteRequest req;
    req.from_cell = 0;
    req.to_cell = arch.num_cells() - 1;  // opposite corner
    req.from_time = 0;
    req.value = 3;
    const int nearest = NearestGoalHops(mrrg, req.from_cell, req.to_cell);
    ASSERT_GE(nearest, 2) << arch.params().name;
    // The window (to_time - from_time - 1 cycles) is one short.
    req.to_time = req.from_time + nearest;

    const auto stats_before = router_internal::CurrentScratchStats();
    const PerfCounters perf_before = ThreadPerfCounters();
    auto route = RouteValue(mrrg, tracker, req);
    ASSERT_FALSE(route.ok()) << arch.params().name;
    EXPECT_EQ(route.error().code, Error::Code::kUnmappable);
    EXPECT_EQ(router_internal::CurrentScratchStats().epoch, stats_before.epoch)
        << arch.params().name << ": the arena was touched";
    const PerfCounters perf = ThreadPerfCounters() - perf_before;
    EXPECT_EQ(perf.router_expansions, 0u) << arch.params().name;
    EXPECT_EQ(perf.router_queries, 1u) << arch.params().name;

    // One cycle more reaches the nearest goal, so the bound is tight.
    ++req.to_time;
    auto at_bound = RouteValue(mrrg, tracker, req);
    ASSERT_TRUE(at_bound.ok()) << arch.params().name << ": "
                               << at_bound.error().message;
    EXPECT_GT(router_internal::CurrentScratchStats().epoch, stats_before.epoch);
  }
}

// WithinReach is the router's pre-search exit as a predicate: callers
// that skip the router when it is false (the annealers' blind-route
// memo) must get exactly the router's answer.
TEST(RouterProperty, WithinReachIsThePreSearchExit) {
  FaultModel faults;
  faults.KillCell(5);
  for (const Architecture& arch :
       {Architecture::Adres4x4(), Architecture::Big8x8(),
        Architecture::Adres4x4().WithFaults(faults), Architecture::VliwLike4()}) {
    const Mrrg mrrg(arch);
    ResourceTracker tracker(mrrg, 2);
    Rng rng(0x4EAC4ull);
    int out_of_reach = 0, in_reach = 0;
    for (int q = 0; q < 400; ++q) {
      RouteRequest req;
      req.from_cell =
          static_cast<int>(rng.NextIndex(static_cast<size_t>(arch.num_cells())));
      req.to_cell =
          static_cast<int>(rng.NextIndex(static_cast<size_t>(arch.num_cells())));
      req.from_time = static_cast<int>(rng.NextIndex(3));
      req.to_time = req.from_time - 1 + static_cast<int>(rng.NextIndex(12));
      req.value = static_cast<ValueId>(q);
      for (const bool blind : {true, false}) {
        RouterOptions options;
        options.ignore_capacity = blind;
        const std::uint32_t epoch = router_internal::CurrentScratchStats().epoch;
        auto route = RouteValue(mrrg, tracker, req, options);
        if (WithinReach(mrrg, req)) continue;
        EXPECT_FALSE(route.ok()) << arch.params().name << " query " << q;
        EXPECT_EQ(router_internal::CurrentScratchStats().epoch, epoch)
            << arch.params().name << " query " << q << ": searched";
      }
      (WithinReach(mrrg, req) ? in_reach : out_of_reach) += 1;
      tracker.Reset();
    }
    EXPECT_GT(in_reach, 0) << arch.params().name;
    if (arch.params().rf_kind != RfKind::kShared) {
      EXPECT_GT(out_of_reach, 0) << arch.params().name;
    }
  }
}

// Reference for capacity-blind routing: breadth-first reachability
// over (node, time) along Mrrg::OutLinks, from the producer's hold one
// cycle after issue to any readable goal at exactly `to_time`.
bool ReachableOverTime(const Mrrg& mrrg, const RouteRequest& req) {
  const int start_time = req.from_time + 1;
  if (start_time > req.to_time) return false;
  std::vector<char> layer(static_cast<std::size_t>(mrrg.num_nodes()), 0);
  layer[static_cast<std::size_t>(mrrg.HoldNode(req.from_cell))] = 1;
  for (int t = start_time;; ++t) {
    // Close the layer under same-cycle (latency 0) links.
    std::vector<int> frontier;
    for (int n = 0; n < mrrg.num_nodes(); ++n) {
      if (layer[static_cast<std::size_t>(n)]) frontier.push_back(n);
    }
    while (!frontier.empty()) {
      const int n = frontier.back();
      frontier.pop_back();
      for (const Mrrg::Link& link : mrrg.OutLinks(n)) {
        char& seen = layer[static_cast<std::size_t>(link.to)];
        if (link.latency == 0 && !seen) {
          seen = 1;
          frontier.push_back(link.to);
        }
      }
    }
    if (t == req.to_time) break;
    std::vector<char> next(layer.size(), 0);
    for (int n = 0; n < mrrg.num_nodes(); ++n) {
      if (!layer[static_cast<std::size_t>(n)]) continue;
      for (const Mrrg::Link& link : mrrg.OutLinks(n)) {
        if (link.latency == 1) next[static_cast<std::size_t>(link.to)] = 1;
      }
    }
    layer = std::move(next);
  }
  for (const std::int32_t g : mrrg.ReadableHolds(req.to_cell)) {
    if (layer[static_cast<std::size_t>(g)]) return true;
  }
  return false;
}

TEST(RouterProperty, FeasibilityMatchesTimeExpandedReachability) {
  FaultModel faults;
  faults.KillCell(5);
  faults.KillLink(0, 1);
  const struct {
    const char* name;
    Architecture arch;
  } fabrics[] = {
      {"adres4x4", Architecture::Adres4x4()},
      {"big8x8", Architecture::Big8x8()},
      {"adres4x4+faults", Architecture::Adres4x4().WithFaults(faults)},
      {"vliw4", Architecture::VliwLike4()},
  };
  for (const auto& [name, arch] : fabrics) {
    const Mrrg mrrg(arch);
    ResourceTracker tracker(mrrg, 2);
    RouterOptions blind;
    blind.ignore_capacity = true;
    Rng rng(0x40Full);
    int routed = 0, failed = 0, unsearched = 0;
    for (int q = 0; q < 400; ++q) {
      RouteRequest req;
      req.from_cell =
          static_cast<int>(rng.NextIndex(static_cast<size_t>(arch.num_cells())));
      req.to_cell =
          static_cast<int>(rng.NextIndex(static_cast<size_t>(arch.num_cells())));
      req.from_time = static_cast<int>(rng.NextIndex(2));
      req.value = static_cast<ValueId>(q);
      // Windows from two below to two above the hop bound.
      const int bound =
          std::max(0, NearestGoalHops(mrrg, req.from_cell, req.to_cell));
      const int window =
          std::max(0, bound - 2 + static_cast<int>(rng.NextIndex(5)));
      req.to_time = req.from_time + 1 + window;

      const std::uint64_t expansions = ThreadPerfCounters().router_expansions;
      auto route = RouteValue(mrrg, tracker, req, blind);
      ASSERT_EQ(route.ok(), ReachableOverTime(mrrg, req))
          << name << " query " << q << ": " << req.from_cell << "@"
          << req.from_time << " -> " << req.to_cell << "@" << req.to_time;
      if (route.ok()) {
        ++routed;
        EXPECT_EQ(route->steps.front().time, req.from_time + 1);
        EXPECT_EQ(route->steps.back().time, req.to_time);
      } else {
        ++failed;
        if (ThreadPerfCounters().router_expansions == expansions) ++unsearched;
      }
    }
    EXPECT_GT(routed, 0) << name;
    if (arch.params().rf_kind != RfKind::kShared) {
      EXPECT_GT(failed, 0) << name;
      EXPECT_GT(unsearched, 0) << name << ": the exit never fired";
    }
  }
}

// ---- tracker properties -----------------------------------------------------

// Reference model: per (node mod-slot, value, absolute time) refcounts.
struct ModelTracker {
  std::map<std::tuple<int, int, ValueId, int>, int> refs;  // (node,s,value,t)
  int ii;

  explicit ModelTracker(int ii_in) : ii(ii_in) {}
  int Slot(int time) const { return ((time % ii) + ii) % ii; }
  int Load(int node, int s) const {
    int n = 0;
    for (const auto& [k, v] : refs) {
      if (std::get<0>(k) == node && std::get<1>(k) == s && v > 0) ++n;
    }
    return n;
  }
  bool CanOccupy(const Mrrg& mrrg, int node, int time, ValueId value) const {
    const int s = Slot(time);
    if (!mrrg.SlotUsable(node, s)) return false;
    auto it = refs.find({node, s, value, time});
    if (it != refs.end() && it->second > 0) return true;
    return Load(node, s) < mrrg.capacity(node);
  }
  void Occupy(int node, int time, ValueId value) {
    ++refs[{node, Slot(time), value, time}];
  }
  bool Release(int node, int time, ValueId value) {
    auto it = refs.find({node, Slot(time), value, time});
    if (it == refs.end() || it->second == 0) return false;
    if (--it->second == 0) refs.erase(it);
    return true;
  }
};

TEST(TrackerProperty, RandomTrafficMatchesReferenceModel) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  const int ii = 3;
  ResourceTracker tracker(mrrg, ii);
  ModelTracker model(ii);
  Rng rng(0xBADC0DEull);
  std::vector<std::tuple<int, int, ValueId>> live;
  for (int step = 0; step < 20000; ++step) {
    const int node =
        static_cast<int>(rng.NextIndex(static_cast<size_t>(mrrg.num_nodes())));
    const int time = static_cast<int>(rng.NextIndex(12));
    const ValueId value = static_cast<ValueId>(rng.NextIndex(6));
    if (!live.empty() && rng.NextBool(0.45)) {
      const size_t pick = rng.NextIndex(live.size());
      auto [n, t, v] = live[pick];
      live[pick] = live.back();
      live.pop_back();
      ASSERT_TRUE(model.Release(n, t, v));
      tracker.Release(n, t, v);
    } else {
      // Keep admission semantics in lockstep too, not just counts.
      ASSERT_EQ(tracker.CanOccupy(node, time, value),
                model.CanOccupy(mrrg, node, time, value))
          << "step " << step;
      tracker.Occupy(node, time, value);
      model.Occupy(node, time, value);
      live.emplace_back(node, time, value);
    }
    if ((step & 255) == 0) {
      for (int n = 0; n < mrrg.num_nodes(); ++n) {
        for (int s = 0; s < ii; ++s) {
          ASSERT_EQ(tracker.Load(n, s), model.Load(n, s))
              << "step " << step << " node " << n << " slot " << s;
        }
      }
    }
  }
  // Drain and verify we end empty (all refcounts balanced).
  for (auto [n, t, v] : live) tracker.Release(n, t, v);
  for (int n = 0; n < mrrg.num_nodes(); ++n) {
    for (int s = 0; s < ii; ++s) EXPECT_EQ(tracker.Load(n, s), 0);
  }
  EXPECT_EQ(tracker.SpilledEntries(), 0);
}

TEST(TrackerProperty, SpillsBeyondInlineBlockAndBackfills) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker tracker(mrrg, 2);
  const int node = mrrg.HoldNode(0);
  const int n = ResourceTracker::kInlineOccupants + 3;
  // Occupy never enforces capacity (CanOccupy does); over-filling one
  // slot is exactly the transient the router creates while committing,
  // and it must spill rather than corrupt neighbouring slots.
  for (int v = 0; v < n; ++v) tracker.Occupy(node, 4, static_cast<ValueId>(v));
  EXPECT_EQ(tracker.Load(node, 0), n);
  EXPECT_EQ(tracker.SpilledEntries(), n - ResourceTracker::kInlineOccupants);
  EXPECT_EQ(tracker.Load(node, 1), 0);  // other slot untouched
  // Each occupant is findable while spilled.
  for (int v = 0; v < n; ++v) {
    EXPECT_TRUE(tracker.CanOccupy(node, 4, static_cast<ValueId>(v)));
  }
  // Release from the middle of the inline block: a spilled entry must
  // back-fill so the inline block stays dense.
  tracker.Release(node, 4, 1);
  tracker.Release(node, 4, 2);
  tracker.Release(node, 4, 0);
  EXPECT_EQ(tracker.Load(node, 0), n - 3);
  EXPECT_EQ(tracker.SpilledEntries(), 0);
  for (int v : {3, 4, 5, 6}) {
    EXPECT_TRUE(tracker.CanOccupy(node, 4, static_cast<ValueId>(v)));
  }
  for (int v : {3, 4, 5, 6}) tracker.Release(node, 4, static_cast<ValueId>(v));
  EXPECT_EQ(tracker.Load(node, 0), 0);
}

TEST(TrackerProperty, RefcountsSharedOccupancy) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  ResourceTracker tracker(mrrg, 2);
  const int node = mrrg.HoldNode(3);
  // The same (value, absolute time) occupied three times — a net
  // fanning out over a shared prefix — counts once ...
  for (int i = 0; i < 3; ++i) tracker.Occupy(node, 6, 42);
  EXPECT_EQ(tracker.Load(node, 0), 1);
  // ... but the same value at time+II is a second iteration's copy and
  // takes a second capacity unit in the same modulo slot.
  tracker.Occupy(node, 8, 42);
  EXPECT_EQ(tracker.Load(node, 0), 2);
  tracker.Release(node, 8, 42);
  tracker.Release(node, 6, 42);
  tracker.Release(node, 6, 42);
  EXPECT_EQ(tracker.Load(node, 0), 1);  // one reference still held
  tracker.Release(node, 6, 42);
  EXPECT_EQ(tracker.Load(node, 0), 0);
}

// ---- word-parallel availability queries -------------------------------------
// The bitset planes must agree bit for bit with first-principles
// recomputation from SlotUsable/Load/capacity as traffic mutates them.

// What the avail bit is defined to mean, computed the slow way.
bool ReferenceAvail(const Mrrg& mrrg, const ResourceTracker& tracker,
                    int node, int slot) {
  return mrrg.SlotUsable(node, slot) &&
         tracker.Load(node, slot) < mrrg.capacity(node);
}

void CheckWordQueriesMatchReference(const Mrrg& mrrg,
                                    const ResourceTracker& tracker, int ii,
                                    const char* context) {
  const int n_nodes = mrrg.num_nodes();
  for (int t = 0; t < ii; ++t) {
    // Per-bit: AvailWord against the reference predicate.
    for (int n = 0; n < n_nodes; ++n) {
      const bool bit =
          (tracker.AvailWord(t, n >> 6) >> (n & 63)) & 1u;
      ASSERT_EQ(bit, ReferenceAvail(mrrg, tracker, n, t))
          << context << ": node " << n << " slot " << t;
    }
    // Range queries over every kind block and a few odd sub-ranges
    // (word-straddling begins/ends exercise RangeMask edges).
    const std::pair<int, int> ranges[] = {
        {mrrg.fu_begin(), mrrg.fu_begin() + mrrg.fu_count()},
        {mrrg.hold_begin(), mrrg.hold_begin() + mrrg.hold_count()},
        {mrrg.rt_begin(), mrrg.rt_begin() + mrrg.rt_count()},
        {0, n_nodes},
        {1, std::min(63, n_nodes)},
        {3, std::min(67, n_nodes)},
        {std::min(65, n_nodes), std::min(129, n_nodes)},
    };
    for (const auto& [b, e] : ranges) {
      if (b >= e) continue;
      int expected = 0;
      std::vector<int> expected_ids;
      for (int n = b; n < e; ++n) {
        if (ReferenceAvail(mrrg, tracker, n, t)) {
          ++expected;
          expected_ids.push_back(n);
        }
      }
      EXPECT_EQ(tracker.CountAvailable(t, b, e), expected)
          << context << ": range [" << b << "," << e << ") slot " << t;
      std::vector<int> got;
      tracker.ForEachAvailable(t, b, e, [&](int n) { got.push_back(n); });
      EXPECT_EQ(got, expected_ids)
          << context << ": range [" << b << "," << e << ") slot " << t;
    }
  }
}

TEST(TrackerBitset, WordQueriesMatchReferenceUnderRandomTraffic) {
  const Architecture arch = Architecture::Big8x8();  // >64 nodes: multi-word
  const Mrrg mrrg(arch);
  const int ii = 3;
  ResourceTracker tracker(mrrg, ii);
  ASSERT_GT(mrrg.num_nodes(), 64);  // the test must straddle words
  ASSERT_EQ(tracker.words_per_slot(), (mrrg.num_nodes() + 63) / 64);
  Rng rng(0xB17511ull);
  std::vector<std::tuple<int, int, ValueId>> live;
  CheckWordQueriesMatchReference(mrrg, tracker, ii, "initial");
  for (int step = 0; step < 4000; ++step) {
    const int node =
        static_cast<int>(rng.NextIndex(static_cast<size_t>(mrrg.num_nodes())));
    const int time = static_cast<int>(rng.NextIndex(9));
    const ValueId value = static_cast<ValueId>(rng.NextIndex(5));
    if (!live.empty() && rng.NextBool(0.45)) {
      const size_t pick = rng.NextIndex(live.size());
      auto [n, t, v] = live[pick];
      live[pick] = live.back();
      live.pop_back();
      tracker.Release(n, t, v);
    } else {
      tracker.Occupy(node, time, value);
      live.emplace_back(node, time, value);
    }
    if ((step & 511) == 0) {
      CheckWordQueriesMatchReference(mrrg, tracker, ii, "traffic");
    }
  }
  tracker.Reset();
  CheckWordQueriesMatchReference(mrrg, tracker, ii, "after Reset");
}

TEST(TrackerBitset, AvailClearsExactlyAtCapacity) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  const int ii = 2;
  ResourceTracker tracker(mrrg, ii);
  const int hold = mrrg.HoldNode(0);
  const int cap = mrrg.capacity(hold);
  ASSERT_GE(cap, 2);
  for (int v = 0; v < cap; ++v) {
    EXPECT_TRUE((tracker.AvailWord(0, hold >> 6) >> (hold & 63)) & 1u)
        << "after " << v << " occupants";
    tracker.Occupy(hold, 0, static_cast<ValueId>(v));
  }
  // Full: the avail bit drops, but existing occupants still pass the
  // slow path (already-ours) while new values are rejected.
  EXPECT_FALSE((tracker.AvailWord(0, hold >> 6) >> (hold & 63)) & 1u);
  EXPECT_TRUE(tracker.CanOccupy(hold, 0, 0));
  EXPECT_FALSE(tracker.CanOccupy(hold, 0, static_cast<ValueId>(cap)));
  // Over-fill past capacity (router commit transient), then drain: the
  // bit must come back exactly when the count re-crosses capacity.
  tracker.Occupy(hold, 0, static_cast<ValueId>(cap));
  EXPECT_FALSE((tracker.AvailWord(0, hold >> 6) >> (hold & 63)) & 1u);
  for (int v = cap; v >= 0; --v) {
    tracker.Release(hold, 0, static_cast<ValueId>(v));
    const bool bit = (tracker.AvailWord(0, hold >> 6) >> (hold & 63)) & 1u;
    EXPECT_EQ(bit, tracker.Load(hold, 0) < cap) << "after releasing " << v;
  }
  EXPECT_TRUE((tracker.AvailWord(0, hold >> 6) >> (hold & 63)) & 1u);
}

TEST(TrackerBitset, FaultGatedSlotsNeverBecomeAvailable) {
  FaultModel fm;
  fm.KillContextSlot(/*cell=*/2, /*slot=*/0);
  const Architecture arch = Architecture::Adres4x4().WithFaults(fm);
  const Mrrg mrrg(arch);
  const int ii = 2;
  ResourceTracker tracker(mrrg, ii);
  const int fu = mrrg.FuNode(2);
  EXPECT_FALSE((tracker.AvailWord(0, fu >> 6) >> (fu & 63)) & 1u);
  EXPECT_TRUE((tracker.AvailWord(1, fu >> 6) >> (fu & 63)) & 1u);
  EXPECT_EQ(tracker.CountAvailable(0, fu, fu + 1), 0);
  EXPECT_EQ(tracker.CountAvailable(1, fu, fu + 1), 1);
  // Occupy/Release churn on the dead slot must not resurrect it.
  tracker.Occupy(fu, 0, 1);
  tracker.Release(fu, 0, 1);
  EXPECT_FALSE((tracker.AvailWord(0, fu >> 6) >> (fu & 63)) & 1u);
  tracker.Reset();
  EXPECT_FALSE((tracker.AvailWord(0, fu >> 6) >> (fu & 63)) & 1u);
  CheckWordQueriesMatchReference(mrrg, tracker, ii, "faulted fabric");
}

TEST(TrackerProperty, FaultGatedSlotUnusable) {
  FaultModel fm;
  fm.KillContextSlot(/*cell=*/5, /*slot=*/1);
  const Architecture arch = Architecture::Adres4x4().WithFaults(fm);
  const Mrrg mrrg(arch);
  ResourceTracker tracker(mrrg, 2);
  const int fu = mrrg.FuNode(5);
  // The corrupt config word kills the FU in modulo slot 1 only.
  EXPECT_FALSE(mrrg.SlotUsable(fu, 1));
  EXPECT_FALSE(tracker.CanOccupy(fu, 1, 3));
  EXPECT_FALSE(tracker.CanOccupy(fu, 3, 3));  // 3 mod 2 == 1
  EXPECT_TRUE(tracker.CanOccupy(fu, 0, 3));
  EXPECT_TRUE(tracker.CanOccupy(fu, 2, 3));
  EXPECT_EQ(tracker.Headroom(fu, 1), 0);
  EXPECT_GT(tracker.Headroom(fu, 0), 0);
  // Register files retain values without a config word: never gated.
  const int hold = mrrg.HoldNode(5);
  EXPECT_TRUE(tracker.CanOccupy(hold, 1, 3));
}

}  // namespace
}  // namespace cgra
