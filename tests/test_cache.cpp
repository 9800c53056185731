// Tests for the content-addressed mapping cache (src/cache): key
// stability and sensitivity, the Mapping binary round-trip, the
// corruption / version-skew / validate-on-hit fallback-to-miss paths,
// the engine fast path, and a concurrent hammer (this file is on the
// TSan CI job's target list).
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "arch/arch.hpp"
#include "arch/fault.hpp"
#include "cache/mapping_cache.hpp"
#include "engine/engine.hpp"
#include "engine/trace.hpp"
#include "ir/kernels.hpp"
#include "mappers/registry.hpp"
#include "mapping/mapper.hpp"
#include "mapping/mapping.hpp"
#include "mapping/validator.hpp"
#include "support/timer.hpp"

namespace cgra {
namespace {

namespace fs = std::filesystem;

/// A fresh temp directory per test, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const char* tag) {
    path = fs::temp_directory_path() /
           (std::string("cgra_cache_test_") + tag + "_" +
            std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

Mapping MapOrDie(const Dfg& dfg, const Architecture& arch,
                 std::uint64_t seed = 1) {
  const Mapper* ims = MapperRegistry::Global().Find("ims");
  MapperOptions opt;
  opt.seed = seed;
  opt.deadline = Deadline::AfterSeconds(30);
  auto r = ims->Map(dfg, arch, opt);
  EXPECT_TRUE(r.ok()) << r.error().message;
  return *r;
}

// ---- digests ---------------------------------------------------------------

// The whole point of a content-addressed cache shared across processes
// and machines is that the key is a pure function of the content. These
// constants were computed once and must never drift: a change here IS a
// cache-format break and must come with a kMappingCacheKeyVersion bump.
TEST(Digests, StableAcrossRebuilds) {
  const Architecture arch = Architecture::Adres4x4();
  const Kernel k = MakeDotProduct(8, 7);
  const MapperOptions opt;
  EXPECT_EQ(arch.Digest(), "da83e2abf78017c9");
  EXPECT_EQ(k.dfg.Digest(), "0377022e35197fcf");
  EXPECT_EQ(opt.Digest(), "7f6868c640ce685e");
  EXPECT_EQ(MappingCacheKey(arch, k.dfg, opt, "ims"), "c560bf609299f25d");
}

TEST(Digests, EqualInputsEqualKeys) {
  const Kernel a = MakeDotProduct(8, 7);
  const Kernel b = MakeDotProduct(8, 7);
  EXPECT_EQ(
      MappingCacheKey(Architecture::Adres4x4(), a.dfg, MapperOptions{}, "ims"),
      MappingCacheKey(Architecture::Adres4x4(), b.dfg, MapperOptions{}, "ims"));
}

TEST(Digests, EveryMutationChangesTheKey) {
  const Architecture arch = Architecture::Adres4x4();
  const Kernel k = MakeDotProduct(8, 7);
  const MapperOptions base;

  std::set<std::string> keys;
  keys.insert(MappingCacheKey(arch, k.dfg, base, "ims"));

  // Different fabric.
  keys.insert(MappingCacheKey(Architecture::Torus4x4(), k.dfg, base, "ims"));
  // Same fabric, derated: the fault model must reach the key, or a
  // repair loop could be served the pre-fault mapping.
  FaultModel fm;
  fm.KillCell(3);
  keys.insert(MappingCacheKey(arch.WithFaults(fm), k.dfg, base, "ims"));
  FaultModel fm2;
  fm2.KillCell(4);
  keys.insert(MappingCacheKey(arch.WithFaults(fm2), k.dfg, base, "ims"));
  // Different kernels. (`iterations` sizes the inputs, not the DFG:
  // MakeDotProduct(9,...) and (8,...) share one graph and SHOULD share
  // one key.)
  keys.insert(MappingCacheKey(arch, MakeVecAdd(8, 7).dfg, base, "ims"));
  keys.insert(MappingCacheKey(arch, MakeSaxpy(8, 7).dfg, base, "ims"));
  EXPECT_EQ(MappingCacheKey(arch, MakeDotProduct(9, 7).dfg, base, "ims"),
            MappingCacheKey(arch, k.dfg, base, "ims"));
  // Each semantic option field.
  MapperOptions o1 = base;
  o1.min_ii = 2;
  keys.insert(MappingCacheKey(arch, k.dfg, o1, "ims"));
  MapperOptions o2 = base;
  o2.max_ii = 8;
  keys.insert(MappingCacheKey(arch, k.dfg, o2, "ims"));
  MapperOptions o3 = base;
  o3.extra_slack = 3;
  keys.insert(MappingCacheKey(arch, k.dfg, o3, "ims"));
  MapperOptions o4 = base;
  o4.seed = 2;
  keys.insert(MappingCacheKey(arch, k.dfg, o4, "ims"));
  // Different mapper, and a portfolio with the same prefix.
  keys.insert(MappingCacheKey(arch, k.dfg, base, "ems"));
  keys.insert(MappingCacheKey(arch, k.dfg, base, "portfolio:ims,ems"));

  EXPECT_EQ(keys.size(), 12u) << "two distinct inputs collided on one key";
}

TEST(Digests, NonSemanticOptionsDoNotChangeTheKey) {
  const Architecture arch = Architecture::Adres4x4();
  const Kernel k = MakeDotProduct(8, 7);
  const MapperOptions base;
  MapperOptions steered;
  steered.deadline = Deadline::AfterSeconds(0.001);
  EXPECT_EQ(MappingCacheKey(arch, k.dfg, base, "ims"),
            MappingCacheKey(arch, k.dfg, steered, "ims"));
}

// ---- binary round-trip -----------------------------------------------------

// Every registry mapper's output must survive serialize -> deserialize
// -> ValidateMapping bit-exactly: the cache stores whatever any mapper
// produced, so a round-trip gap for one technique is a poisoned cache.
TEST(MappingRoundTrip, EveryRegistryMapperSurvives) {
  const Architecture big = Architecture::Adres4x4();
  const Architecture tiny = Architecture::Small2x2();
  const Kernel k = MakeDotProduct(8, 7);
  int round_tripped = 0;
  for (const Mapper& m : MapperRegistry::Global()) {
    // Same fabric policy as tests/test_mappers.cpp: exact temporal
    // models explode on a 4x4, so they solve the 2x2; exact spatial
    // needs one cell per op, so it keeps the 4x4.
    const bool exact = m.technique() == TechniqueClass::kExactIlp ||
                       m.technique() == TechniqueClass::kExactCsp;
    const Architecture& arch =
        (exact && m.kind() != MappingKind::kSpatial) ? tiny : big;
    MapperOptions opt;
    opt.deadline = Deadline::AfterSeconds(5);
    const auto r = m.Map(k.dfg, arch, opt);
    if (!r.ok()) continue;  // budget-bound exact mappers may time out
    const std::string blob = SerializeMapping(*r);
    const auto back = DeserializeMapping(blob);
    ASSERT_TRUE(back.ok()) << m.name() << ": " << back.error().message;
    EXPECT_EQ(back->ii, r->ii) << m.name();
    EXPECT_EQ(MappingDigestHex(*back), MappingDigestHex(*r)) << m.name();
    EXPECT_TRUE(ValidateMapping(k.dfg, arch, *back).ok()) << m.name();
    ++round_tripped;
  }
  // The suite is vacuous if mapping stopped working; most of the
  // catalogue handles an 11-op dot product in milliseconds.
  EXPECT_GE(round_tripped, 8);
}

TEST(MappingRoundTrip, RejectsTampering) {
  const Mapping m = MapOrDie(MakeDotProduct(8, 7).dfg,
                             Architecture::Adres4x4());
  const std::string blob = SerializeMapping(m);
  ASSERT_TRUE(DeserializeMapping(blob).ok());

  // Truncation at every prefix length.
  for (std::size_t n = 0; n < blob.size(); ++n) {
    EXPECT_FALSE(DeserializeMapping(std::string_view(blob.data(), n)).ok())
        << "accepted a " << n << "-byte prefix";
  }
  // Trailing garbage.
  EXPECT_FALSE(DeserializeMapping(blob + "x").ok());
  // Any single flipped byte: either the checksum catches it or a
  // structural check does, but it must never decode silently.
  for (std::size_t i = 0; i < blob.size(); ++i) {
    std::string bad = blob;
    bad[i] = static_cast<char>(bad[i] ^ 0x5A);
    EXPECT_FALSE(DeserializeMapping(bad).ok()) << "byte " << i;
  }
}

// ---- cache behaviour -------------------------------------------------------

TEST(MappingCache, MemoryHitReturnsTheMapping) {
  const Architecture arch = Architecture::Adres4x4();
  const Kernel k = MakeDotProduct(8, 7);
  const Mapping m = MapOrDie(k.dfg, arch);
  MappingCache cache;
  const std::string key = MappingCacheKey(arch, k.dfg, MapperOptions{}, "ims");

  EXPECT_FALSE(cache.Get(key, k.dfg, arch).has_value());
  cache.Put(key, m, "ims");
  MappingCache::LookupInfo info;
  const auto hit = cache.Get(key, k.dfg, arch, &info);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(info.hit);
  EXPECT_EQ(info.tier, MappingCache::Tier::kMemory);
  EXPECT_EQ(hit->winner, "ims");
  EXPECT_EQ(MappingDigestHex(hit->mapping), MappingDigestHex(m));

  const auto st = cache.stats();
  EXPECT_EQ(st.lookups, 2u);
  EXPECT_EQ(st.mem_hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.lookups, st.mem_hits + st.disk_hits + st.misses);
}

TEST(MappingCache, DiskTierSurvivesMemoryClearAndPromotes) {
  TempDir dir("disk");
  const Architecture arch = Architecture::Adres4x4();
  const Kernel k = MakeDotProduct(8, 7);
  const Mapping m = MapOrDie(k.dfg, arch);
  MappingCacheOptions co;
  co.disk_dir = dir.path.string();
  MappingCache cache(co);
  const std::string key = MappingCacheKey(arch, k.dfg, MapperOptions{}, "ims");
  cache.Put(key, m, "ims");

  cache.Clear();  // simulates a process restart: only disk survives
  ASSERT_EQ(cache.size(), 0u);
  MappingCache::LookupInfo info;
  const auto hit = cache.Get(key, k.dfg, arch, &info);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(info.tier, MappingCache::Tier::kDisk);
  EXPECT_EQ(MappingDigestHex(hit->mapping), MappingDigestHex(m));
  // Promoted: the next lookup is a memory hit.
  cache.Get(key, k.dfg, arch, &info);
  EXPECT_EQ(info.tier, MappingCache::Tier::kMemory);
}

TEST(MappingCache, CorruptedDiskEntryDegradesToMiss) {
  TempDir dir("corrupt");
  const Architecture arch = Architecture::Adres4x4();
  const Kernel k = MakeDotProduct(8, 7);
  const Mapping m = MapOrDie(k.dfg, arch);
  MappingCacheOptions co;
  co.disk_dir = dir.path.string();
  MappingCache cache(co);
  const std::string key = MappingCacheKey(arch, k.dfg, MapperOptions{}, "ims");
  cache.Put(key, m, "ims");

  // Flip one byte in the middle of the blob, past the envelope header.
  const fs::path file = dir.path / key.substr(0, 2) / (key + ".bin");
  ASSERT_TRUE(fs::exists(file));
  {
    std::FILE* f = std::fopen(file.string().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 40, SEEK_SET);
    const char x = 0x7F;
    std::fwrite(&x, 1, 1, f);
    std::fclose(f);
  }
  cache.Clear();
  MappingCache::LookupInfo info;
  EXPECT_FALSE(cache.Get(key, k.dfg, arch, &info).has_value());
  EXPECT_TRUE(info.decode_failed || info.validate_failed);
  EXPECT_EQ(cache.stats().misses, 1u);
  // The poisoned file was deleted or evicted; a re-Put works again.
  cache.Put(key, m, "ims");
  EXPECT_TRUE(cache.Get(key, k.dfg, arch).has_value());
}

TEST(MappingCache, VersionSkewedDiskEntryDegradesToMiss) {
  TempDir dir("version");
  const Architecture arch = Architecture::Adres4x4();
  const Kernel k = MakeDotProduct(8, 7);
  const Mapping m = MapOrDie(k.dfg, arch);
  MappingCacheOptions co;
  co.disk_dir = dir.path.string();
  MappingCache cache(co);
  const std::string key = MappingCacheKey(arch, k.dfg, MapperOptions{}, "ims");
  cache.Put(key, m, "ims");

  // The envelope starts with the length-prefixed "CGRC" magic (4+4
  // bytes) followed by the u32 envelope version; forge a future one.
  const fs::path file = dir.path / key.substr(0, 2) / (key + ".bin");
  {
    std::FILE* f = std::fopen(file.string().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 8, SEEK_SET);
    const unsigned char future[4] = {0xFF, 0xFF, 0xFF, 0x7F};
    std::fwrite(future, 1, 4, f);
    std::fclose(f);
  }
  cache.Clear();
  EXPECT_FALSE(cache.Get(key, k.dfg, arch).has_value());
  EXPECT_GE(cache.stats().decode_failures, 1u);
}

TEST(MappingCache, ValidateOnHitRejectsAMappingForTheWrongFabric) {
  const Architecture healthy = Architecture::Adres4x4();
  const Kernel k = MakeDotProduct(8, 7);
  const Mapping m = MapOrDie(k.dfg, healthy);

  // Kill a cell the mapping actually uses, so the cached entry is
  // invalid on the derated fabric.
  int used_cell = -1;
  for (const Placement& p : m.place) {
    if (p.cell >= 0) {
      used_cell = p.cell;
      break;
    }
  }
  ASSERT_GE(used_cell, 0);
  FaultModel fm;
  fm.KillCell(used_cell);
  const Architecture derated = healthy.WithFaults(fm);
  ASSERT_FALSE(ValidateMapping(k.dfg, derated, m).ok());

  MappingCache cache;
  const std::string key = MappingCacheKey(healthy, k.dfg, MapperOptions{},
                                          "ims");
  cache.Put(key, m, "ims");
  // Same key, wrong fabric (as if the encoding were buggy): the
  // validate-on-hit backstop must refuse to serve it...
  MappingCache::LookupInfo info;
  EXPECT_FALSE(cache.Get(key, k.dfg, derated, &info).has_value());
  EXPECT_TRUE(info.validate_failed);
  EXPECT_GE(cache.stats().validate_failures, 1u);
  // ...and must have evicted it, so even the correct fabric now misses
  // (a poisoned entry is gone for good, not quarantined).
  EXPECT_FALSE(cache.Get(key, k.dfg, healthy).has_value());
}

TEST(MappingCache, LruEvictsBeyondCapacity) {
  const Architecture arch = Architecture::Adres4x4();
  const Kernel k = MakeDotProduct(8, 7);
  const Mapping m = MapOrDie(k.dfg, arch);
  MappingCacheOptions co;
  co.capacity = 4;
  co.shards = 1;
  MappingCache cache(co);
  for (int i = 0; i < 10; ++i) {
    MapperOptions opt;
    opt.seed = static_cast<std::uint64_t>(i + 1);
    cache.Put(MappingCacheKey(arch, k.dfg, opt, "ims"), m, "ims");
  }
  EXPECT_LE(cache.size(), 4u);
  EXPECT_GE(cache.stats().evictions, 6u);
}

// ---- engine integration ----------------------------------------------------

TEST(EngineCache, SecondRunIsACacheHitWithTheSameMapping) {
  const Architecture arch = Architecture::Adres4x4();
  const Kernel k = MakeDotProduct(8, 7);
  MappingCache cache;
  MapTrace trace;
  EngineOptions eo;
  eo.race = false;
  eo.cache = &cache;
  eo.observer = &trace;
  const MappingEngine engine(eo);

  const auto cold = engine.Run(k.dfg, arch, std::vector<std::string>{"ims", "ems"});
  ASSERT_TRUE(cold.ok()) << cold.error().message;
  EXPECT_FALSE(cold->cache_hit);
  ASSERT_FALSE(cold->cache_key.empty());

  const auto warm = engine.Run(k.dfg, arch, std::vector<std::string>{"ims", "ems"});
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->cache_key, cold->cache_key);
  EXPECT_EQ(warm->winner, cold->winner);
  EXPECT_EQ(MappingDigestHex(warm->mapping), MappingDigestHex(cold->mapping));
  // The hit short-circuits the race: one synthetic attempt.
  EXPECT_EQ(warm->attempts.size(), 1u);

  // Portfolio identity is part of the key: a different line-up may not
  // reuse this entry (the first success stops the rest, so the winner
  // is order-dependent).
  const auto other = engine.Run(k.dfg, arch, std::vector<std::string>{"ems"});
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->cache_hit);

  // The trace recorded one miss and one hit.
  int hits = 0, lookups = 0;
  for (const MapEvent& e : trace.events()) {
    if (e.kind == MapEvent::Kind::kCacheLookup) {
      ++lookups;
      hits += e.ok ? 1 : 0;
    }
  }
  EXPECT_EQ(lookups, 3);
  EXPECT_EQ(hits, 1);
  EXPECT_NE(trace.ToJson().find("\"cache\":["), std::string::npos);
}

// The satellite regression: a repair loop re-mapping after fault
// injection must NOT be served the pre-fault cached mapping.
TEST(EngineCache, RepairRoundIsNeverServedThePreFaultEntry) {
  const Architecture arch = Architecture::Adres4x4();
  const Kernel k = MakeDotProduct(8, 7);
  MappingCache cache;
  EngineOptions eo;
  eo.race = false;
  eo.cache = &cache;
  const MappingEngine engine(eo);

  // Populate the cache with the healthy-fabric mapping.
  const auto healthy = engine.Run(k.dfg, arch, std::vector<std::string>{"ims"});
  ASSERT_TRUE(healthy.ok());

  // Now a cell the healthy mapping uses dies; the repair loop re-maps.
  int used_cell = -1;
  for (const Placement& p : healthy->mapping.place) {
    if (p.cell >= 0) {
      used_cell = p.cell;
      break;
    }
  }
  ASSERT_GE(used_cell, 0);
  FaultModel fm;
  fm.KillCell(used_cell);

  const auto repaired = engine.RunWithRepair(k.dfg, arch, fm, std::vector<std::string>{"ims"});
  ASSERT_TRUE(repaired.ok()) << repaired.error().message;
  // The repaired mapping must be valid on the DERATED fabric — the
  // pre-fault entry is not (it uses the dead cell), so serving it from
  // the cache would fail this check.
  EXPECT_TRUE(
      ValidateMapping(k.dfg, *repaired->arch, repaired->result.mapping).ok());
  EXPECT_NE(repaired->result.cache_key, healthy->cache_key)
      << "repair round derived the pre-fault cache key";
  for (const Placement& p : repaired->result.mapping.place) {
    EXPECT_NE(p.cell, used_cell);
  }

  // And the repair rounds themselves are cached: a re-run with the
  // same faults is a hit on the post-fault key.
  const auto again = engine.RunWithRepair(k.dfg, arch, fm, std::vector<std::string>{"ims"});
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->result.cache_hit);
  EXPECT_EQ(MappingDigestHex(again->result.mapping),
            MappingDigestHex(repaired->result.mapping));
}

// ---- concurrency (runs under TSan in CI) -----------------------------------

TEST(MappingCacheConcurrency, HammerSharedCacheAcrossThreads) {
  TempDir dir("hammer");
  const Architecture arch = Architecture::Adres4x4();
  const Kernel k = MakeDotProduct(8, 7);
  const Mapping m = MapOrDie(k.dfg, arch);

  MappingCacheOptions co;
  co.capacity = 16;  // small, so eviction races with promotion
  co.shards = 4;
  co.disk_dir = dir.path.string();
  MappingCache cache(co);

  // 32 distinct keys, all valid for (k.dfg, arch).
  std::vector<std::string> keys;
  for (int i = 0; i < 32; ++i) {
    MapperOptions opt;
    opt.seed = static_cast<std::uint64_t>(i + 1);
    keys.push_back(MappingCacheKey(arch, k.dfg, opt, "ims"));
  }

  constexpr int kThreads = 8;
  constexpr int kIters = 300;
  std::atomic<int> served{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::string& key = keys[(t * 7 + i) % keys.size()];
        if ((t + i) % 3 == 0) {
          cache.Put(key, m, "ims");
        } else if (auto hit = cache.Get(key, k.dfg, arch)) {
          EXPECT_EQ(MappingDigestHex(hit->mapping), MappingDigestHex(m));
          served.fetch_add(1, std::memory_order_relaxed);
        }
        if (i % 64 == 0 && t == 0) cache.Clear();
      }
    });
  }
  for (std::thread& w : workers) w.join();

  const auto st = cache.stats();
  EXPECT_EQ(st.lookups, st.mem_hits + st.disk_hits + st.misses);
  EXPECT_GT(served.load(), 0);
  EXPECT_EQ(st.validate_failures, 0u);
  EXPECT_EQ(st.decode_failures, 0u);
}

TEST(EngineCacheConcurrency, ManyEnginesShareOneCache) {
  const Architecture arch = Architecture::Adres4x4();
  const std::vector<Kernel> suite = TinyKernelSuite(8, 7);
  MappingCache cache;

  constexpr int kThreads = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (const Kernel& k : suite) {
        EngineOptions eo;
        eo.race = false;
        eo.cache = &cache;
        const auto r = MappingEngine(eo).Run(k.dfg, arch, std::vector<std::string>{"ims", "ems"});
        if (!r.ok()) failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  // Which probes hit depends on thread timing (two engines may both
  // miss a kernel before either stores it); what holds under any
  // interleaving is that every miss maps and stores once, and the
  // cache ends with one entry per kernel.
  const auto st = cache.stats();
  EXPECT_EQ(st.lookups, st.hits() + st.misses);
  EXPECT_EQ(st.puts, st.misses);
  EXPECT_EQ(cache.size(), suite.size());
}

}  // namespace
}  // namespace cgra
