#include "cache/mapping_cache.hpp"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "mapping/validator.hpp"
#include "support/bytes.hpp"
#include "support/str.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace cgra {
namespace {

namespace fs = std::filesystem;

/// Cache metrics: every probe lands in exactly one of hit/miss, and
/// hit latency is the metric the ISSUE's serving story cares about
/// (a disk hit costing more than a re-map would be a bug).
struct CacheMetrics {
  telemetry::Counter& hits = telemetry::MetricsRegistry::Global().GetCounter(
      "cgra_cache_hits_total", "mapping-cache probes answered from cache");
  telemetry::Counter& misses = telemetry::MetricsRegistry::Global().GetCounter(
      "cgra_cache_misses_total", "mapping-cache probes that missed");
  telemetry::Histogram& hit_seconds =
      telemetry::MetricsRegistry::Global().GetHistogram(
          "cgra_cache_hit_seconds",
          {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1},
          "wall time of probes that hit (memory or disk)");
};

CacheMetrics& Metrics() {
  static CacheMetrics m;
  return m;
}

/// On-disk envelope: magic + version + winner + the (independently
/// versioned and checksummed) mapping blob. Bump on layout change so
/// old files decode-fail into misses.
constexpr std::string_view kDiskMagic = "CGRC";
constexpr std::uint32_t kDiskEnvelopeVersion = 1;

std::string EncodeDiskEntry(const MappingCache::Entry& entry) {
  telemetry::Span span("cache.serialize");
  ByteWriter w;
  w.Str(kDiskMagic);
  w.U32(kDiskEnvelopeVersion);
  w.Str(entry.winner);
  w.Str(SerializeMapping(entry.mapping));
  return w.Take();
}

std::optional<MappingCache::Entry> DecodeDiskEntry(std::string_view bytes) {
  telemetry::Span span("cache.deserialize");
  ByteReader r(bytes);
  std::string magic;
  std::uint32_t version = 0;
  MappingCache::Entry entry;
  std::string blob;
  if (!r.Str(magic) || magic != kDiskMagic) return std::nullopt;
  if (!r.U32(version) || version != kDiskEnvelopeVersion) return std::nullopt;
  if (!r.Str(entry.winner) || !r.Str(blob) || !r.AtEnd()) return std::nullopt;
  Result<Mapping> m = DeserializeMapping(blob);
  if (!m.ok()) return std::nullopt;
  entry.mapping = std::move(*m);
  return entry;
}

bool ReadFileBytes(const fs::path& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  out.clear();
  char buf[1 << 14];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

/// Writes via a uniquely named temp file + rename, so a concurrent
/// reader (or a crash mid-write) can never observe a partial entry.
bool WriteFileAtomic(const fs::path& path, std::string_view bytes) {
  static std::atomic<std::uint64_t> counter{0};
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  if (ec) return false;
  const fs::path tmp =
      path.string() +
      StrFormat(".tmp.%llu", static_cast<unsigned long long>(
                                 counter.fetch_add(1, std::memory_order_relaxed)));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return false;
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    fs::remove(tmp, ec);
    return false;
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

std::size_t RoundUpPow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

std::string MappingCacheKey(const Architecture& arch, const Dfg& dfg,
                            const MapperOptions& options,
                            std::string_view mapper_name) {
  ByteWriter w;
  w.Str("CGRAKEY");
  w.U32(kMappingCacheKeyVersion);
  w.U32(kMappingFormatVersion);  // payload format is part of the address
  arch.AppendCanonicalBytes(w);
  dfg.AppendCanonicalBytes(w);
  options.AppendCanonicalBytes(w);
  w.Str(mapper_name);
  return Hex16(Fnv1a64(w.bytes()));
}

std::string MappingCacheStats::ToJson() const {
  return StrFormat(
      "{\"lookups\":%llu,\"hits\":%llu,\"mem_hits\":%llu,"
      "\"disk_hits\":%llu,\"misses\":%llu,\"hit_rate\":%.4f,"
      "\"validate_failures\":%llu,\"decode_failures\":%llu,"
      "\"puts\":%llu,\"evictions\":%llu,\"disk_write_failures\":%llu}",
      static_cast<unsigned long long>(lookups),
      static_cast<unsigned long long>(hits()),
      static_cast<unsigned long long>(mem_hits),
      static_cast<unsigned long long>(disk_hits),
      static_cast<unsigned long long>(misses), hit_rate(),
      static_cast<unsigned long long>(validate_failures),
      static_cast<unsigned long long>(decode_failures),
      static_cast<unsigned long long>(puts),
      static_cast<unsigned long long>(evictions),
      static_cast<unsigned long long>(disk_write_failures));
}

MappingCache::MappingCache(MappingCacheOptions options)
    : options_(std::move(options)) {
  const std::size_t n = RoundUpPow2(options_.shards ? options_.shards : 1);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

MappingCache::Shard& MappingCache::ShardFor(const std::string& key) {
  return *shards_[Fnv1a64(key) & (shards_.size() - 1)];
}

std::size_t MappingCache::PerShardCapacity() const {
  const std::size_t per = options_.capacity / shards_.size();
  return per ? per : 1;
}

std::string MappingCache::DiskPath(const std::string& key) const {
  return options_.disk_dir + "/" + key.substr(0, 2) + "/" + key + ".bin";
}

std::optional<MappingCache::Entry> MappingCache::ReadDisk(
    const std::string& key, LookupInfo* info) {
  if (options_.disk_dir.empty()) return std::nullopt;
  std::string bytes;
  if (!ReadFileBytes(DiskPath(key), bytes)) return std::nullopt;
  std::optional<Entry> entry = DecodeDiskEntry(bytes);
  if (!entry) {
    // Corrupt or version-skewed: delete so the next Put can repopulate.
    std::error_code ec;
    std::filesystem::remove(DiskPath(key), ec);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.decode_failures;
    if (info) info->decode_failed = true;
  }
  return entry;
}

std::optional<MappingCache::Entry> MappingCache::Get(const std::string& key,
                                                     const Dfg& dfg,
                                                     const Architecture& arch,
                                                     LookupInfo* info) {
  telemetry::Span span("cache.probe");
  const std::uint64_t probe_start =
      telemetry::Enabled() ? telemetry::NowNs() : 0;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.lookups;
  }
  std::optional<Entry> candidate;
  Tier tier = Tier::kMemory;
  {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(std::string_view(key));
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      candidate = it->second->second;
    }
  }
  if (!candidate) {
    candidate = ReadDisk(key, info);
    tier = Tier::kDisk;
  }
  if (!candidate) {
    Metrics().misses.Add(1);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.misses;
    return std::nullopt;
  }

  if (Status s = ValidateMapping(dfg, arch, candidate->mapping); !s.ok()) {
    // A cached entry the target fabric rejects is poison, not data:
    // evict it everywhere and report a miss.
    EraseEverywhere(key);
    Metrics().misses.Add(1);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.validate_failures;
    ++stats_.misses;
    if (info) info->validate_failed = true;
    return std::nullopt;
  }

  if (tier == Tier::kDisk) PutMemory(key, *candidate);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (tier == Tier::kMemory) {
      ++stats_.mem_hits;
    } else {
      ++stats_.disk_hits;
    }
  }
  if (info) {
    info->hit = true;
    info->tier = tier;
  }
  Metrics().hits.Add(1);
  if (probe_start != 0) {
    Metrics().hit_seconds.Observe(
        static_cast<double>(telemetry::NowNs() - probe_start) * 1e-9);
  }
  return candidate;
}

void MappingCache::PutMemory(const std::string& key, Entry entry) {
  Shard& shard = ShardFor(key);
  std::size_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(std::string_view(key));
    if (it != shard.index.end()) {
      it->second->second = std::move(entry);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.emplace_front(key, std::move(entry));
      shard.index.emplace(std::string_view(shard.lru.front().first),
                          shard.lru.begin());
      while (shard.lru.size() > PerShardCapacity()) {
        shard.index.erase(std::string_view(shard.lru.back().first));
        shard.lru.pop_back();
        ++evicted;
      }
    }
  }
  if (evicted) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.evictions += evicted;
  }
}

void MappingCache::EraseEverywhere(const std::string& key) {
  {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(std::string_view(key));
    if (it != shard.index.end()) {
      auto node = it->second;
      shard.index.erase(it);
      shard.lru.erase(node);
    }
  }
  if (!options_.disk_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove(DiskPath(key), ec);
  }
}

void MappingCache::Put(const std::string& key, const Mapping& mapping,
                       std::string_view winner) {
  Entry entry;
  entry.mapping = mapping;
  entry.winner = std::string(winner);
  const bool to_disk = !options_.disk_dir.empty();
  const std::string encoded = to_disk ? EncodeDiskEntry(entry) : std::string();
  PutMemory(key, std::move(entry));
  bool disk_failed = false;
  if (to_disk) disk_failed = !WriteFileAtomic(DiskPath(key), encoded);
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.puts;
  if (disk_failed) ++stats_.disk_write_failures;
}

MappingCacheStats MappingCache::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

std::size_t MappingCache::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->lru.size();
  }
  return n;
}

void MappingCache::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->index.clear();
    shard->lru.clear();
  }
}

}  // namespace cgra
