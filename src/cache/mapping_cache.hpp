// Content-addressed mapping cache: the memoisation layer that turns
// the mapping framework into a serving system.
//
// Real deployments recompile the same (architecture, kernel, options)
// triples constantly, and the expensive half of Table I — the SAT /
// ILP exact formulations — pays seconds to minutes per query. This
// cache memoises final Mappings across two tiers:
//
//   * an in-memory sharded LRU (lock per shard, so racing engine runs
//     and batch workers don't serialise on one mutex), and
//   * an optional content-addressed on-disk store (one file per key,
//     written atomically via rename), which survives the process and
//     is shared by every job of a batch run.
//
// Keys are a stable 16-hex digest of
//   Architecture ⊕ FaultModel ⊕ Dfg ⊕ MapperOptions ⊕ mapper name
//   ⊕ key-format version
// built from the canonical byte encodings (support/bytes.hpp). The
// FaultModel rides inside Architecture::AppendCanonicalBytes, so a
// repair loop re-mapping a derated fabric can never be served the
// pre-fault entry.
//
// Integrity: every hit is re-validated with ValidateMapping against
// the caller's dfg and fabric before it is returned, and the on-disk
// blobs are versioned and checksummed — a stale, corrupt, truncated or
// version-skewed entry degrades to a miss and is evicted, never
// returned as a wrong mapping.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "arch/arch.hpp"
#include "ir/dfg.hpp"
#include "mapping/mapper.hpp"
#include "mapping/mapping.hpp"

namespace cgra {

/// Bump when the key derivation itself changes (fields added to any
/// canonical encoding keep their own version tags; this one covers the
/// composition). Old entries become unreachable, i.e. clean misses.
inline constexpr std::uint32_t kMappingCacheKeyVersion = 1;

/// The cache key: a stable 16-hex-digit digest over the canonical
/// encodings of the fabric (faults included), the kernel, the semantic
/// mapper options, the mapper (or portfolio) name, and the key-format
/// version. Pure function of its inputs — equal across processes.
std::string MappingCacheKey(const Architecture& arch, const Dfg& dfg,
                            const MapperOptions& options,
                            std::string_view mapper_name);

struct MappingCacheOptions {
  /// Total in-memory entries across all shards (per-shard share is
  /// capacity/shards, floored at 1).
  std::size_t capacity = 4096;

  /// Lock shards (rounded up to a power of two, min 1). 16 keeps
  /// contention negligible for a worker pool of typical size.
  std::size_t shards = 16;

  /// On-disk tier root; empty disables the disk tier. Entries live at
  /// `<disk_dir>/<key[0:2]>/<key>.bin` (fan-out keeps directories
  /// small), written to a temp file then renamed so readers never see
  /// a partial write.
  std::string disk_dir;
};

/// Monotonic counters; snapshot via MappingCache::stats(). Invariant:
/// lookups == mem_hits + disk_hits + misses; the failure counters are
/// diagnostics for entries that degraded to misses.
struct MappingCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t mem_hits = 0;
  std::uint64_t disk_hits = 0;            ///< served from disk (then promoted)
  std::uint64_t misses = 0;
  std::uint64_t validate_failures = 0;    ///< hit rejected by ValidateMapping
  std::uint64_t decode_failures = 0;      ///< corrupt/version-skewed disk blob
  std::uint64_t puts = 0;
  std::uint64_t evictions = 0;            ///< LRU evictions (memory tier)
  std::uint64_t disk_write_failures = 0;  ///< Put could not persist (non-fatal)

  std::uint64_t hits() const { return mem_hits + disk_hits; }
  double hit_rate() const {
    return lookups ? static_cast<double>(hits()) / static_cast<double>(lookups)
                   : 0.0;
  }
  std::string ToJson() const;
};

class MappingCache {
 public:
  explicit MappingCache(MappingCacheOptions options = {});

  MappingCache(const MappingCache&) = delete;
  MappingCache& operator=(const MappingCache&) = delete;

  /// What a cached entry carries beyond the mapping itself.
  struct Entry {
    Mapping mapping;
    std::string winner;  ///< name of the mapper that produced it
  };

  enum class Tier { kMemory, kDisk };

  /// Per-lookup outcome detail (for trace events); all-false on a
  /// plain miss.
  struct LookupInfo {
    bool hit = false;
    Tier tier = Tier::kMemory;
    bool validate_failed = false;  ///< candidate found but rejected + evicted
    bool decode_failed = false;    ///< disk blob corrupt/version-skewed
  };

  /// Looks `key` up in memory, then on disk. A disk hit is promoted to
  /// the memory tier. Every candidate must pass ValidateMapping(dfg,
  /// arch, ...) against the caller's fabric (on arch.mrrg()) or it is
  /// evicted from BOTH tiers and the lookup reports a miss. Thread-safe.
  std::optional<Entry> Get(const std::string& key, const Dfg& dfg,
                           const Architecture& arch,
                           LookupInfo* info = nullptr);

  /// Inserts/overwrites `key` in the memory tier and, when configured,
  /// persists it to disk (atomic rename; a failed write only bumps
  /// disk_write_failures). Thread-safe.
  void Put(const std::string& key, const Mapping& mapping,
           std::string_view winner);

  /// Snapshot of the counters.
  MappingCacheStats stats() const;

  /// Entries currently resident in the memory tier.
  std::size_t size() const;

  /// Drops the memory tier (disk entries survive and can be re-read).
  void Clear();

  const MappingCacheOptions& options() const { return options_; }

 private:
  struct Shard {
    std::mutex mu;
    /// Front = most recently used. The list owns the entries; the index
    /// maps key -> list node.
    std::list<std::pair<std::string, Entry>> lru;
    std::unordered_map<std::string_view,
                       std::list<std::pair<std::string, Entry>>::iterator>
        index;
  };

  Shard& ShardFor(const std::string& key);
  std::size_t PerShardCapacity() const;
  std::string DiskPath(const std::string& key) const;
  void PutMemory(const std::string& key, Entry entry);
  void EraseEverywhere(const std::string& key);
  std::optional<Entry> ReadDisk(const std::string& key, LookupInfo* info);

  MappingCacheOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex stats_mu_;
  MappingCacheStats stats_;
};

}  // namespace cgra
