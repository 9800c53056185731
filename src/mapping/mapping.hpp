// The mapping result type (§II-B "Mapping"): "a binding (and
// scheduling) of operations of the application on the hardware
// resources while guaranteeing the dependencies".
//
// A Mapping holds, per DFG op, the (cell, cycle) pair — the "spatial
// and temporal coordinates" of §II-C — plus, per data edge, the route
// through the time-extended resource graph. Under modulo scheduling
// the schedule repeats every `ii` cycles; `length` is the span of one
// iteration (length == ii for non-pipelined execution, length > ii
// when iterations overlap as in Fig. 3's modulo schedule).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "arch/arch.hpp"
#include "arch/mrrg.hpp"
#include "ir/dfg.hpp"
#include "support/status.hpp"

namespace cgra {

/// Spatial + temporal coordinates of one op.
struct Placement {
  int cell = -1;  ///< -1 for folded ops (constants, hw-loop counter)
  int time = -1;  ///< absolute cycle within one iteration's schedule
};

/// One step of a value's journey: MRRG node occupied at absolute time.
struct RouteStep {
  int node = -1;
  int time = -1;

  bool operator==(const RouteStep&) const = default;
};

/// The route of one data edge: starts at the producer cell's HOLD at
/// t_producer+1 (the latch), ends at a hold readable by the consumer
/// at t_consumer. Folded producers have empty routes.
struct Route {
  std::vector<RouteStep> steps;
};

struct Mapping {
  int ii = 1;
  int length = 1;
  std::vector<Placement> place;  ///< indexed by OpId
  /// Routes aligned with Dfg::Edges() order;
  /// ordering-only edges keep empty routes.
  std::vector<Route> routes;

  const Placement& of(OpId op) const { return place[static_cast<size_t>(op)]; }
};

/// Quality metrics reported by the benches (§II-C: "such that the
/// application executes as fast as possible" — II is the headline
/// number; the rest explain it).
struct MappingStats {
  int ii = 0;
  int length = 0;
  int ops_mapped = 0;
  int cells_used = 0;
  int route_steps = 0;       ///< total HOLD/RT slot-occupancies
  double fu_utilization = 0; ///< ops / (cells * ii)
  /// Crude energy proxy: active FU slots + routed register writes +
  /// configuration bits fetched per iteration.
  double energy_proxy = 0;
};
MappingStats ComputeStats(const Dfg& dfg, const Architecture& arch,
                          const Mapping& mapping);

/// Human-readable schedule table (cells x time), used by Fig. 3's bench
/// and the quickstart example.
std::string RenderSchedule(const Dfg& dfg, const Architecture& arch,
                           const Mapping& mapping);

// ---- binary round-trip (the mapping cache's on-disk payload) ---------------

/// Bump when the Mapping layout or the wire format changes: a blob
/// written under any other version fails to decode, so every on-disk
/// cache entry from before the change degrades to a clean miss.
inline constexpr std::uint32_t kMappingFormatVersion = 1;

/// Versioned, checksummed, platform-independent binary encoding
/// (magic + version + fields + FNV-1a checksum; support/bytes.hpp).
std::string SerializeMapping(const Mapping& mapping);

/// Inverse of SerializeMapping. Rejects wrong magic, wrong version,
/// checksum mismatch, truncation, and trailing garbage with
/// kInvalidArgument — callers (the cache) treat any failure as a miss.
/// A successful decode is structurally sound but NOT semantically
/// checked; run ValidateMapping against the target fabric before
/// trusting the result.
Result<Mapping> DeserializeMapping(std::string_view bytes);

/// Stable 16-hex-digit digest of a mapping's serialized payload; the
/// batch report uses it to prove warm-cache runs are bit-identical.
std::string MappingDigestHex(const Mapping& mapping);

}  // namespace cgra
