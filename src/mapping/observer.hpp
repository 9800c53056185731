// Mapping observability: a progress-event sink for mappers.
//
// The survey's Table I bench used to report only that an exact cell
// timed out; with an observer attached the harness can say *why*: which
// II attempts ran, how long each took, which error ended them, and how
// hard the router, tracker and backing solver worked. MapperOptions
// carries an optional MapObserver*; the attempt bracket ObservedAttempt
// (mappers/common) emits one kAttemptStart / kAttemptDone pair per II
// tried, the done event carrying the attempt's AttemptRecord, and the
// portfolio engine (src/engine) brackets each mapper with kMapperStart /
// kMapperDone.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "mapping/perf.hpp"
#include "support/status.hpp"
#include "telemetry/search_log.hpp"

namespace cgra {

/// What the attempt bracket records about one attempt: its effort,
/// its wall time and how to join it to other artefacts. Every
/// kAttemptDone event carries one, whichever path produced it: an
/// in-process ObservedAttempt, or the engine's summary row for a
/// sandboxed child, which ships its whole-Map record home in the wire
/// frame (engine/sandbox.hpp).
struct AttemptRecord {
  /// Always-on effort: the delta of the worker thread's PerfCounters
  /// across the attempt (router, tracker and solver; mapping/perf.hpp).
  PerfCounters perf;
  /// Telemetry correlation id (telemetry::NewCorrelation) shared with
  /// the `attempt` span, so a MapTrace row can be joined against the
  /// Chrome-trace spans and metrics behind it. 0 when tracing was off.
  std::uint64_t correlation = 0;
  double seconds = 0.0;  ///< wall time of the attempt (or mapper, cache probe)
  /// Process-isolation outcome (see EngineAttempt::sandbox for the
  /// vocabulary). Empty for in-process runs.
  std::string sandbox;
  /// Search introspection (telemetry/search_log.hpp): placement
  /// counters, fabric congestion heatmap, solver progress, cost curves.
  /// Set when the attempt ran with an observer attached and
  /// SearchDetail was not kOff; null otherwise.
  std::shared_ptr<const telemetry::SearchLog> search;
};

/// One progress event. Which fields are meaningful depends on `kind`;
/// unused numeric fields keep their defaults. kMapperDone fills
/// `seconds` and `sandbox` of the record, kCacheLookup only `seconds`.
struct MapEvent : AttemptRecord {
  enum class Kind {
    kMapperStart,  ///< a mapper began (engine-emitted)
    kAttemptStart, ///< one II attempt began
    kAttemptDone,  ///< one II attempt finished (ok or error filled in)
    kMapperDone,   ///< a mapper finished (ok/error + total seconds)
    /// One mapping-cache probe (engine-emitted, src/cache). Field
    /// reuse: `message` holds the 16-hex cache key, `mapper` the tier
    /// that answered ("mem"/"disk", empty on a miss), `ok` whether the
    /// lookup was served from cache, and `error_code` is kInternal
    /// when a candidate entry was found but degraded to a miss
    /// (validation or decode failure). MapTrace::ToJson serialises
    /// these as the "cache" array.
    kCacheLookup,
  };

  Kind kind = Kind::kMapperStart;
  std::string mapper;                     ///< Mapper::name()
  int ii = -1;                            ///< attempted II (-1: not an attempt)
  bool ok = false;                        ///< kAttemptDone / kMapperDone
  std::optional<Error::Code> error_code;  ///< failure tag when !ok
  std::string message;                    ///< error message
  int repair_round = 0;                   ///< RunWithRepair round (0 = first try)
  std::string fault_digest;               ///< FaultModel::Digest() of the fabric
};

/// Progress sink. The portfolio engine invokes a single observer from
/// every racing mapper thread concurrently, so implementations MUST be
/// thread-safe (MapTrace in src/engine locks internally).
class MapObserver {
 public:
  virtual ~MapObserver() = default;
  virtual void OnEvent(const MapEvent& event) = 0;
};

/// Null-safe notification helper used by mappers.
inline void NotifyObserver(MapObserver* observer, const MapEvent& event) {
  if (observer) observer->OnEvent(event);
}

}  // namespace cgra
