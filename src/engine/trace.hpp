// MapTrace: the recording MapObserver behind the engine's
// observability story.
//
// Collects every MapEvent emitted by racing mappers — attempt starts
// and ends with their AttemptRecords (wall time, router/tracker/solver
// counters, search log), failure codes, and the engine's own mapper
// start/done brackets — and serialises them to JSON so benches can
// report *why* a Table-I cell timed out (which II attempts ran, what
// each died of, how many solver conflicts it burned) rather than just
// that it did.
//
// Thread-safe: OnEvent locks, so one trace can be shared by the whole
// portfolio. Events keep arrival order, which interleaves mappers
// under racing; consumers group by (mapper, ii).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "mapping/observer.hpp"

namespace cgra {

class JsonWriter;  // support/json.hpp

/// Writes the router/tracker counters of `perf` as keys of the open
/// JSON object: the "perf" object of MapTrace rows and the counter
/// columns of BENCH_perf.json both come from here.
void WritePerfCounters(JsonWriter& w, const PerfCounters& perf);

class MapTrace final : public MapObserver {
 public:
  void OnEvent(const MapEvent& event) override;

  /// Snapshot of everything recorded so far, in arrival order.
  std::vector<MapEvent> events() const;

  /// Number of finished II attempts (kAttemptDone events).
  int attempt_count() const;

  /// One row per finished attempt (kAttemptDone), in arrival order:
  /// the attempt's record plus who ran it and how it ended.
  struct Attempt : AttemptRecord {
    std::string mapper;
    int ii = -1;
    bool ok = false;
    std::string error_code;    ///< Error::CodeName, empty when ok
    std::string message;
    int round = 0;             ///< RunWithRepair round (0 = first try)
    std::string fault_digest;  ///< fabric FaultModel digest at that round
    /// perf.solver_steps, or -1 when no solver run finished during the
    /// attempt (heuristics, and exact attempts that stopped before or
    /// inside their solve).
    std::int64_t solver_steps = -1;
  };
  std::vector<Attempt> Attempts() const;

  /// Sum of the counters over every finished attempt.
  PerfCounters TotalPerf() const;

  /// The whole trace as a JSON object:
  ///   {"attempts":[{"mapper":...,"ii":...,"ok":...,"error":...,
  ///                 "seconds":...,"solver_steps":...,
  ///                 "round":...,"fault_digest":...,
  ///                 "perf":{"router_queries":...,...}}, ...],
  ///    "mappers":[{"name":...,"ok":...,"seconds":...,"error":...,
  ///                "message":...,"round":...,"fault_digest":...}, ...],
  ///    "cache":[{"key":...,"hit":...,"tier":...,"degraded":...,
  ///              "seconds":...,"round":...}, ...]}
  /// "mappers" holds the kMapperDone brackets (present when the engine
  /// drove the run); "attempts" the per-II records. A plain Run stamps
  /// round 0 and an empty digest; RunWithRepair stamps each repair
  /// round's index and fault-model digest so post-mortems distinguish
  /// "round 0 on a healthy fabric" from "round 2 after 3 faults".
  /// "cache" holds one row per mapping-cache probe (kCacheLookup,
  /// emitted when EngineOptions::cache is set): tier is "mem"/"disk"
  /// on a hit, and degraded marks a candidate that validation or
  /// decoding rejected into a miss. Omitted when no probe happened.
  /// When span tracing was on during the run, each attempt row also
  /// carries "corr": the telemetry correlation id shared with that
  /// attempt's spans in the Chrome trace (join key across the two
  /// artefacts). With process isolation on (EngineOptions::isolation)
  /// attempt and mapper rows additionally carry "sandbox": "ok" for a
  /// clean sandboxed run, "signal:SIGSEGV" / "oom" / "timeout" /
  /// "wire-corrupt" for classified deaths, and "quarantined" for
  /// entries the bench skipped; absent for in-process runs.
  /// When search introspection was collected, an attempt row carries
  /// "search": the schema-versioned SearchLog object
  /// (telemetry/search_log.hpp; docs/OBSERVABILITY.md documents the
  /// schema). Absent when collection was off or nothing was recorded.
  /// Serialisation goes through support/json's JsonWriter.
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  std::vector<MapEvent> events_;
};

}  // namespace cgra
