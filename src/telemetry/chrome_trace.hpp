// Chrome trace-event export for the span tracer.
//
// Serialises drained SpanRecords as the Trace Event Format's JSON
// object form ({"traceEvents":[...]}) with balanced duration-begin /
// duration-end ("B"/"E") pairs, which chrome://tracing and Perfetto
// both load directly. Every span contributes one B and one E event on
// its thread's track, ordered so that nesting reconstructs exactly
// (ties at the same microsecond are broken by recorded span depth).
// Metadata events name the process and threads, and an "otherData"
// object carries the wall-clock anchor and the ring-overflow drop
// count so a truncated trace is detectable.
//
// scripts/check_trace_json.py validates this schema in CI;
// docs/OBSERVABILITY.md documents it for humans.
#pragma once

#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace cgra::telemetry {

/// Renders `spans` as a complete Chrome trace JSON document.
/// `wall_anchor_micros` is stamped into otherData; `dropped` is the
/// ring-overflow count (0 = the trace is complete).
std::string ChromeTraceJson(const std::vector<SpanRecord>& spans,
                            std::uint64_t dropped,
                            std::int64_t wall_anchor_micros);

/// Drains the global TraceSink and writes the trace to `path`.
/// Returns false when the file cannot be written.
bool WriteChromeTrace(const std::string& path);

}  // namespace cgra::telemetry
