// SandboxedMap: one mapper attempt in a fork()ed, rlimit-capped child.
//
// The escalation ladder for a broken mapper:
//   try/catch (SafeMap)  ->  process boundary (SandboxedMap)
// SafeMap handles exceptions; SandboxedMap survives everything else —
// SIGSEGV, stack overflow, allocation bombs, hard infinite loops — by
// running Map() in a child under support/subprocess and shipping the
// result back over a pipe in a tagged frame:
//
//   'M' + SerializeMapping(mapping)          mapper succeeded
//   'E' + <code byte> + <utf-8 message>      mapper failed normally
//
// The child prefixes that frame with its whole-Map AttemptRecord
// (mapping/observer.hpp):
//
//   'S' + <u32 LE length> + <record>
//   record = <u64 LE per counter, in kPerfCounterFields order>
//            + <u32 LE length> + <SearchLog JSON, empty when not collected>
//
// so a sandboxed attempt row carries the same router, tracker and
// solver counters as the in-process run would, and the search log when
// the parent attached an observer. Frames without the prefix still
// decode; a truncated or bad-length prefix classifies as kWireCorrupt
// like any other framing damage. Parent and child are the same binary
// image (fork without exec), so they agree on the counter table.
//
// Reusing the versioned+checksummed SerializeMapping wire format means
// a child that scribbles on its own heap before exiting produces a
// checksum mismatch — classified kWireCorrupt — rather than a
// plausible-looking wrong mapping in the parent.
//
// Determinism: the child runs the same code with the same options and
// seed, and the wire format round-trips bit-exactly, so a sandboxed
// win is digest-identical to the in-process one (the chaos gate
// asserts this).
#pragma once

#include "engine/engine.hpp"
#include "support/subprocess.hpp"

namespace cgra {

struct SandboxedMapResult {
  /// The mapper's result, reconstructed in the parent. Crashes map to
  /// kInternal (same code SafeMap uses, so RunWithRepair's crashed-
  /// mapper drop and the quarantine tracker treat both isolation
  /// levels uniformly); watchdog/CPU-limit kills and cancellation map
  /// to kResourceLimit.
  Result<Mapping> result;

  /// The raw process-level classification (signal name, OOM, timeout,
  /// wire corruption, ...). outcome.crash == kNone on a clean run.
  SandboxOutcome outcome;

  /// The child's whole-Map record, decoded from the frame prefix: its
  /// counter delta across Map() and, when collection was on, its search
  /// log (the child's per-attempt events die with its nulled observer).
  /// The engine stamps seconds and sandbox; empty after a crash.
  AttemptRecord record;

  /// True for outcomes that indicate a broken mapper and should count
  /// toward quarantine: signal, OOM, wire corruption, unexplained
  /// exit. Timeouts, cancellation and spawn failures are the budget's
  /// or the harness's fault, not the mapper's.
  bool fatal() const {
    switch (outcome.crash) {
      case SandboxCrash::kSignal:
      case SandboxCrash::kOom:
      case SandboxCrash::kWireCorrupt:
      case SandboxCrash::kExit:
        return true;
      default:
        return false;
    }
  }

  SandboxedMapResult() : result(Error::Internal("sandbox: not run")) {}
};

/// The "sandbox" value stamped on MapEvent / EngineAttempt /
/// MapTrace rows: "ok" for a clean sandboxed run, "signal:SIGSEGV"
/// style for signal kills, otherwise the SandboxCrashName.
std::string SandboxLabel(const SandboxOutcome& outcome);

/// Runs mapper.Map() in a sandboxed child. `options.deadline` bounds
/// the child's wall time (watchdog SIGKILL); `options.stop` is honoured
/// by the parent-side watchdog — the child's copy of the token is a
/// fork()ed snapshot that never sees the parent's flag flip, so
/// cancellation arrives as a kill, not a cooperative bail-out.
/// The child nulls out options.observer and options.mrrg_cache before
/// mapping: both are shared with other parent threads whose locks may
/// be mid-flight at the fork instant (per-attempt events from inside
/// the child are therefore absent; the engine synthesises one summary
/// attempt event from the shipped record in the parent instead).
SandboxedMapResult SandboxedMap(const Mapper& mapper, const Dfg& dfg,
                                const Architecture& arch,
                                const MapperOptions& options,
                                const SandboxLimits& limits);

/// Wire-frame helpers, exposed for tests. A non-empty `record` adds
/// the 'S' prefix described above; the framing treats it as opaque.
std::string EncodeSandboxFrame(const Result<Mapping>& result,
                               std::string_view record = {});
/// Decode failure (bad tag, bad code byte, checksum mismatch, empty,
/// truncated prefix) returns kInternal and sets *wire_corrupt. When
/// `record` is non-null it receives the 'S' prefix payload (cleared
/// first, so it is empty for unprefixed frames).
Result<Mapping> DecodeSandboxFrame(std::string_view bytes,
                                   bool* wire_corrupt,
                                   std::string* record = nullptr);

}  // namespace cgra
