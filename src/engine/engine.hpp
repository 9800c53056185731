// MappingEngine: the concurrent portfolio runner.
//
// Twenty years of CGRA mapping produced no single winner: greedy
// heuristics finish in microseconds but give up on congested fabrics,
// exact ILP/SAT/CP formulations prove optimality but blow through any
// time budget on large kernels. The practical answer — run several
// techniques at once and take the first (or best) valid mapping — is
// what this engine implements on top of the shared ThreadPool.
//
// Mechanics:
//   * Each portfolio entry runs Mapper::Map() in its own pool task,
//     with its own seed and the engine's global Deadline.
//   * All entries share one StopSource; the first success requests
//     stop, and every cooperative mapper — heuristic escalation loops,
//     annealers, B&B, the SAT/SMT/CP/ILP inner loops — bails out with
//     Error::Code::kResourceLimit. Entries that succeed before they see
//     the stop compete on II (lowest wins, ties by portfolio order).
//   * MRRG construction is memoised in a thread-safe MrrgCache so the
//     racers don't rebuild the same resource graph N times.
//   * Every attempt is reported to the caller's MapObserver (use a
//     MapTrace to get a JSON post-mortem), bracketed by engine-emitted
//     kMapperStart / kMapperDone events.
//
// Set race=false for a deterministic sequential sweep (same seed =>
// same result), which is what the reproducibility tests rely on.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arch/fault.hpp"
#include "arch/mrrg_cache.hpp"
#include "cache/mapping_cache.hpp"
#include "engine/quarantine.hpp"
#include "mapping/mapper.hpp"
#include "mapping/observer.hpp"
#include "support/stop_token.hpp"
#include "support/subprocess.hpp"
#include "support/timer.hpp"

namespace cgra {

/// How hard the engine isolates portfolio entries from the process.
enum class IsolationMode {
  /// In-process try/catch only (SafeMap). A segfaulting or wedged
  /// mapper takes the process down / holds its thread to the deadline.
  kNone,
  /// Mappers with a crash on record (QuarantineTracker::
  /// HasCrashHistory) run sandboxed; everyone else stays in-process.
  /// An in-process kInternal crash records history, so a thrower
  /// escalates itself into the sandbox on its next run.
  kCrashyOnly,
  /// Every attempt runs in a fork()ed, rlimit-capped child
  /// (SandboxedMap). The safe default for serving untrusted portfolios;
  /// costs one fork + a private MRRG build per attempt.
  kAll,
};

/// "none" / "crashy_only" / "all".
std::string_view IsolationModeName(IsolationMode mode);
/// Inverse of IsolationModeName; false on unknown names.
bool ParseIsolationMode(std::string_view name, IsolationMode* out);

struct EngineOptions {
  /// Global wall-clock budget shared by the whole portfolio.
  Deadline deadline;

  /// II search window handed to every portfolio member.
  int min_ii = 1;
  int max_ii = 32;
  int extra_slack = 2;

  /// Base RNG seed; entry i runs with seed + i so racers diversify but
  /// reruns reproduce.
  std::uint64_t seed = 0xC62A5EEDULL;

  /// true: run entries concurrently, one engine-owned worker per
  /// entry. false: run them one by one on the calling thread
  /// (deterministic; entries after the first success are skipped, not
  /// raced).
  bool race = true;

  /// Observer for the merged event stream (e.g. a MapTrace); may be
  /// nullptr. Must be thread-safe when race=true.
  MapObserver* observer = nullptr;

  /// MRRG memoisation shared across entries; nullptr = engine-owned
  /// per-Run cache.
  MrrgCache* mrrg_cache = nullptr;

  /// Optional result memoisation (src/cache): before racing, Run()
  /// probes the cache under a key derived from (arch ⊕ faults ⊕ dfg ⊕
  /// the engine's II window/slack/seed ⊕ the portfolio's names, in
  /// order); a validated hit short-circuits the whole race, and every
  /// win is stored back. RunWithRepair shares the pointer with its
  /// per-round engines — each round's fabric carries its fault model
  /// in the key, so a post-fault round can never be served the
  /// pre-fault entry. nullptr disables memoisation. The cache is
  /// thread-safe; one instance may back any number of engines.
  MappingCache* cache = nullptr;

  /// External cancellation: the engine forwards a request on this token
  /// to every running entry.
  StopToken stop;

  /// Process-level crash isolation (see IsolationMode). With anything
  /// other than kNone, crashes are classified (signal / OOM / timeout /
  /// wire corruption), stamped on the attempt ("sandbox" in MapTrace
  /// JSON), counted in telemetry, and fed to the quarantine tracker,
  /// which benches repeat offenders with exponential backoff.
  IsolationMode isolation = IsolationMode::kNone;

  /// Resource caps applied inside each sandboxed child (0 = inherit).
  SandboxLimits sandbox_limits;

  /// Crash-history / quarantine state. nullptr = the process-wide
  /// QuarantineTracker::Global(), which is what a long-running daemon
  /// wants (state survives across requests); tests point this at a
  /// private tracker. Ignored when isolation == kNone.
  QuarantineTracker* quarantine = nullptr;
};

/// Per-entry record in the engine result.
struct EngineAttempt {
  std::string mapper;
  bool ok = false;
  int ii = -1;           ///< achieved II when ok
  Error error;           ///< failure cause when !ok
  double seconds = 0.0;  ///< wall time of this entry's Map() call
  /// Process-isolation outcome: empty when the entry ran in-process,
  /// "ok" for a clean sandboxed run, "signal:SIGSEGV" / "oom" /
  /// "timeout" / "wire-corrupt" / "exit" / "cancelled" for sandbox
  /// deaths, "quarantined" when the entry was skipped on the bench.
  std::string sandbox;
};

struct EngineResult {
  Mapping mapping;         ///< valid only when the run succeeded
  std::string winner;      ///< name of the mapper that produced it
  double seconds = 0.0;    ///< wall time of the whole Run()
  std::vector<EngineAttempt> attempts;  ///< one per portfolio entry, in
                                        ///< portfolio order (a cache hit
                                        ///< short-circuits: one synthetic
                                        ///< ok attempt for the winner)
  /// Mapping-cache interaction of this run; key is empty when
  /// EngineOptions::cache was null.
  bool cache_hit = false;
  std::string cache_key;
};

/// Deployment check for MappingEngine::RunWithRepair.
struct RepairOptions {
  /// Deployment check run after a round produces a validated mapping
  /// (e.g. compile + simulate + compare against the reference; see
  /// MappingMatchesReference in sim/harness.hpp). Return Ok to accept
  /// the mapping. To demand another round, return an error AND add the
  /// newly diagnosed faults to `faults`: a verifier that rejects
  /// without diagnosing anything new aborts the loop, because
  /// re-mapping the unchanged fabric cannot make progress. Null: any
  /// validated mapping is accepted.
  std::function<Status(const Architecture& arch, const Mapping& mapping,
                       FaultModel& faults)>
      verifier;
};

/// What happened in one round of the repair loop.
struct RepairRound {
  int round = 0;
  std::string fault_digest;  ///< FaultModel::Digest() this round mapped under
  FaultModel faults;         ///< the fault model in force this round
  bool mapped = false;       ///< the portfolio produced a validated mapping
  bool verified = false;     ///< ... and the verifier accepted it
  std::string detail;        ///< failure / miscompare note when !verified
  double seconds = 0.0;      ///< wall time of this round
};

struct RepairResult {
  EngineResult result;  ///< the accepted round's engine result

  /// The derated fabric the accepted mapping targets. Compile, encode
  /// and simulate against THIS architecture — not the healthy one —
  /// or register indices and mux selects will disagree.
  std::shared_ptr<const Architecture> arch;

  FaultModel faults;  ///< the final accumulated fault model
  int rounds = 0;     ///< rounds executed (>= 1)
  std::vector<RepairRound> history;  ///< one record per executed round
  double seconds = 0.0;              ///< wall time of the whole repair loop
};

/// Crash isolation: runs mapper.Map() and converts anything thrown
/// into a kInternal failure attributed to that mapper, so one broken
/// implementation loses its race (or batch job) instead of taking the
/// process down. The engine wraps every portfolio entry in this;
/// tools/cgra_batch reuses it for direct single-mapper jobs.
Result<Mapping> SafeMap(const Mapper& mapper, const Dfg& dfg,
                        const Architecture& arch,
                        const MapperOptions& options);

class MappingEngine {
 public:
  explicit MappingEngine(EngineOptions options = {});

  /// Race `portfolio` (non-owning mapper pointers, e.g. from
  /// MapperRegistry) on `dfg` x `arch`. Returns the winning mapping or,
  /// when every entry fails, an aggregate error: kResourceLimit if any
  /// entry ran out of time/was cancelled (the budget, not the problem,
  /// was the binding constraint), else kUnmappable.
  Result<EngineResult> Run(const Dfg& dfg, const Architecture& arch,
                           const std::vector<const Mapper*>& portfolio) const;

  /// Convenience: look the portfolio up by name in MapperRegistry::
  /// Global(). Unknown names are an error.
  Result<EngineResult> Run(const Dfg& dfg, const Architecture& arch,
                           const std::vector<std::string>& mapper_names) const;

  /// Fault-tolerant mapping with a bounded repair loop of at most 4
  /// rounds. Each round derates `arch` with the accumulated FaultModel
  /// (starting from `known_faults` plus whatever `arch` already
  /// carries), races the portfolio on the derated fabric with an equal
  /// share (at least 0.25 s) of the remaining deadline and an II
  /// ceiling that grows by 2 per round, validates the winner, and hands
  /// it to `repair.verifier`. A verifier miscompare that diagnoses new
  /// faults triggers the next round; mappers that crashed
  /// (kInternal) are dropped from later rounds. Every event of round k
  /// reaches the observer with repair_round = k and the round's fault
  /// digest. Fails with the last round's error code once the rounds,
  /// the deadline, or an undiagnosable miscompare exhaust the loop.
  Result<RepairResult> RunWithRepair(
      const Dfg& dfg, const Architecture& arch, const FaultModel& known_faults,
      const std::vector<const Mapper*>& portfolio,
      const RepairOptions& repair = {}) const;

  /// Name-based convenience overload (MapperRegistry::Global()).
  Result<RepairResult> RunWithRepair(
      const Dfg& dfg, const Architecture& arch, const FaultModel& known_faults,
      const std::vector<std::string>& mapper_names,
      const RepairOptions& repair = {}) const;

  const EngineOptions& options() const { return options_; }

 private:
  Result<EngineResult> RunRacing(const Dfg& dfg, const Architecture& arch,
                                 const std::vector<const Mapper*>& portfolio,
                                 MrrgCache& cache) const;
  Result<EngineResult> RunSequential(
      const Dfg& dfg, const Architecture& arch,
      const std::vector<const Mapper*>& portfolio, MrrgCache& cache) const;

  EngineOptions options_;
};

}  // namespace cgra
