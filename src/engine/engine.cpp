#include "engine/engine.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "engine/sandbox.hpp"
#include "mapping/validator.hpp"
#include "mappers/registry.hpp"
#include "support/str.hpp"
#include "support/thread_pool.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace cgra {

std::string_view IsolationModeName(IsolationMode mode) {
  switch (mode) {
    case IsolationMode::kNone: return "none";
    case IsolationMode::kCrashyOnly: return "crashy_only";
    case IsolationMode::kAll: return "all";
  }
  return "none";
}

bool ParseIsolationMode(std::string_view name, IsolationMode* out) {
  if (name == "none") {
    *out = IsolationMode::kNone;
  } else if (name == "crashy_only" || name == "crashy-only") {
    *out = IsolationMode::kCrashyOnly;
  } else if (name == "all") {
    *out = IsolationMode::kAll;
  } else {
    return false;
  }
  return true;
}

// A portfolio entry that throws (or otherwise escapes Map() with an
// exception) must lose the race, not take the pool — and with it the
// process — down.
Result<Mapping> SafeMap(const Mapper& mapper, const Dfg& dfg,
                        const Architecture& arch, const MapperOptions& mo) {
  try {
    return mapper.Map(dfg, arch, mo);
  } catch (const std::exception& e) {
    return Error::Internal(
        StrFormat("mapper %s threw: %s", mapper.name().c_str(), e.what()));
  } catch (...) {
    return Error::Internal(StrFormat("mapper %s threw a non-std exception",
                                     mapper.name().c_str()));
  }
}

namespace {

// RunWithRepair's policy: at most this many mapping rounds (the first
// try plus repairs); the II ceiling grows by kRepairIiStep per round,
// since a fabric with dead resources often needs more time-sharing
// than the healthy window allowed; and each round gets at least
// kMinRoundSeconds of the remaining deadline, so late rounds are not
// starved into instant kResourceLimit failures.
constexpr int kRepairRounds = 4;
constexpr int kRepairIiStep = 2;
constexpr double kMinRoundSeconds = 0.25;

MapperOptions EntryOptions(const EngineOptions& eo, std::size_t i,
                           StopToken stop, MrrgCache* cache) {
  MapperOptions mo;
  mo.min_ii = eo.min_ii;
  mo.max_ii = eo.max_ii;
  mo.extra_slack = eo.extra_slack;
  mo.deadline = eo.deadline;
  mo.seed = eo.seed + static_cast<std::uint64_t>(i);
  mo.stop = std::move(stop);
  mo.observer = eo.observer;
  mo.mrrg_cache = cache;
  return mo;
}

void EmitMapperStart(MapObserver* obs, const Mapper& mapper) {
  MapEvent e;
  e.kind = MapEvent::Kind::kMapperStart;
  e.mapper = mapper.name();
  NotifyObserver(obs, e);
}

void EmitMapperDone(MapObserver* obs, const Mapper& mapper,
                    const Result<Mapping>& result, double seconds,
                    const std::string& sandbox = {}) {
  MapEvent e;
  e.kind = MapEvent::Kind::kMapperDone;
  e.mapper = mapper.name();
  e.ok = result.ok();
  e.seconds = seconds;
  e.sandbox = sandbox;
  if (result.ok()) {
    e.ii = result->ii;
  } else {
    e.error_code = result.error().code;
    e.message = result.error().message;
  }
  NotifyObserver(obs, e);
}

/// What one portfolio entry produced, however it ran.
struct EntryOutcome {
  Result<Mapping> result;
  double seconds = 0.0;
  std::string sandbox;  ///< "" in-process; see EngineAttempt::sandbox

  EntryOutcome() : result(Error::Internal("entry did not run")) {}
};

/// A sandboxed child maps with a nulled observer, so its per-II
/// attempt events die with it. The parent synthesises one summary
/// kAttemptDone from the child's shipped whole-Map `record` (empty for
/// a crashed or quarantined entry), stamped with the entry's wall time
/// and isolation classification — the row the chaos gate greps
/// MapTrace JSON for.
void EmitSandboxAttempt(MapObserver* obs, const Mapper& mapper,
                        const EntryOutcome& out, AttemptRecord record = {}) {
  MapEvent e;
  static_cast<AttemptRecord&>(e) = std::move(record);
  e.seconds = out.seconds;
  e.sandbox = out.sandbox;
  e.kind = MapEvent::Kind::kAttemptDone;
  e.mapper = mapper.name();
  e.ok = out.result.ok();
  if (out.result.ok()) {
    e.ii = out.result->ii;
  } else {
    e.error_code = out.result.error().code;
    e.message = out.result.error().message;
  }
  NotifyObserver(obs, e);
}

/// Runs one portfolio entry under the engine's isolation policy:
/// quarantine check, sandbox-or-in-process dispatch, crash accounting,
/// observer events and metrics. Called from a pool task when racing
/// and from the calling thread when sequential.
EntryOutcome ExecuteEntry(const EngineOptions& eo, const Mapper& mapper,
                          const Dfg& dfg, const Architecture& arch,
                          const MapperOptions& mo) {
  auto& metrics = telemetry::MetricsRegistry::Global();
  QuarantineTracker* quarantine =
      eo.isolation == IsolationMode::kNone
          ? nullptr
          : (eo.quarantine ? eo.quarantine : &QuarantineTracker::Global());

  EntryOutcome out;
  EmitMapperStart(eo.observer, mapper);
  WallTimer timer;

  // Benched mappers don't run at all: the whole point of quarantine is
  // to stop paying the fork + deadline-kill tax for known offenders.
  double bench_left = 0.0;
  if (quarantine && quarantine->IsQuarantined(mapper.name(), &bench_left)) {
    metrics
        .GetCounter("engine_mapper_quarantined_total",
                    "portfolio entries skipped because the mapper is "
                    "quarantined after repeated crashes")
        .Add();
    out.sandbox = "quarantined";
    out.result = Error::ResourceLimit(
        StrFormat("mapper %s quarantined after repeated crashes "
                  "(%.1fs until probation)",
                  mapper.name().c_str(), bench_left));
    out.seconds = timer.Seconds();
    EmitSandboxAttempt(eo.observer, mapper, out);
    EmitMapperDone(eo.observer, mapper, out.result, out.seconds, out.sandbox);
    return out;
  }

  const bool sandboxed =
      eo.isolation == IsolationMode::kAll ||
      (eo.isolation == IsolationMode::kCrashyOnly && quarantine &&
       quarantine->HasCrashHistory(mapper.name()));

  telemetry::Span mapper_span("mapper", mapper.name());
  if (sandboxed) {
    telemetry::Span sandbox_span("sandbox", mapper.name());
    SandboxedMapResult sr =
        SandboxedMap(mapper, dfg, arch, mo, eo.sandbox_limits);
    out.result = std::move(sr.result);
    out.sandbox = SandboxLabel(sr.outcome);
    out.seconds = timer.Seconds();

    metrics
        .GetCounter("engine_sandbox_runs_total",
                    "mapper attempts executed in a sandboxed child")
        .Add();
    switch (sr.outcome.crash) {
      case SandboxCrash::kSignal:
        metrics
            .GetCounter("engine_sandbox_signal_total",
                        "sandboxed attempts killed by a signal")
            .Add();
        break;
      case SandboxCrash::kOom:
        metrics
            .GetCounter("engine_sandbox_oom_total",
                        "sandboxed attempts that exhausted the memory rlimit")
            .Add();
        break;
      case SandboxCrash::kTimeout:
        metrics
            .GetCounter("engine_sandbox_timeout_total",
                        "sandboxed attempts killed by the watchdog or "
                        "CPU rlimit")
            .Add();
        break;
      case SandboxCrash::kWireCorrupt:
        metrics
            .GetCounter("engine_sandbox_wire_corrupt_total",
                        "sandboxed attempts whose result frame failed to "
                        "decode")
            .Add();
        break;
      default:
        break;
    }
    if (sr.fatal()) {
      metrics
          .GetCounter("engine_sandbox_crash_total",
                      "sandboxed attempts that died of a mapper bug "
                      "(signal/oom/wire-corrupt/exit)")
          .Add();
      if (quarantine) quarantine->RecordCrash(mapper.name());
    } else if (!out.result.ok() && sr.outcome.ok() &&
               out.result.error().code == Error::Code::kInternal &&
               quarantine) {
      // The child survived but SafeMap (running inside it) caught a
      // crash — e.g. an alloc bomb whose bad_alloc was intercepted
      // before it escaped the closure. Same verdict the in-process
      // path gives kInternal: the mapper is broken, count it.
      quarantine->RecordCrash(mapper.name());
    } else if (out.result.ok() && quarantine) {
      quarantine->RecordSuccess(mapper.name());
    }
    EmitSandboxAttempt(eo.observer, mapper, out, std::move(sr.record));
    EmitMapperDone(eo.observer, mapper, out.result, out.seconds, out.sandbox);
    return out;
  }

  out.result = SafeMap(mapper, dfg, arch, mo);
  out.seconds = timer.Seconds();
  if (quarantine) {
    // An in-process kInternal is SafeMap's "this mapper is broken"
    // verdict; recording it is what escalates a thrower into the
    // sandbox under kCrashyOnly.
    if (!out.result.ok() &&
        out.result.error().code == Error::Code::kInternal) {
      quarantine->RecordCrash(mapper.name());
    } else if (out.result.ok()) {
      quarantine->RecordSuccess(mapper.name());
    }
  }
  EmitMapperDone(eo.observer, mapper, out.result, out.seconds);
  return out;
}

EngineAttempt MakeAttempt(const Mapper& mapper, const EntryOutcome& outcome) {
  EngineAttempt a;
  a.mapper = mapper.name();
  a.ok = outcome.result.ok();
  if (a.ok) {
    a.ii = outcome.result->ii;
  } else {
    a.error = outcome.result.error();
  }
  a.seconds = outcome.seconds;
  a.sandbox = outcome.sandbox;
  return a;
}

/// Aggregate failure: the budget was the binding constraint if any
/// entry hit it; otherwise the problem itself is unmappable under the
/// given limits.
Error AggregateError(const std::vector<EngineAttempt>& attempts) {
  std::ostringstream msg;
  msg << "portfolio exhausted: ";
  bool any_limit = false;
  bool first = true;
  for (const EngineAttempt& a : attempts) {
    if (a.ok) continue;
    if (!first) msg << "; ";
    first = false;
    msg << a.mapper << " (" << Error::CodeName(a.error.code) << ")";
    if (a.error.code == Error::Code::kResourceLimit) any_limit = true;
  }
  return any_limit ? Error::ResourceLimit(msg.str())
                   : Error::Unmappable(msg.str());
}

/// Observer decorator for the repair loop: stamps the repair-round
/// index and the round's fault digest on every event flowing to the
/// user's observer, and records which mappers crashed (kInternal) so
/// the loop can shrink the portfolio — even when the round as a whole
/// failed and its EngineResult (with the attempts) was swallowed by
/// the aggregate error.
class RoundStamper final : public MapObserver {
 public:
  RoundStamper(MapObserver* next, int round, std::string digest)
      : next_(next), round_(round), digest_(std::move(digest)) {}

  void OnEvent(const MapEvent& event) override {
    MapEvent e = event;
    e.repair_round = round_;
    e.fault_digest = digest_;
    if (e.kind == MapEvent::Kind::kMapperDone && !e.ok && e.error_code &&
        *e.error_code == Error::Code::kInternal) {
      std::lock_guard<std::mutex> lock(mu_);
      crashed_.push_back(e.mapper);
    }
    NotifyObserver(next_, e);
  }

  std::vector<std::string> TakeCrashed() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(crashed_);
  }

 private:
  MapObserver* next_;
  int round_;
  std::string digest_;
  std::mutex mu_;
  std::vector<std::string> crashed_;
};

/// The portfolio component of the mapping-cache key: names in
/// portfolio order. Reordering a portfolio is a different key on
/// purpose — the first success stops the rest, so the order decides
/// the winner.
std::string PortfolioCacheName(const std::vector<const Mapper*>& portfolio) {
  std::string out = "portfolio:";
  for (std::size_t i = 0; i < portfolio.size(); ++i) {
    if (i) out += ',';
    out += portfolio[i]->name();
  }
  return out;
}

/// The semantic slice of the engine options that belongs in the cache
/// key (same exclusion contract as MapperOptions::Digest — deadlines,
/// pools and observers steer the search, not the problem).
MapperOptions CacheKeyOptions(const EngineOptions& eo) {
  MapperOptions mo;
  mo.min_ii = eo.min_ii;
  mo.max_ii = eo.max_ii;
  mo.extra_slack = eo.extra_slack;
  mo.seed = eo.seed;
  return mo;
}

/// Index of the best success: lowest II, ties broken by portfolio
/// order. npos when every entry failed.
std::size_t BestIndex(const std::vector<EngineAttempt>& attempts) {
  std::size_t best = attempts.size();
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    if (!attempts[i].ok) continue;
    if (best == attempts.size() || attempts[i].ii < attempts[best].ii) {
      best = i;
    }
  }
  return best;
}

}  // namespace

MappingEngine::MappingEngine(EngineOptions options)
    : options_(std::move(options)) {}

Result<EngineResult> MappingEngine::Run(
    const Dfg& dfg, const Architecture& arch,
    const std::vector<const Mapper*>& portfolio) const {
  if (portfolio.empty()) {
    return Error::InvalidArgument("engine: empty portfolio");
  }
  for (const Mapper* m : portfolio) {
    if (m == nullptr) {
      return Error::InvalidArgument("engine: null mapper in portfolio");
    }
  }
  // Mapping-cache fast path: a validated hit answers the whole race
  // without spinning up a single mapper. Only successful mappings are
  // ever stored, so a prior failure never pins a (dfg, arch) pair.
  std::string cache_key;
  if (options_.cache) {
    telemetry::Span probe_span("engine.cache_probe");
    WallTimer lookup_timer;
    cache_key = MappingCacheKey(arch, dfg, CacheKeyOptions(options_),
                                PortfolioCacheName(portfolio));
    MappingCache::LookupInfo info;
    std::optional<MappingCache::Entry> entry =
        options_.cache->Get(cache_key, dfg, arch, &info);
    MapEvent e;
    e.kind = MapEvent::Kind::kCacheLookup;
    e.message = cache_key;
    e.ok = info.hit;
    e.seconds = lookup_timer.Seconds();
    if (info.hit) {
      e.mapper = info.tier == MappingCache::Tier::kMemory ? "mem" : "disk";
    } else if (info.validate_failed || info.decode_failed) {
      e.error_code = Error::Code::kInternal;
    }
    NotifyObserver(options_.observer, e);
    if (entry) {
      EngineResult out;
      out.mapping = std::move(entry->mapping);
      out.winner = std::move(entry->winner);
      out.seconds = lookup_timer.Seconds();
      out.cache_hit = true;
      out.cache_key = cache_key;
      EngineAttempt a;
      a.mapper = out.winner;
      a.ok = true;
      a.ii = out.mapping.ii;
      a.seconds = out.seconds;
      out.attempts.push_back(std::move(a));
      return out;
    }
  }

  MrrgCache local_cache;
  MrrgCache& cache = options_.mrrg_cache ? *options_.mrrg_cache : local_cache;
  telemetry::Span run_span(
      "engine.run",
      telemetry::Enabled() ? StrFormat("%zu mappers", portfolio.size()) : "");
  Result<EngineResult> r = (!options_.race || portfolio.size() == 1)
                               ? RunSequential(dfg, arch, portfolio, cache)
                               : RunRacing(dfg, arch, portfolio, cache);
  if (r.ok() && options_.cache) {
    r->cache_key = cache_key;
    options_.cache->Put(cache_key, r->mapping, r->winner);
  }
  return r;
}

Result<EngineResult> MappingEngine::Run(
    const Dfg& dfg, const Architecture& arch,
    const std::vector<std::string>& mapper_names) const {
  std::vector<const Mapper*> portfolio;
  portfolio.reserve(mapper_names.size());
  for (const std::string& name : mapper_names) {
    const Mapper* m = MapperRegistry::Global().Find(name);
    if (m == nullptr) {
      return Error::InvalidArgument("engine: unknown mapper \"" + name + "\"");
    }
    portfolio.push_back(m);
  }
  return Run(dfg, arch, portfolio);
}

Result<RepairResult> MappingEngine::RunWithRepair(
    const Dfg& dfg, const Architecture& arch, const FaultModel& known_faults,
    const std::vector<const Mapper*>& portfolio,
    const RepairOptions& repair) const {
  if (portfolio.empty()) {
    return Error::InvalidArgument("engine: empty portfolio");
  }
  for (const Mapper* m : portfolio) {
    if (m == nullptr) {
      return Error::InvalidArgument("engine: null mapper in portfolio");
    }
  }
  if (Status s = known_faults.Validate(arch); !s.ok()) return s.error();

  WallTimer total;
  RepairResult out;

  // The canonical fault model: the caller's known faults plus whatever
  // the fabric already carries, grown by every verifier diagnosis.
  FaultModel fm = known_faults;
  if (arch.faults()) fm.Merge(*arch.faults());

  std::vector<const Mapper*> active = portfolio;
  Error last_error =
      Error::Internal("repair loop ended before any round ran");  // unreachable

  for (int round = 0; round < kRepairRounds; ++round) {
    const std::string digest = fm.Digest();
    // Per-round fabric. Each round's Architecture dies with the round,
    // so the address-keyed MrrgCache must not be shared across rounds
    // (a recycled heap address would alias a stale resource graph):
    // every round builds its own graphs.
    auto arch_r = std::make_shared<Architecture>(arch.WithFaults(fm));

    RoundStamper stamper(options_.observer, round, digest);

    EngineOptions eo = options_;
    eo.observer = &stamper;
    eo.mrrg_cache = nullptr;
    // Escalating II window: a derated fabric often needs more
    // time-sharing than the healthy ceiling allowed.
    eo.max_ii = std::min(arch_r->MaxIi(),
                         options_.max_ii + round * kRepairIiStep);
    // Budget split: each round gets an equal share of what is left, so
    // an expensive first round cannot starve the repairs (and a cheap
    // one donates its slack to them).
    const double remaining = options_.deadline.RemainingSeconds();
    if (remaining < 1e17) {
      const int rounds_left = kRepairRounds - round;
      eo.deadline = Deadline::AfterSeconds(
          std::max(kMinRoundSeconds, remaining / rounds_left));
    }

    WallTimer round_timer;
    Result<EngineResult> r = [&] {
      telemetry::Span round_span(
          "engine.repair_round",
          telemetry::Enabled()
              ? StrFormat("round=%d faults=%s", round, digest.c_str())
              : "");
      return MappingEngine(eo).Run(dfg, *arch_r, active);
    }();

    RepairRound rec;
    rec.round = round;
    rec.fault_digest = digest;
    rec.faults = fm;

    // Shrinking portfolio: a mapper that crashed this round is not
    // given another chance to waste later rounds' budget.
    for (const std::string& name : stamper.TakeCrashed()) {
      std::erase_if(active,
                    [&](const Mapper* m) { return m->name() == name; });
    }
    if (active.empty()) active = portfolio;  // never run an empty race

    const bool out_of_time =
        options_.deadline.Expired() || options_.stop.StopRequested();

    if (!r.ok()) {
      last_error = r.error();
      rec.detail = r.error().message;
      rec.seconds = round_timer.Seconds();
      out.history.push_back(std::move(rec));
      if (out_of_time) break;
      continue;
    }

    rec.mapped = true;

    // Defence in depth: never hand out a mapping touching a faulted
    // resource, whatever the winning mapper believed.
    if (Status s = ValidateMapping(dfg, *arch_r, r->mapping); !s.ok()) {
      last_error = Error::Internal(
          StrFormat("winner %s produced an invalid mapping: %s",
                    r->winner.c_str(), s.error().message.c_str()));
      rec.mapped = false;
      rec.detail = last_error.message;
      rec.seconds = round_timer.Seconds();
      out.history.push_back(std::move(rec));
      if (out_of_time) break;
      continue;
    }

    if (repair.verifier) {
      const FaultModel before = fm;
      Status v = repair.verifier(*arch_r, r->mapping, fm);
      if (!v.ok()) {
        last_error = v.error();
        rec.detail = v.error().message;
        rec.seconds = round_timer.Seconds();
        const bool diagnosed = !(fm == before);
        out.history.push_back(std::move(rec));
        if (!diagnosed) {
          // No new faults: the next round would map the identical
          // fabric and fail the identical way. Bail out now.
          last_error.message +=
              " (verifier diagnosed no new faults; re-mapping cannot help)";
          break;
        }
        if (out_of_time) break;
        continue;
      }
    }
    rec.verified = true;
    rec.seconds = round_timer.Seconds();
    out.history.push_back(std::move(rec));

    out.result = std::move(*r);
    out.arch = std::move(arch_r);
    out.faults = std::move(fm);
    out.rounds = round + 1;
    out.seconds = total.Seconds();
    return out;
  }

  return Error{last_error.code,
               StrFormat("repair exhausted after %d round(s): %s",
                         static_cast<int>(out.history.size()),
                         last_error.message.c_str())};
}

Result<RepairResult> MappingEngine::RunWithRepair(
    const Dfg& dfg, const Architecture& arch, const FaultModel& known_faults,
    const std::vector<std::string>& mapper_names,
    const RepairOptions& repair) const {
  std::vector<const Mapper*> portfolio;
  portfolio.reserve(mapper_names.size());
  for (const std::string& name : mapper_names) {
    const Mapper* m = MapperRegistry::Global().Find(name);
    if (m == nullptr) {
      return Error::InvalidArgument("engine: unknown mapper \"" + name + "\"");
    }
    portfolio.push_back(m);
  }
  return RunWithRepair(dfg, arch, known_faults, portfolio, repair);
}

Result<EngineResult> MappingEngine::RunRacing(
    const Dfg& dfg, const Architecture& arch,
    const std::vector<const Mapper*>& portfolio, MrrgCache& cache) const {
  const std::size_t n = portfolio.size();
  WallTimer total;

  // One stop source for the whole race: flipped by the first winner,
  // by external cancellation, or by the global deadline; every
  // cooperative mapper sees it via MapperOptions::stop.
  StopSource race_stop;

  // One worker per entry, deliberately NOT capped by the core count: a
  // race only works when every entry actually runs. With fewer workers
  // than entries a wedged entry would hold its worker until the
  // deadline while later entries starve in the queue; racers spend
  // their lives polling stop/deadline anyway.
  ThreadPool pool(n);

  // Slot i is written only by task i and read only after its future is
  // ready, so no extra locking is needed.
  std::vector<EntryOutcome> results(n);

  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(pool.Async([&, i]() {
      const Mapper& mapper = *portfolio[i];
      MapperOptions mo = EntryOptions(options_, i, race_stop.token(), &cache);
      EntryOutcome outcome = ExecuteEntry(options_, mapper, dfg, arch, mo);
      const bool won = outcome.result.ok();
      results[i] = std::move(outcome);
      if (won) race_stop.RequestStop();
    }));
  }

  // Join the racers, forwarding external cancellation and the global
  // deadline into the race so even mappers stuck between deadline
  // checks get a second signal to poll.
  for (std::future<void>& f : futures) {
    while (f.wait_for(std::chrono::milliseconds(20)) !=
           std::future_status::ready) {
      if (options_.stop.StopRequested() || options_.deadline.Expired()) {
        race_stop.RequestStop();
      }
    }
  }

  EngineResult out;
  out.attempts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.attempts.push_back(MakeAttempt(*portfolio[i], results[i]));
  }
  out.seconds = total.Seconds();

  const std::size_t best = BestIndex(out.attempts);
  if (best == out.attempts.size()) return AggregateError(out.attempts);
  out.mapping = std::move(results[best].result).value();
  out.winner = out.attempts[best].mapper;
  return out;
}

Result<EngineResult> MappingEngine::RunSequential(
    const Dfg& dfg, const Architecture& arch,
    const std::vector<const Mapper*>& portfolio, MrrgCache& cache) const {
  WallTimer total;
  EngineResult out;
  std::vector<EntryOutcome> results;

  for (std::size_t i = 0; i < portfolio.size(); ++i) {
    if (options_.stop.StopRequested()) break;
    if (options_.deadline.Expired() && !out.attempts.empty()) break;
    const Mapper& mapper = *portfolio[i];
    MapperOptions mo = EntryOptions(options_, i, options_.stop, &cache);
    EntryOutcome outcome = ExecuteEntry(options_, mapper, dfg, arch, mo);
    out.attempts.push_back(MakeAttempt(mapper, outcome));
    const bool ok = outcome.result.ok();
    results.push_back(std::move(outcome));
    if (ok) break;
  }
  out.seconds = total.Seconds();

  if (out.attempts.empty()) {
    return Error::ResourceLimit("engine: cancelled before any mapper ran");
  }
  const std::size_t best = BestIndex(out.attempts);
  if (best == out.attempts.size()) return AggregateError(out.attempts);
  out.mapping = std::move(results[best].result).value();
  out.winner = out.attempts[best].mapper;
  return out;
}

}  // namespace cgra
