// Engine suite: the portfolio runner's contract — return within the
// budget even when a solver wedges, cancel losers cooperatively (they
// report kResourceLimit), stay deterministic per seed when racing is
// off, and leave a trace naming every (mapper, II) attempt.
#include <cctype>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "arch/fault.hpp"
#include "engine/engine.hpp"
#include "engine/quarantine.hpp"
#include "engine/trace.hpp"
#include "ir/kernels.hpp"
#include "mappers/registry.hpp"
#include "mapping/mapping.hpp"
#include "mapping/validator.hpp"
#include "telemetry/metrics.hpp"

namespace cgra {
namespace {

Architecture Rotating4x4() {
  ArchParams p;
  p.rows = p.cols = 4;
  p.rf_kind = RfKind::kRotating;
  p.name = "rot4x4";
  return Architecture(p);
}

// A mapper that never terminates on its own: it spins until cancelled
// or out of time, like an exact solver lost in its search tree. The
// engine tests hang without working cancellation, so keep the poll
// loop honest.
class StuckMapper final : public Mapper {
 public:
  std::string name() const override { return "stuck"; }
  TechniqueClass technique() const override { return TechniqueClass::kExactCsp; }
  MappingKind kind() const override { return MappingKind::kTemporal; }
  std::string lineage() const override { return "test fixture"; }

  Result<Mapping> Map(const Dfg&, const Architecture&,
                      const MapperOptions& options) const override {
    while (!options.stop.StopRequested() && !options.deadline.Expired()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Error::ResourceLimit("stuck solver cancelled");
  }
};

const EngineAttempt* FindAttempt(const EngineResult& r,
                                 const std::string& mapper) {
  for (const EngineAttempt& a : r.attempts) {
    if (a.mapper == mapper) return &a;
  }
  return nullptr;
}

TEST(MappingEngine, WinnerCancelsStuckLoserWithinBudget) {
  const Architecture arch = Rotating4x4();
  const Kernel k = MakeDotProduct(8, 7);
  const StuckMapper stuck;
  const Mapper* ims = MapperRegistry::Global().Find("ims");
  ASSERT_NE(ims, nullptr);

  EngineOptions opts;
  opts.deadline = Deadline::AfterSeconds(30);
  const MappingEngine engine(opts);

  WallTimer timer;
  const auto r = engine.Run(k.dfg, arch, {&stuck, ims});
  // The stuck fixture only stops when cancelled; finishing at all (well
  // before the 30 s budget) proves the winner's stop request reached it.
  EXPECT_LT(timer.Seconds(), 20.0);
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r->winner, "ims");
  EXPECT_TRUE(ValidateMapping(k.dfg, arch, r->mapping).ok());

  const EngineAttempt* cancelled = FindAttempt(*r, "stuck");
  ASSERT_NE(cancelled, nullptr);
  EXPECT_FALSE(cancelled->ok);
  EXPECT_EQ(cancelled->error.code, Error::Code::kResourceLimit);
}

TEST(MappingEngine, AllStuckPortfolioRespectsDeadline) {
  const Architecture arch = Rotating4x4();
  const Kernel k = MakeDotProduct(8, 7);
  const StuckMapper a, b;

  EngineOptions opts;
  opts.deadline = Deadline::AfterSeconds(0.3);
  const MappingEngine engine(opts);

  WallTimer timer;
  const auto r = engine.Run(k.dfg, arch, std::vector<const Mapper*>{&a, &b});
  EXPECT_LT(timer.Seconds(), 10.0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Error::Code::kResourceLimit);
}

TEST(MappingEngine, ExternalStopCancelsTheRace) {
  const Architecture arch = Rotating4x4();
  const Kernel k = MakeDotProduct(8, 7);
  const StuckMapper stuck;

  StopSource source;
  EngineOptions opts;
  opts.stop = source.token();
  const MappingEngine engine(opts);

  std::thread canceller([&source]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    source.RequestStop();
  });
  WallTimer timer;
  const auto r = engine.Run(k.dfg, arch, {&stuck});
  canceller.join();
  EXPECT_LT(timer.Seconds(), 10.0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Error::Code::kResourceLimit);
}

TEST(MappingEngine, SequentialModeIsDeterministicPerSeed) {
  const Architecture arch = Rotating4x4();
  const Kernel k = MakeFir4(8, 3);

  EngineOptions opts;
  opts.race = false;
  opts.seed = 42;
  opts.deadline = Deadline::AfterSeconds(30);
  const MappingEngine engine(opts);

  // A stochastic portfolio: annealing first so the result depends on
  // the seed, not just on a deterministic algorithm.
  const std::vector<std::string> portfolio = {"dresc-sa", "ims"};
  const auto a = engine.Run(k.dfg, arch, portfolio);
  const auto b = engine.Run(k.dfg, arch, portfolio);
  ASSERT_TRUE(a.ok()) << a.error().message;
  ASSERT_TRUE(b.ok()) << b.error().message;
  EXPECT_EQ(a->winner, b->winner);
  EXPECT_EQ(a->mapping.ii, b->mapping.ii);
  ASSERT_EQ(a->mapping.place.size(), b->mapping.place.size());
  for (size_t i = 0; i < a->mapping.place.size(); ++i) {
    EXPECT_EQ(a->mapping.place[i].cell, b->mapping.place[i].cell) << i;
    EXPECT_EQ(a->mapping.place[i].time, b->mapping.place[i].time) << i;
  }
}

TEST(MappingEngine, SequentialStopsAtFirstSuccess) {
  const Architecture arch = Rotating4x4();
  const Kernel k = MakeDotProduct(8, 7);
  const StuckMapper stuck;
  const Mapper* ims = MapperRegistry::Global().Find("ims");
  ASSERT_NE(ims, nullptr);

  EngineOptions opts;
  opts.race = false;
  const MappingEngine engine(opts);
  const auto r = engine.Run(k.dfg, arch, {ims, &stuck});
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r->winner, "ims");
  // The loser was never started: sequential mode skips, not races.
  EXPECT_EQ(r->attempts.size(), 1u);
}

TEST(MappingEngine, UnknownMapperNameIsInvalidArgument) {
  const Architecture arch = Rotating4x4();
  const Kernel k = MakeDotProduct(8, 7);
  const MappingEngine engine;
  const auto r = engine.Run(k.dfg, arch, {std::string("no-such-mapper")});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Error::Code::kInvalidArgument);
}

TEST(MappingEngine, EmptyPortfolioIsInvalidArgument) {
  const Architecture arch = Rotating4x4();
  const Kernel k = MakeDotProduct(8, 7);
  const MappingEngine engine;
  const auto r = engine.Run(k.dfg, arch, std::vector<const Mapper*>{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Error::Code::kInvalidArgument);
}

TEST(MappingEngine, TraceNamesEveryMapperAndAttempt) {
  const Architecture arch = Rotating4x4();
  const Kernel k = MakeDotProduct(8, 7);

  MapTrace trace;
  EngineOptions opts;
  opts.observer = &trace;
  opts.deadline = Deadline::AfterSeconds(30);
  const MappingEngine engine(opts);
  const auto r = engine.Run(
      k.dfg, arch, std::vector<std::string>{"greedy-spatial", "ims"});
  ASSERT_TRUE(r.ok()) << r.error().message;

  // Both mappers got engine-emitted start/done brackets...
  int starts = 0, dones = 0;
  for (const MapEvent& e : trace.events()) {
    if (e.kind == MapEvent::Kind::kMapperStart) ++starts;
    if (e.kind == MapEvent::Kind::kMapperDone) ++dones;
  }
  EXPECT_EQ(starts, 2);
  EXPECT_EQ(dones, 2);

  // ...and every II attempt is in the trace with its mapper's name.
  EXPECT_GE(trace.attempt_count(), 1);
  for (const MapTrace::Attempt& a : trace.Attempts()) {
    EXPECT_TRUE(a.mapper == "greedy-spatial" || a.mapper == "ims") << a.mapper;
    EXPECT_GE(a.ii, 1);
  }

  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"attempts\":["), std::string::npos);
  EXPECT_NE(json.find("\"ims\""), std::string::npos);
  EXPECT_NE(json.find("\"greedy-spatial\""), std::string::npos);
}

// Records the fabric and MRRG each call maps on, then fails so that a
// sequential sweep runs every entry.
class MrrgProbe final : public Mapper {
 public:
  explicit MrrgProbe(std::string name) : name_(std::move(name)) {}
  std::string name() const override { return name_; }
  TechniqueClass technique() const override { return TechniqueClass::kHeuristic; }
  MappingKind kind() const override { return MappingKind::kTemporal; }
  std::string lineage() const override { return "test fixture"; }

  Result<Mapping> Map(const Dfg&, const Architecture& arch,
                      const MapperOptions&) const override {
    const Mrrg* mrrg = &arch.mrrg();
    std::lock_guard<std::mutex> lock(mu_);
    seen.push_back({&arch, mrrg});
    return Error::Unmappable("probe");
  }

  struct Seen {
    const Architecture* arch;
    const Mrrg* mrrg;
  };
  mutable std::vector<Seen> seen;

 private:
  std::string name_;
  mutable std::mutex mu_;
};

std::uint64_t MrrgBuilds() {
  return telemetry::MetricsRegistry::Global()
      .GetCounter("cgra_mrrg_builds_total")
      .Value();
}

TEST(MappingEngine, EveryEntryOfOneRunSeesOneMrrg) {
  const Kernel k = MakeDotProduct(8, 7);
  for (const bool race : {false, true}) {
    const Architecture arch = Rotating4x4();
    // The first Run builds the fabric's graph; a second builds none.
    for (const int run : {0, 1}) {
      const MrrgProbe a("probe-a"), b("probe-b"), c("probe-c");
      EngineOptions opts;
      opts.race = race;
      opts.deadline = Deadline::AfterSeconds(30);
      const std::vector<const Mapper*> portfolio = {&a, &b, &c};
      const std::uint64_t before = MrrgBuilds();
      const auto r = MappingEngine(opts).Run(k.dfg, arch, portfolio);
      EXPECT_FALSE(r.ok());
      EXPECT_EQ(MrrgBuilds() - before, run == 0 ? 1u : 0u)
          << "race=" << race << " run=" << run;
      for (const MrrgProbe* p : {&a, &b, &c}) {
        ASSERT_EQ(p->seen.size(), 1u) << p->name();
        EXPECT_EQ(p->seen.front().arch, &arch) << p->name();
        EXPECT_EQ(p->seen.front().mrrg, &arch.mrrg()) << p->name();
      }
    }
  }

  // Real mappers racing on one fabric build its MRRG once between them.
  const Architecture arch = Rotating4x4();
  EngineOptions opts;
  opts.deadline = Deadline::AfterSeconds(30);
  const std::uint64_t before = MrrgBuilds();
  const auto r = MappingEngine(opts).Run(k.dfg, arch,
                                         {"greedy-spatial", "ims", "ultrafast"});
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(MrrgBuilds() - before, 1u);
}

// ---- crash isolation --------------------------------------------------------

TEST(MappingEngine, ThrowingMapperLosesRaceButRaceCompletes) {
  const Architecture arch = Rotating4x4();
  const Kernel k = MakeDotProduct(8, 7);

  EngineOptions opts;
  opts.deadline = Deadline::AfterSeconds(30);
  const MappingEngine engine(opts);
  // "throwing" resolves through the registry's fixtures section.
  const auto r = engine.Run(k.dfg, arch,
                            std::vector<std::string>{"throwing", "ims"});
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r->winner, "ims");
  EXPECT_TRUE(ValidateMapping(k.dfg, arch, r->mapping).ok());

  const EngineAttempt* crashed = FindAttempt(*r, "throwing");
  ASSERT_NE(crashed, nullptr);
  EXPECT_FALSE(crashed->ok);
  EXPECT_EQ(crashed->error.code, Error::Code::kInternal);
  EXPECT_NE(crashed->error.message.find("threw"), std::string::npos)
      << crashed->error.message;
}

TEST(MappingEngine, ThrowingMapperIsIsolatedSequentially) {
  const Architecture arch = Rotating4x4();
  const Kernel k = MakeDotProduct(8, 7);

  EngineOptions opts;
  opts.race = false;
  const MappingEngine engine(opts);
  const auto r = engine.Run(k.dfg, arch,
                            std::vector<std::string>{"throwing", "ims"});
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r->winner, "ims");

  const EngineAttempt* crashed = FindAttempt(*r, "throwing");
  ASSERT_NE(crashed, nullptr);
  EXPECT_FALSE(crashed->ok);
  EXPECT_EQ(crashed->error.code, Error::Code::kInternal);
}

TEST(MappingEngine, AllThrowingPortfolioFailsCleanly) {
  const Architecture arch = Rotating4x4();
  const Kernel k = MakeDotProduct(8, 7);
  const Mapper* throwing = MapperRegistry::Global().Find("throwing");
  ASSERT_NE(throwing, nullptr);

  EngineOptions opts;
  opts.deadline = Deadline::AfterSeconds(30);
  const MappingEngine engine(opts);
  const auto r =
      engine.Run(k.dfg, arch, std::vector<const Mapper*>{throwing, throwing});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("throwing"), std::string::npos)
      << r.error().message;
}

TEST(MapperRegistry, FixturesResolveByNameButStayUnenumerated) {
  const auto& registry = MapperRegistry::Global();
  EXPECT_NE(registry.Find("throwing"), nullptr);
  for (const Mapper* m : registry.All()) {
    EXPECT_NE(m->name(), "throwing");
  }
  for (const Mapper& m : registry) {
    EXPECT_NE(m.name(), "throwing");
  }
}

TEST(MapperRegistry, CrashyFixtureFamilyResolvesByName) {
  const auto& registry = MapperRegistry::Global();
  for (const char* name : {"segv", "spin", "allocbomb"}) {
    EXPECT_NE(registry.Find(name), nullptr) << name;
    for (const Mapper* m : registry.All()) EXPECT_NE(m->name(), name);
  }
}

// ---- process-level isolation ------------------------------------------------
//
// The segv fixture dereferences nullptr inside Map(): without a
// sandbox it would take the test binary down, so these tests ARE the
// proof that --isolation all moves the crash boundary out of process.
// Classification caveat: ASan turns the child's SIGSEGV into a
// reporting exit, so assertions accept any fatal sandbox label and
// only the Release chaos job pins the exact "signal:SIGSEGV" string.

bool LooksFatal(const std::string& sandbox_label) {
  return sandbox_label == "oom" || sandbox_label == "wire-corrupt" ||
         sandbox_label == "exit" || sandbox_label.rfind("signal:", 0) == 0;
}

TEST(MappingEngine, SandboxIsolatesSegfaultingMapper) {
  const Architecture arch = Rotating4x4();
  const Kernel k = MakeDotProduct(8, 7);

  QuarantineTracker tracker;
  MapTrace trace;
  EngineOptions opts;
  opts.race = false;
  opts.isolation = IsolationMode::kAll;
  opts.quarantine = &tracker;
  opts.observer = &trace;
  opts.deadline = Deadline::AfterSeconds(30);
  const MappingEngine engine(opts);
  const auto r =
      engine.Run(k.dfg, arch, std::vector<std::string>{"segv", "ims"});
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r->winner, "ims");
  EXPECT_TRUE(ValidateMapping(k.dfg, arch, r->mapping).ok());

  const EngineAttempt* crashed = FindAttempt(*r, "segv");
  ASSERT_NE(crashed, nullptr);
  EXPECT_FALSE(crashed->ok);
  EXPECT_EQ(crashed->error.code, Error::Code::kInternal);
  EXPECT_TRUE(LooksFatal(crashed->sandbox)) << crashed->sandbox;
  EXPECT_TRUE(tracker.HasCrashHistory("segv"));

  // The healthy winner ran in a sandbox too, and says so.
  const EngineAttempt* won = FindAttempt(*r, "ims");
  ASSERT_NE(won, nullptr);
  EXPECT_EQ(won->sandbox, "ok");

  // The crash classification reaches the trace JSON.
  EXPECT_NE(trace.ToJson().find("\"sandbox\""), std::string::npos);
}

TEST(MappingEngine, SandboxContainsWedgedMapperViaDeadline) {
  const Architecture arch = Rotating4x4();
  const Kernel k = MakeDotProduct(8, 7);

  QuarantineTracker tracker;
  EngineOptions opts;
  opts.race = false;
  opts.isolation = IsolationMode::kAll;
  opts.quarantine = &tracker;
  opts.deadline = Deadline::AfterSeconds(2.0);
  const MappingEngine engine(opts);
  WallTimer timer;
  const auto r =
      engine.Run(k.dfg, arch, std::vector<std::string>{"spin"});
  // The spin fixture ignores StopToken entirely; only the watchdog's
  // SIGKILL ends it. The engine must come back near the deadline.
  EXPECT_LT(timer.Seconds(), 20.0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Error::Code::kResourceLimit);
  // A timeout is the budget's fault, not the mapper's: no crash mark.
  EXPECT_FALSE(tracker.HasCrashHistory("spin"));
}

TEST(MappingEngine, SandboxedWinIsDigestIdenticalToInProcess) {
  const Architecture arch = Rotating4x4();
  const Kernel k = MakeDotProduct(8, 7);

  EngineOptions plain;
  plain.race = false;
  plain.seed = 7;
  plain.deadline = Deadline::AfterSeconds(30);
  const auto in_process =
      MappingEngine(plain).Run(k.dfg, arch, {"ims"});
  ASSERT_TRUE(in_process.ok()) << in_process.error().message;

  QuarantineTracker tracker;
  EngineOptions sandboxed = plain;
  sandboxed.deadline = Deadline::AfterSeconds(30);
  sandboxed.isolation = IsolationMode::kAll;
  sandboxed.quarantine = &tracker;
  const auto forked =
      MappingEngine(sandboxed).Run(k.dfg, arch, {"ims"});
  ASSERT_TRUE(forked.ok()) << forked.error().message;

  // Same code, same seed, one SerializeMapping round-trip: the
  // process boundary must not perturb the mapping bit for bit.
  EXPECT_EQ(MappingDigestHex(in_process->mapping),
            MappingDigestHex(forked->mapping));
  EXPECT_EQ(in_process->mapping.ii, forked->mapping.ii);
}

TEST(MappingEngine, QuarantineBenchesRepeatOffender) {
  const Architecture arch = Rotating4x4();
  const Kernel k = MakeDotProduct(8, 7);

  QuarantinePolicy policy;
  policy.crash_threshold = 2;
  policy.base_backoff_seconds = 1000.0;
  QuarantineTracker tracker(policy);

  EngineOptions opts;
  opts.race = false;
  opts.isolation = IsolationMode::kAll;
  opts.quarantine = &tracker;
  opts.deadline = Deadline::AfterSeconds(30);

  // Two crashing runs trip the threshold...
  for (int i = 0; i < 2; ++i) {
    const auto r = MappingEngine(opts).Run(
        k.dfg, arch, std::vector<std::string>{"segv", "ims"});
    ASSERT_TRUE(r.ok()) << r.error().message;
    opts.deadline = Deadline::AfterSeconds(30);
  }
  EXPECT_TRUE(tracker.IsQuarantined("segv"));

  // ...and the third run benches segv without forking at all: the
  // attempt is stamped "quarantined" and fails kResourceLimit.
  MapTrace trace;
  opts.observer = &trace;
  const auto r = MappingEngine(opts).Run(
      k.dfg, arch, std::vector<std::string>{"segv", "ims"});
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r->winner, "ims");
  const EngineAttempt* benched = FindAttempt(*r, "segv");
  ASSERT_NE(benched, nullptr);
  EXPECT_FALSE(benched->ok);
  EXPECT_EQ(benched->error.code, Error::Code::kResourceLimit);
  EXPECT_EQ(benched->sandbox, "quarantined");
  EXPECT_NE(benched->error.message.find("quarantined"), std::string::npos);
  EXPECT_NE(trace.ToJson().find("\"quarantined\""), std::string::npos);
}

TEST(MappingEngine, CrashyOnlyEscalatesAfterFirstCrash) {
  const Architecture arch = Rotating4x4();
  const Kernel k = MakeDotProduct(8, 7);

  QuarantineTracker tracker;
  EngineOptions opts;
  opts.race = false;
  opts.isolation = IsolationMode::kCrashyOnly;
  opts.quarantine = &tracker;
  opts.deadline = Deadline::AfterSeconds(30);

  // First run: "throwing" has no history, so it runs in-process and
  // SafeMap catches the throw (kInternal, no sandbox label) — which
  // records the crash.
  const auto first = MappingEngine(opts).Run(
      k.dfg, arch, std::vector<std::string>{"throwing", "ims"});
  ASSERT_TRUE(first.ok()) << first.error().message;
  const EngineAttempt* a1 = FindAttempt(*first, "throwing");
  ASSERT_NE(a1, nullptr);
  EXPECT_TRUE(a1->sandbox.empty()) << a1->sandbox;
  EXPECT_TRUE(tracker.HasCrashHistory("throwing"));

  // Second run: the history promotes it into a sandbox. The child's
  // SafeMap still catches the exception, so the sandbox itself is
  // clean ("ok") and the error comes back over the wire.
  opts.deadline = Deadline::AfterSeconds(30);
  const auto second = MappingEngine(opts).Run(
      k.dfg, arch, std::vector<std::string>{"throwing", "ims"});
  ASSERT_TRUE(second.ok()) << second.error().message;
  const EngineAttempt* a2 = FindAttempt(*second, "throwing");
  ASSERT_NE(a2, nullptr);
  EXPECT_EQ(a2->sandbox, "ok");
  EXPECT_FALSE(a2->ok);
  EXPECT_EQ(a2->error.code, Error::Code::kInternal);

  // Healthy mappers never pay the fork tax under kCrashyOnly.
  const EngineAttempt* healthy = FindAttempt(*second, "ims");
  ASSERT_NE(healthy, nullptr);
  EXPECT_TRUE(healthy->sandbox.empty()) << healthy->sandbox;
}

TEST(MappingEngine, IsolationModeNamesRoundTrip) {
  for (const IsolationMode m :
       {IsolationMode::kNone, IsolationMode::kCrashyOnly,
        IsolationMode::kAll}) {
    IsolationMode parsed;
    ASSERT_TRUE(ParseIsolationMode(IsolationModeName(m), &parsed));
    EXPECT_EQ(parsed, m);
  }
  IsolationMode parsed;
  EXPECT_TRUE(ParseIsolationMode("crashy-only", &parsed));
  EXPECT_EQ(parsed, IsolationMode::kCrashyOnly);
  EXPECT_FALSE(ParseIsolationMode("paranoid", &parsed));
}

// ---- the repair loop --------------------------------------------------------

TEST(MappingEngine, RunWithRepairMapsAroundKnownDeadPes) {
  const Architecture arch = Rotating4x4();
  const Kernel k = MakeDotProduct(8, 7);

  FaultModel faults;
  faults.KillCell(5);
  faults.KillCell(10);

  EngineOptions opts;
  opts.deadline = Deadline::AfterSeconds(30);
  const MappingEngine engine(opts);
  const auto r = engine.RunWithRepair(k.dfg, arch, faults,
                                      std::vector<std::string>{"ims"});
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r->rounds, 1);
  ASSERT_NE(r->arch, nullptr);
  EXPECT_TRUE(ValidateMapping(k.dfg, *r->arch, r->result.mapping).ok());
  for (const Placement& p : r->result.mapping.place) {
    EXPECT_NE(p.cell, 5);
    EXPECT_NE(p.cell, 10);
  }
}

TEST(MappingEngine, RunWithRepairVerifierDrivesASecondRound) {
  const Architecture arch = Rotating4x4();
  const Kernel k = MakeDotProduct(8, 7);

  MapTrace trace;
  EngineOptions opts;
  opts.deadline = Deadline::AfterSeconds(30);
  opts.observer = &trace;
  opts.race = false;
  const MappingEngine engine(opts);

  // Round 0 maps the healthy fabric; the "self-test" then reports the
  // first used cell dead, forcing one repair round that must avoid it.
  int victim = -1;
  RepairOptions repair;
  repair.verifier = [&victim](const Architecture&, const Mapping& m,
                              FaultModel& fm) -> Status {
    if (victim < 0) {
      for (const Placement& p : m.place) {
        if (p.cell >= 0) {
          victim = p.cell;
          break;
        }
      }
      fm.KillCell(victim);
      return Error::Internal("injected self-test miscompare");
    }
    return Status::Ok();
  };

  const auto r = engine.RunWithRepair(k.dfg, arch, FaultModel{},
                                      std::vector<std::string>{"ims"}, repair);
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r->rounds, 2);
  ASSERT_EQ(r->history.size(), 2u);
  EXPECT_TRUE(r->history[0].mapped);
  EXPECT_FALSE(r->history[0].verified);
  EXPECT_EQ(r->history[0].fault_digest, "healthy");
  EXPECT_TRUE(r->history[1].verified);
  EXPECT_NE(r->history[1].fault_digest, "healthy");
  ASSERT_GE(victim, 0);
  for (const Placement& p : r->result.mapping.place) {
    EXPECT_NE(p.cell, victim);
  }
  EXPECT_TRUE(r->faults.CellDead(victim));

  // Round stamps reached the observer: round-0 events on the healthy
  // digest, round-1 events on the faulted one.
  bool saw_round0 = false, saw_round1 = false;
  for (const MapEvent& e : trace.events()) {
    if (e.repair_round == 0 && e.fault_digest == "healthy") saw_round0 = true;
    if (e.repair_round == 1 && e.fault_digest != "healthy" &&
        !e.fault_digest.empty()) {
      saw_round1 = true;
    }
  }
  EXPECT_TRUE(saw_round0);
  EXPECT_TRUE(saw_round1);
}

TEST(MappingEngine, RunWithRepairAbortsWhenVerifierDiagnosesNothing) {
  const Architecture arch = Rotating4x4();
  const Kernel k = MakeDotProduct(8, 7);

  EngineOptions opts;
  opts.deadline = Deadline::AfterSeconds(30);
  opts.race = false;
  const MappingEngine engine(opts);

  RepairOptions repair;
  repair.verifier = [](const Architecture&, const Mapping&,
                       FaultModel&) -> Status {
    return Error::Internal("always unhappy, never diagnostic");
  };

  const auto r = engine.RunWithRepair(k.dfg, arch, FaultModel{},
                                      std::vector<std::string>{"ims"}, repair);
  ASSERT_FALSE(r.ok());
  // One round, not four: an undiagnosable miscompare cannot be repaired.
  EXPECT_NE(r.error().message.find("after 1 round"), std::string::npos)
      << r.error().message;
}

// ---- trace JSON round-trip --------------------------------------------------

// A minimal JSON validator/reader: enough grammar to fully parse the
// trace serialisation and pull out one integer/string field per
// attempts[] element, with no third-party dependency.
class MiniJson {
 public:
  explicit MiniJson(const std::string& text) : s_(text) {}

  bool Parse() {
    pos_ = 0;
    return Value() && (SkipWs(), pos_ == s_.size());
  }

 private:
  bool Value() {
    SkipWs();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek('}')) return true;
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Expect(':')) return false;
      if (!Value()) return false;
      SkipWs();
      if (Peek('}')) return true;
      if (!Expect(',')) return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek(']')) return true;
    for (;;) {
      if (!Value()) return false;
      SkipWs();
      if (Peek(']')) return true;
      if (!Expect(',')) return false;
    }
  }
  bool String() {
    if (!Expect('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == 'u') pos_ += 4;
      }
      ++pos_;
    }
    return Expect('"');
  }
  bool Number() {
    const size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* lit) {
    const size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Expect(char c) { return Peek(c); }

  const std::string& s_;
  size_t pos_ = 0;
};

TEST(MapTrace, RepairTraceJsonParsesAndCarriesRoundAndDigest) {
  const Architecture arch = Rotating4x4();
  const Kernel k = MakeDotProduct(8, 7);

  MapTrace trace;
  EngineOptions opts;
  opts.deadline = Deadline::AfterSeconds(30);
  opts.observer = &trace;
  opts.race = false;
  const MappingEngine engine(opts);

  FaultModel faults;
  faults.KillCell(3);
  const auto r = engine.RunWithRepair(k.dfg, arch, faults,
                                      std::vector<std::string>{"ims"});
  ASSERT_TRUE(r.ok()) << r.error().message;

  const std::string json = trace.ToJson();
  EXPECT_TRUE(MiniJson(json).Parse()) << json;
  EXPECT_NE(json.find("\"round\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"fault_digest\":\"" + faults.Digest() + "\""),
            std::string::npos)
      << json;

  // The aggregated attempts carry the stamps too.
  ASSERT_GE(trace.Attempts().size(), 1u);
  for (const MapTrace::Attempt& a : trace.Attempts()) {
    EXPECT_EQ(a.round, 0);
    EXPECT_EQ(a.fault_digest, faults.Digest());
  }
}

TEST(MapTrace, JsonEscapesControlAndQuoteCharacters) {
  MapTrace trace;
  MapEvent e;
  e.kind = MapEvent::Kind::kAttemptDone;
  e.mapper = "m\"1\\x";
  e.ii = 2;
  e.ok = false;
  e.error_code = Error::Code::kUnmappable;
  e.message = "line1\nline2\ttab";
  trace.OnEvent(e);
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("m\\\"1\\\\x"), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2\\ttab"), std::string::npos);
  EXPECT_NE(json.find("\"unmappable\""), std::string::npos);
}

}  // namespace
}  // namespace cgra
