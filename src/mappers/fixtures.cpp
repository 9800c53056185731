// Test-fixture mappers: registered under the registry's Find-only
// fixtures section so engine tests can assemble hostile portfolios by
// name, without the fixtures ever appearing in All()/ByTechnique()
// enumeration (a bench sweep must not race a booby trap by accident).
//
// The `crashy` family (segv / spin / allocbomb) fails harder than
// try/catch can contain — each one models a real failure mode of the
// survey's exact mappers (wild pointer in monomorphism enumeration, a
// search loop that never polls its StopToken, unbounded clause
// learning) and is only survivable behind the process sandbox
// (EngineOptions::isolation, engine/sandbox.hpp). The chaos CI job
// races all three against healthy mappers through cgra_serve.
#include <atomic>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <vector>

#include "mappers/mappers.hpp"

namespace cgra {
namespace {

// A deliberately misbehaving portfolio entry: Map() throws instead of
// returning a Result. The engine's crash isolation must convert this
// into a failed EngineAttempt with Error::Code::kInternal and let the
// rest of the race proceed.
class ThrowingMapper final : public Mapper {
 public:
  ThrowingMapper()
      : Mapper({"throwing", TechniqueClass::kHeuristic, MappingKind::kTemporal,
                "test fixture: the mapper that throws"}) {}

  Result<Mapping> Map(const Dfg&, const Architecture&,
                      const MapperOptions&) const override {
    throw std::runtime_error("deliberate test-fixture crash");
  }
};

// Dereferences a null pointer: SIGSEGV, no exception to catch. Only
// the process boundary survives this one.
class SegvMapper final : public Mapper {
 public:
  SegvMapper()
      : Mapper({"segv", TechniqueClass::kHeuristic, MappingKind::kTemporal,
                "test fixture: the mapper that segfaults"}) {}

  Result<Mapping> Map(const Dfg&, const Architecture&,
                      const MapperOptions&) const override {
    // volatile so the write cannot be optimised out (a compiler is
    // allowed to delete UB it can prove).
    volatile int* p = nullptr;
    *p = 42;  // NOLINT: deliberate crash
    return Error::Internal("unreachable");
  }
};

// A hard infinite loop that never polls the deadline or the stop
// token — the wedge that motivates the parent-side watchdog and the
// CPU rlimit. The loop body does real atomic work so the optimiser
// cannot collapse it.
class SpinMapper final : public Mapper {
 public:
  SpinMapper()
      : Mapper({"spin", TechniqueClass::kHeuristic, MappingKind::kTemporal,
                "test fixture: the mapper that never returns"}) {}

  Result<Mapping> Map(const Dfg&, const Architecture&,
                      const MapperOptions&) const override {
    std::atomic<std::uint64_t> x{0};
    for (;;) {
      x.fetch_add(1, std::memory_order_relaxed);
    }
  }
};

// Allocates without bound until std::bad_alloc (under a sandbox
// memory rlimit) or the OOM killer intervenes. Touches every page so
// the memory is actually resident, not just reserved.
class AllocBombMapper final : public Mapper {
 public:
  AllocBombMapper()
      : Mapper({"allocbomb", TechniqueClass::kHeuristic, MappingKind::kTemporal,
                "test fixture: the mapper that eats all memory"}) {}

  Result<Mapping> Map(const Dfg&, const Architecture&,
                      const MapperOptions&) const override {
    std::vector<std::unique_ptr<char[]>> hoard;
    constexpr std::size_t kChunk = 16u << 20;  // 16 MiB per step
    for (;;) {
      auto chunk = std::make_unique<char[]>(kChunk);
      for (std::size_t i = 0; i < kChunk; i += 4096) chunk[i] = 1;
      hoard.push_back(std::move(chunk));
    }
  }
};

}  // namespace

std::unique_ptr<Mapper> MakeThrowingMapper() {
  return std::make_unique<ThrowingMapper>();
}

std::unique_ptr<Mapper> MakeSegvMapper() {
  return std::make_unique<SegvMapper>();
}

std::unique_ptr<Mapper> MakeSpinMapper() {
  return std::make_unique<SpinMapper>();
}

std::unique_ptr<Mapper> MakeAllocBombMapper() {
  return std::make_unique<AllocBombMapper>();
}

}  // namespace cgra
