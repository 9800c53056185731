// The Mapper interface — the library's core abstraction.
//
// Table I of the survey classifies twenty years of techniques along
// two axes: solution strategy (heuristic / meta-heuristic / exact) and
// problem slice (spatial mapping / temporal mapping / binding-only /
// scheduling-only). Every implementation in src/mappers realises one
// cell of that table behind this single interface, so the Table-I
// bench can run them head-to-head on identical inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/arch.hpp"
#include "ir/dfg.hpp"
#include "mapping/mapping.hpp"
#include "mapping/observer.hpp"
#include "support/status.hpp"
#include "support/stop_token.hpp"
#include "support/timer.hpp"

namespace cgra {

class ByteWriter;  // support/bytes.hpp

/// Table I taxonomy coordinates.
enum class TechniqueClass {
  kHeuristic,
  kMetaPopulation,  ///< GA / QEA
  kMetaLocalSearch, ///< simulated annealing
  kExactIlp,        ///< ILP or branch & bound
  kExactCsp,        ///< CP / SAT / SMT
};
std::string_view TechniqueClassName(TechniqueClass c);

enum class MappingKind {
  kSpatial,    ///< binding only, II == 1, fully pipelined fabric
  kTemporal,   ///< binding + scheduling solved together
  kBinding,    ///< binding under an externally fixed schedule
  kScheduling, ///< scheduling with binding delegated to a helper
};
std::string_view MappingKindName(MappingKind k);

struct MapperOptions {
  int min_ii = 1;             ///< II floor (harnesses raise it when code
                              ///< generation rejects a low-II mapping)
  int max_ii = 16;            ///< II ceiling for the escalation loop
  int extra_slack = 8;        ///< schedule-length slack beyond critical path
  Deadline deadline;          ///< overall time budget
  std::uint64_t seed = 1;     ///< stochastic mappers are deterministic per seed

  /// Cooperative cancellation. CONTRACT: Map() implementations must
  /// check `stop` at least once per II attempt (EscalateIi does this
  /// for every escalating mapper) and surface cancellation as
  /// Error::Code::kResourceLimit. Long-running search loops — the
  /// exact solvers, branch & bound, annealing/GA generations — poll it
  /// from their inner loops so the portfolio engine can cancel losing
  /// mappers mid-search.
  StopToken stop;

  /// Optional progress sink (see mapping/observer.hpp). May be invoked
  /// concurrently when mappers race; implementations must be
  /// thread-safe. Null disables observation, search-log collection
  /// included.
  MapObserver* observer = nullptr;

  /// Canonical byte encoding of the SEMANTIC fields only — min_ii,
  /// max_ii, extra_slack, seed. The deadline, stop token and observer
  /// steer *how long* a mapper searches, not *which problem* it solves;
  /// none of them belong in a content-addressed cache key (docs/CACHE.md
  /// spells out the resulting staleness contract).
  /// Layout carries a version tag.
  void AppendCanonicalBytes(ByteWriter& w) const;

  /// Stable 16-hex-digit digest of the canonical encoding; the options
  /// component of the mapping-cache key (src/cache).
  std::string Digest() const;
};

/// A mapper's identity: its registry name, its Table-I cell and the
/// surveyed work it is modelled after. Each subclass states it once, in
/// its constructor's call to the base.
struct MapperInfo {
  std::string name;
  TechniqueClass technique;
  MappingKind kind;
  std::string lineage;  ///< citation tag
};

class Mapper {
 public:
  explicit Mapper(MapperInfo info) : info_(std::move(info)) {}
  virtual ~Mapper() = default;

  const std::string& name() const { return info_.name; }
  TechniqueClass technique() const { return info_.technique; }
  MappingKind kind() const { return info_.kind; }
  const std::string& lineage() const { return info_.lineage; }

  /// Maps `dfg` onto `arch`. The result, when ok, is guaranteed by the
  /// implementations to pass ValidateMapping (and the test suite
  /// re-checks it).
  virtual Result<Mapping> Map(const Dfg& dfg, const Architecture& arch,
                              const MapperOptions& options) const = 0;

 private:
  MapperInfo info_;
};

}  // namespace cgra
