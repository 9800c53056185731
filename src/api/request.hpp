// The versioned request surface of the mapping service.
//
// MapRequest is THE definition of one mapping job for every front-end:
// tools/cgra_serve parses one per HTTP request body, tools/cgra_batch
// parses a manifest of them. Before this layer existed cgra_batch had
// its own inline manifest parsing and cgra_serve would have grown a
// second copy; now both consume the same parse + validation code, so a
// field added here is a field added to the whole wire surface at once
// (docs/API.md documents the schema and the versioning policy).
//
// Versioning:
//   * every document may carry "schema_version"; absent means 1 (the
//     compatibility shim for pre-API v1 manifests, which never had the
//     field);
//   * an unknown version is rejected with a structured
//     kInvalidArgument error naming the field — a v1 server must not
//     silently misread a v2 request;
//   * unknown FIELDS are ignored (forward compatibility: an old
//     server can serve a newer client's request as long as the
//     version matches).
//
// Parsing and validation are separate steps on purpose: cgra_serve
// rejects an invalid request with HTTP 400 before doing any work,
// while cgra_batch turns an invalid manifest entry into a failed job
// row and keeps running the others.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "arch/arch.hpp"
#include "engine/engine.hpp"
#include "ir/kernels.hpp"
#include "support/json.hpp"
#include "support/status.hpp"

namespace cgra::api {

/// The wire schema version this build speaks.
inline constexpr int kSchemaVersion = 1;

/// One mapping job. Defaults match the historical cgra_batch manifest
/// defaults, so a sparse v1 manifest entry keeps its old meaning.
struct MapRequest {
  int schema_version = kSchemaVersion;
  std::string name;                  ///< job label (report/trace key)
  std::string fabric;                ///< architecture preset name
  std::string kernel;                ///< kernel catalog name
  std::vector<std::string> mappers;  ///< portfolio, in order
  double deadline_seconds = 10.0;    ///< per-request engine budget
  int priority = 0;                  ///< 0 = normal; admission hint, 0..100
  std::uint64_t seed = 42;
  int min_ii = 1;
  int max_ii = 16;
  int extra_slack = 2;
  int iterations = 16;               ///< kernel trip count
  std::vector<int> dead_cells;       ///< FaultModel cells to kill
  /// Opt-in: echo a search-effort summary ("search" key) in the
  /// response, aggregated from the attempts' SearchLogs. Off by
  /// default — the summary costs an observer attachment per request.
  bool stats = false;

  bool operator==(const MapRequest&) const = default;
};

// ---- catalogs -------------------------------------------------------------
// The names a request may reference, shared by every front-end (these
// used to live inside cgra_batch.cpp).

/// Architecture preset by name, freshly built; nullopt for unknown
/// names.
std::optional<Architecture> FabricByName(const std::string& name);

/// The fault-free preset fabrics, each built with its MRRG on first
/// use and never changed or freed after: one slot per preset, so a
/// store holds at most KnownFabricNames().size() fabrics. Global() is
/// the process-wide store ResolveMapRequest serves.
class FabricStore {
 public:
  FabricStore();
  FabricStore(const FabricStore&) = delete;
  FabricStore& operator=(const FabricStore&) = delete;

  /// The preset `name`; nullptr for unknown names. Thread-safe:
  /// concurrent first uses of a preset build it once.
  std::shared_ptr<const Architecture> Get(const std::string& name);

  static FabricStore& Global();

 private:
  struct Slot {
    std::once_flag built;
    std::shared_ptr<const Architecture> fabric;
  };
  std::vector<Slot> slots_;
};

/// Kernel by catalog name ("dot_product", ..., "wide_dot_<lanes>");
/// nullopt for unknown names.
std::optional<Kernel> KernelByName(const std::string& name, int iterations,
                                   std::uint64_t seed);

/// True when `name` is a known fabric / kernel name (without building
/// it).
bool IsKnownFabric(const std::string& name);
bool IsKnownKernel(const std::string& name);

/// Every fixed fabric / kernel name, for error messages and docs.
const std::vector<std::string>& KnownFabricNames();
const std::vector<std::string>& KnownKernelNames();

// ---- parse / validate / serialize ----------------------------------------

/// Parses one request object on top of `defaults` (manifest-style
/// layering: absent fields keep the default's value). Checks only
/// structure: field types and schema_version. Semantic validation is
/// ValidateMapRequest.
Result<MapRequest> ParseMapRequest(const Json& object,
                                   const MapRequest& defaults = {});

/// Parse from raw JSON text (one object document).
Result<MapRequest> ParseMapRequestText(std::string_view text,
                                       const MapRequest& defaults = {});

/// Semantic validation with structured errors: every failure is
/// kInvalidArgument with a message of the form
///   field "<name>": <what is wrong>
/// so clients (and tests) can key on the offending field.
Status ValidateMapRequest(const MapRequest& request);

/// What a validated request resolves to, for every front-end: the
/// fabric, the kernel, and engine options carrying the request's
/// deadline, seed, II window and slack. Without dead cells the fabric
/// is FabricStore::Global()'s preset, its MRRG already built; with them
/// it is a private derated copy that builds its own MRRG when first
/// mapped. Each front-end adds its own policy (race, observer, cache,
/// isolation) to `engine`.
struct ResolvedRequest {
  std::shared_ptr<const Architecture> fabric;
  Kernel kernel;
  EngineOptions engine;
};

/// Looks up the fabric and kernel and applies the dead cells.
/// kInvalidArgument errors name the field: an unknown fabric or kernel
/// (unreachable after ValidateMapRequest), or a dead cell outside the
/// fabric.
Result<ResolvedRequest> ResolveMapRequest(const MapRequest& request);

/// Canonical serialization; parse(serialize(r)) == r (round-trip
/// tested). Every field is emitted, including defaults.
std::string ToJson(const MapRequest& request);

/// Parses a whole batch manifest: optional "schema_version" (absent =>
/// v1 shim), optional "defaults" object layered under every job,
/// mandatory non-empty "jobs" array. Jobs with no "name" get
/// "job<index>". A manifest that parses but has an empty jobs array is
/// an explicit kInvalidArgument (it used to die with a bare stderr
/// line). Per-job semantic validation is NOT performed here — see the
/// header comment.
Result<std::vector<MapRequest>> ParseManifest(const Json& doc);
Result<std::vector<MapRequest>> ParseManifestText(std::string_view text);

}  // namespace cgra::api
