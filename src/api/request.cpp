#include "api/request.hpp"

#include <cmath>
#include <cstdlib>
#include <iterator>

#include "arch/fault.hpp"
#include "mappers/registry.hpp"
#include "support/str.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace cgra::api {

namespace {

Error FieldError(std::string_view field, std::string what) {
  return Error::InvalidArgument("field \"" + std::string(field) +
                                "\": " + std::move(what));
}

/// Checks "schema_version" on any API document: absent => v1 (the
/// compatibility shim), a number equal to kSchemaVersion => ok,
/// anything else => structured error.
Result<int> CheckSchemaVersion(const Json& doc) {
  const Json* v = doc.Find("schema_version");
  if (v == nullptr) return 1;  // pre-API documents never carried it
  if (!v->is_number()) {
    return FieldError("schema_version", "must be an integer");
  }
  const int version = static_cast<int>(v->AsInt());
  if (version != kSchemaVersion) {
    return FieldError(
        "schema_version",
        StrFormat("unsupported version %d (this build speaks %d)", version,
                  kSchemaVersion));
  }
  return version;
}

// The fabric catalog: one entry per preset, in KnownFabricNames order.
struct FabricPreset {
  const char* name;
  Architecture (*make)();
};
constexpr FabricPreset kFabricPresets[] = {
    {"small2x2", &Architecture::Small2x2},
    {"adres4x4", &Architecture::Adres4x4},
    {"hetero4x4", &Architecture::Hetero4x4},
    {"spatial4x4", &Architecture::Spatial4x4},
    {"torus4x4", &Architecture::Torus4x4},
    {"big8x8", &Architecture::Big8x8},
    {"mega16x16", &Architecture::Mega16x16},
    {"vliw4", &Architecture::VliwLike4},
};

const FabricPreset* FindFabricPreset(const std::string& name) {
  for (const FabricPreset& preset : kFabricPresets) {
    if (name == preset.name) return &preset;
  }
  return nullptr;
}

telemetry::Counter& FabricBuilds() {
  static telemetry::Counter& builds =
      telemetry::MetricsRegistry::Global().GetCounter(
          "cgra_fabric_builds_total",
          "Fabrics built to map requests on: each preset once per process, "
          "plus one per request with dead cells");
  return builds;
}

}  // namespace

std::optional<Architecture> FabricByName(const std::string& name) {
  const FabricPreset* preset = FindFabricPreset(name);
  if (preset == nullptr) return std::nullopt;
  return preset->make();
}

FabricStore::FabricStore() : slots_(std::size(kFabricPresets)) {}

std::shared_ptr<const Architecture> FabricStore::Get(const std::string& name) {
  const FabricPreset* preset = FindFabricPreset(name);
  if (preset == nullptr) return nullptr;
  Slot& slot = slots_[static_cast<size_t>(preset - kFabricPresets)];
  std::call_once(slot.built, [&] {
    telemetry::Span span("arch.fabric", preset->name);
    auto fabric = std::make_shared<const Architecture>(preset->make());
    fabric->mrrg();
    FabricBuilds().Add();
    slot.fabric = std::move(fabric);
  });
  return slot.fabric;
}

FabricStore& FabricStore::Global() {
  // Never destroyed: a request still running at exit keeps its fabric.
  static FabricStore* const store = new FabricStore();
  return *store;
}

bool IsKnownFabric(const std::string& name) {
  return FindFabricPreset(name) != nullptr;
}

std::optional<Kernel> KernelByName(const std::string& name, int iterations,
                                   std::uint64_t seed) {
  if (name == "dot_product") return MakeDotProduct(iterations, seed);
  if (name == "vecadd") return MakeVecAdd(iterations, seed);
  if (name == "saxpy") return MakeSaxpy(iterations, seed);
  if (name == "fir4") return MakeFir4(iterations, seed);
  if (name == "iir1") return MakeIir1(iterations, seed);
  if (name == "mavg3") return MakeMovingAvg3(iterations, seed);
  if (name == "sobel_gx") return MakeSobelRow(iterations, seed);
  if (name == "sad") return MakeSad(iterations, seed);
  if (name == "butterfly") return MakeButterfly(iterations, seed);
  if (name == "matvec_row") return MakeMatVecRow(iterations, seed);
  if (name == "gemm_mac") return MakeGemmMac(iterations, seed);
  if (name == "histogram8") return MakeHistogram8(iterations, seed);
  if (name == "relu_scale") return MakeReluScale(iterations, seed);
  if (name == "maxpool_run") return MakeRunningMaxPool(iterations, seed);
  if (name == "mac2") return MakeMac2(iterations, seed);
  if (name == "complex_mul") return MakeComplexMul(iterations, seed);
  if (name == "alpha_blend") return MakeAlphaBlend(iterations, seed);
  if (name == "dct4") return MakeDct4Stage(iterations, seed);
  if (name.rfind("wide_dot_", 0) == 0) {
    const int lanes = std::atoi(name.c_str() + 9);
    if (lanes > 0) return MakeWideDotProduct(lanes, iterations, seed);
  }
  return std::nullopt;
}

bool IsKnownKernel(const std::string& name) {
  if (name.rfind("wide_dot_", 0) == 0) return std::atoi(name.c_str() + 9) > 0;
  for (const std::string& k : KnownKernelNames()) {
    if (k == name) return true;
  }
  return false;
}

const std::vector<std::string>& KnownFabricNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const FabricPreset& preset : kFabricPresets) out.push_back(preset.name);
    return out;
  }();
  return names;
}

const std::vector<std::string>& KnownKernelNames() {
  static const std::vector<std::string> names = {
      "dot_product", "vecadd",      "saxpy",      "fir4",
      "iir1",        "mavg3",       "sobel_gx",   "sad",
      "butterfly",   "matvec_row",  "gemm_mac",   "histogram8",
      "relu_scale",  "maxpool_run", "mac2",       "complex_mul",
      "alpha_blend", "dct4",        "wide_dot_<lanes>"};
  return names;
}

Result<MapRequest> ParseMapRequest(const Json& object,
                                   const MapRequest& defaults) {
  if (!object.is_object()) {
    return Error::InvalidArgument("request must be a JSON object");
  }
  const Result<int> version = CheckSchemaVersion(object);
  if (!version.ok()) return version.error();

  MapRequest r = defaults;
  r.schema_version = kSchemaVersion;

  const auto string_field = [&](const char* key,
                                std::string& out) -> Status {
    const Json* v = object.Find(key);
    if (v == nullptr) return Status::Ok();
    if (!v->is_string()) return FieldError(key, "must be a string");
    out = v->AsString();
    return Status::Ok();
  };
  const auto int_field = [&](const char* key, int& out) -> Status {
    const Json* v = object.Find(key);
    if (v == nullptr) return Status::Ok();
    if (!v->is_number()) return FieldError(key, "must be a number");
    out = static_cast<int>(v->AsInt());
    return Status::Ok();
  };

  if (Status s = string_field("name", r.name); !s.ok()) return s.error();
  if (Status s = string_field("fabric", r.fabric); !s.ok()) return s.error();
  if (Status s = string_field("kernel", r.kernel); !s.ok()) return s.error();
  if (const Json* v = object.Find("mappers")) {
    if (!v->is_array()) return FieldError("mappers", "must be an array");
    r.mappers.clear();
    for (const Json& m : v->items()) {
      if (!m.is_string()) {
        return FieldError("mappers", "entries must be strings");
      }
      r.mappers.push_back(m.AsString());
    }
  }
  if (const Json* v = object.Find("deadline_seconds")) {
    if (!v->is_number()) return FieldError("deadline_seconds",
                                           "must be a number");
    r.deadline_seconds = v->AsDouble();
  }
  if (Status s = int_field("priority", r.priority); !s.ok()) return s.error();
  if (const Json* v = object.Find("seed")) {
    if (!v->is_number()) return FieldError("seed", "must be a number");
    r.seed = static_cast<std::uint64_t>(v->AsInt());
  }
  if (Status s = int_field("min_ii", r.min_ii); !s.ok()) return s.error();
  if (Status s = int_field("max_ii", r.max_ii); !s.ok()) return s.error();
  if (Status s = int_field("extra_slack", r.extra_slack); !s.ok()) {
    return s.error();
  }
  if (Status s = int_field("iterations", r.iterations); !s.ok()) {
    return s.error();
  }
  if (const Json* v = object.Find("dead_cells")) {
    if (!v->is_array()) return FieldError("dead_cells", "must be an array");
    r.dead_cells.clear();
    for (const Json& c : v->items()) {
      if (!c.is_number()) {
        return FieldError("dead_cells", "entries must be integers");
      }
      r.dead_cells.push_back(static_cast<int>(c.AsInt()));
    }
  }
  if (const Json* v = object.Find("stats")) {
    if (!v->is_bool()) return FieldError("stats", "must be a boolean");
    r.stats = v->AsBool();
  }
  return r;
}

Result<MapRequest> ParseMapRequestText(std::string_view text,
                                       const MapRequest& defaults) {
  const Result<Json> doc = Json::Parse(text);
  if (!doc.ok()) return doc.error();
  return ParseMapRequest(*doc, defaults);
}

Status ValidateMapRequest(const MapRequest& r) {
  if (r.schema_version != kSchemaVersion) {
    return FieldError("schema_version",
                      StrFormat("unsupported version %d (this build speaks "
                                "%d)",
                                r.schema_version, kSchemaVersion));
  }
  if (r.fabric.empty()) return FieldError("fabric", "is required");
  if (!IsKnownFabric(r.fabric)) {
    return FieldError("fabric", "unknown fabric preset \"" + r.fabric +
                                    "\" (known: " +
                                    Join(KnownFabricNames(), ", ") + ")");
  }
  if (r.kernel.empty()) return FieldError("kernel", "is required");
  if (!IsKnownKernel(r.kernel)) {
    return FieldError("kernel", "unknown kernel \"" + r.kernel +
                                    "\" (known: " +
                                    Join(KnownKernelNames(), ", ") + ")");
  }
  if (r.mappers.empty()) {
    return FieldError("mappers", "must name at least one mapper");
  }
  for (const std::string& m : r.mappers) {
    if (MapperRegistry::Global().Find(m) == nullptr) {
      return FieldError("mappers", "unknown mapper \"" + m + "\"");
    }
  }
  if (!(r.deadline_seconds > 0) || !std::isfinite(r.deadline_seconds)) {
    return FieldError("deadline_seconds", "must be a positive finite number");
  }
  if (r.priority < 0 || r.priority > 100) {
    return FieldError("priority", StrFormat("%d is outside 0..100",
                                            r.priority));
  }
  if (r.min_ii < 1) return FieldError("min_ii", "must be >= 1");
  if (r.max_ii < r.min_ii) {
    return FieldError("max_ii", StrFormat("%d is below min_ii %d", r.max_ii,
                                          r.min_ii));
  }
  if (r.extra_slack < 0) return FieldError("extra_slack", "must be >= 0");
  if (r.iterations < 1) return FieldError("iterations", "must be >= 1");
  for (const int c : r.dead_cells) {
    if (c < 0) return FieldError("dead_cells", "cell indices must be >= 0");
  }
  return Status::Ok();
}

Result<ResolvedRequest> ResolveMapRequest(const MapRequest& r) {
  std::shared_ptr<const Architecture> fabric =
      FabricStore::Global().Get(r.fabric);
  if (!fabric) {
    return FieldError("fabric", "unknown fabric \"" + r.fabric + "\"");
  }
  std::optional<Kernel> kernel = KernelByName(r.kernel, r.iterations, r.seed);
  if (!kernel) {
    return FieldError("kernel", "unknown kernel \"" + r.kernel + "\"");
  }
  if (!r.dead_cells.empty()) {
    FaultModel fm;
    for (const int c : r.dead_cells) fm.KillCell(c);
    if (Status s = fm.Validate(*fabric); !s.ok()) {
      return FieldError("dead_cells", s.error().message);
    }
    fabric = std::make_shared<const Architecture>(fabric->WithFaults(fm));
    FabricBuilds().Add();
  }
  EngineOptions eo;
  eo.deadline = Deadline::AfterSeconds(r.deadline_seconds);
  eo.seed = r.seed;
  eo.min_ii = r.min_ii;
  eo.max_ii = r.max_ii;
  eo.extra_slack = r.extra_slack;
  return ResolvedRequest{std::move(fabric), std::move(*kernel), std::move(eo)};
}

std::string ToJson(const MapRequest& r) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Int(r.schema_version);
  w.Key("name").String(r.name);
  w.Key("fabric").String(r.fabric);
  w.Key("kernel").String(r.kernel);
  w.Key("mappers").BeginArray();
  for (const std::string& m : r.mappers) w.String(m);
  w.EndArray();
  w.Key("deadline_seconds").Double(r.deadline_seconds);
  w.Key("priority").Int(r.priority);
  w.Key("seed").Uint(r.seed);
  w.Key("min_ii").Int(r.min_ii);
  w.Key("max_ii").Int(r.max_ii);
  w.Key("extra_slack").Int(r.extra_slack);
  w.Key("iterations").Int(r.iterations);
  w.Key("dead_cells").BeginArray();
  for (const int c : r.dead_cells) w.Int(c);
  w.EndArray();
  w.Key("stats").Bool(r.stats);
  w.EndObject();
  return w.Take();
}

Result<std::vector<MapRequest>> ParseManifest(const Json& doc) {
  if (!doc.is_object()) {
    return Error::InvalidArgument("manifest must be a JSON object");
  }
  const Result<int> version = CheckSchemaVersion(doc);
  if (!version.ok()) return version.error();

  MapRequest defaults;
  if (const Json* d = doc.Find("defaults")) {
    if (!d->is_object()) {
      return FieldError("defaults", "must be an object");
    }
    Result<MapRequest> parsed = ParseMapRequest(*d, defaults);
    if (!parsed.ok()) return parsed.error();
    defaults = *std::move(parsed);
  }

  const Json* jobs = doc.Find("jobs");
  if (jobs == nullptr || !jobs->is_array()) {
    return FieldError("jobs", "is required and must be an array");
  }
  if (jobs->items().empty()) {
    return FieldError("jobs", "array is empty — a manifest must name at "
                              "least one job");
  }

  std::vector<MapRequest> out;
  out.reserve(jobs->items().size());
  for (std::size_t i = 0; i < jobs->items().size(); ++i) {
    Result<MapRequest> parsed = ParseMapRequest(jobs->items()[i], defaults);
    if (!parsed.ok()) {
      return Error::InvalidArgument(
          StrFormat("jobs[%zu]: ", i) + parsed.error().message);
    }
    MapRequest r = *std::move(parsed);
    // Job names become trace / report file names; reject path
    // separators and default absent names, exactly as cgra_batch
    // always did.
    if (r.name.empty() || r.name.find('/') != std::string::npos) {
      r.name = StrFormat("job%zu", i);
    }
    out.push_back(std::move(r));
  }
  return out;
}

Result<std::vector<MapRequest>> ParseManifestText(std::string_view text) {
  const Result<Json> doc = Json::Parse(text);
  if (!doc.ok()) return doc.error();
  return ParseManifest(*doc);
}

}  // namespace cgra::api
