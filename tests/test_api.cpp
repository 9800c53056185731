// Tests for the versioned src/api request/response layer: the single
// wire surface shared by tools/cgra_serve and tools/cgra_batch
// (docs/API.md is the contract these tests pin down).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/request.hpp"
#include "api/response.hpp"
#include "support/json.hpp"
#include "support/status.hpp"

namespace cgra {
namespace {

// ---- request round-trip ---------------------------------------------------

TEST(ApiRequest, RoundTripPreservesEveryField) {
  api::MapRequest r;
  r.name = "job \"quoted\"";
  r.fabric = "adres4x4";
  r.kernel = "dot_product";
  r.mappers = {"ims", "heur-sa"};
  r.deadline_seconds = 2.5;
  r.priority = 7;
  r.seed = 12345;
  r.min_ii = 2;
  r.max_ii = 9;
  r.extra_slack = 3;
  r.iterations = 8;
  r.dead_cells = {1, 5};

  const Result<api::MapRequest> back = api::ParseMapRequestText(api::ToJson(r));
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(*back, r);
}

TEST(ApiRequest, DefaultsMatchHistoricalManifestDefaults) {
  const Result<api::MapRequest> r = api::ParseMapRequestText(
      R"({"fabric":"adres4x4","kernel":"vecadd","mappers":["ims"]})");
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r->schema_version, api::kSchemaVersion);
  EXPECT_EQ(r->deadline_seconds, 10.0);
  EXPECT_EQ(r->priority, 0);
  EXPECT_EQ(r->seed, 42u);
  EXPECT_EQ(r->min_ii, 1);
  EXPECT_EQ(r->max_ii, 16);
  EXPECT_EQ(r->extra_slack, 2);
  EXPECT_EQ(r->iterations, 16);
  EXPECT_TRUE(r->dead_cells.empty());
}

// ---- versioning policy ----------------------------------------------------

TEST(ApiRequest, AbsentSchemaVersionMeansV1) {
  // The compatibility shim: pre-API documents never carried the field.
  const Result<api::MapRequest> r = api::ParseMapRequestText(
      R"({"fabric":"adres4x4","kernel":"vecadd","mappers":["ims"]})");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema_version, 1);
}

TEST(ApiRequest, UnknownSchemaVersionIsStructuredError) {
  const Result<api::MapRequest> r = api::ParseMapRequestText(
      R"({"schema_version":99,"fabric":"adres4x4"})");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Error::Code::kInvalidArgument);
  // The error names the offending field so clients can key on it.
  EXPECT_NE(r.error().message.find("\"schema_version\""), std::string::npos)
      << r.error().message;
  EXPECT_NE(r.error().message.find("99"), std::string::npos);
}

TEST(ApiRequest, NonNumericSchemaVersionRejected) {
  const Result<api::MapRequest> r =
      api::ParseMapRequestText(R"({"schema_version":"one"})");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("\"schema_version\""), std::string::npos);
}

TEST(ApiRequest, UnknownFieldsAreIgnored) {
  // Forward compatibility: an old server serves a newer client's
  // request as long as the version matches.
  const Result<api::MapRequest> r = api::ParseMapRequestText(
      R"({"fabric":"adres4x4","kernel":"vecadd","mappers":["ims"],
          "future_field":{"nested":true}})");
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r->fabric, "adres4x4");
}

TEST(ApiRequest, WrongFieldTypeIsStructuredError) {
  const Result<api::MapRequest> r =
      api::ParseMapRequestText(R"({"mappers":"ims"})");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("\"mappers\""), std::string::npos);
}

// ---- semantic validation --------------------------------------------------

api::MapRequest ValidRequest() {
  api::MapRequest r;
  r.fabric = "adres4x4";
  r.kernel = "dot_product";
  r.mappers = {"ims"};
  return r;
}

TEST(ApiValidate, AcceptsValidRequest) {
  EXPECT_TRUE(api::ValidateMapRequest(ValidRequest()).ok());
}

TEST(ApiValidate, EachFailureNamesTheField) {
  struct Case {
    const char* field;
    void (*mutate)(api::MapRequest&);
  };
  const Case cases[] = {
      {"fabric", [](api::MapRequest& r) { r.fabric = "nope9x9"; }},
      {"kernel", [](api::MapRequest& r) { r.kernel = "nope"; }},
      {"mappers", [](api::MapRequest& r) { r.mappers.clear(); }},
      {"mappers", [](api::MapRequest& r) { r.mappers = {"no-such-mapper"}; }},
      {"deadline_seconds",
       [](api::MapRequest& r) { r.deadline_seconds = 0.0; }},
      {"deadline_seconds",
       [](api::MapRequest& r) { r.deadline_seconds = -1.0; }},
      {"priority", [](api::MapRequest& r) { r.priority = 101; }},
      {"priority", [](api::MapRequest& r) { r.priority = -1; }},
      {"min_ii", [](api::MapRequest& r) { r.min_ii = 0; }},
      {"max_ii", [](api::MapRequest& r) { r.max_ii = 0; }},
      {"extra_slack", [](api::MapRequest& r) { r.extra_slack = -1; }},
      {"iterations", [](api::MapRequest& r) { r.iterations = 0; }},
      {"dead_cells", [](api::MapRequest& r) { r.dead_cells = {-3}; }},
  };
  for (const Case& c : cases) {
    api::MapRequest r = ValidRequest();
    c.mutate(r);
    const Status s = api::ValidateMapRequest(r);
    ASSERT_FALSE(s.ok()) << "expected failure for field " << c.field;
    EXPECT_EQ(s.error().code, Error::Code::kInvalidArgument);
    EXPECT_NE(s.error().message.find(std::string("field \"") + c.field + "\""),
              std::string::npos)
        << c.field << ": " << s.error().message;
  }
}

TEST(ApiValidate, WideDotKernelNamesAreKnown) {
  api::MapRequest r = ValidRequest();
  r.kernel = "wide_dot_4";
  EXPECT_TRUE(api::ValidateMapRequest(r).ok());
  r.kernel = "wide_dot_0";
  EXPECT_FALSE(api::ValidateMapRequest(r).ok());
}

TEST(ApiCatalog, EveryListedFabricResolves) {
  for (const std::string& name : api::KnownFabricNames()) {
    EXPECT_TRUE(api::FabricByName(name).has_value()) << name;
  }
  EXPECT_FALSE(api::FabricByName("unlisted").has_value());
}

TEST(ApiCatalog, FabricNameListAndPresetsAgree) {
  // Validation checks the name against the list; FabricByName builds the
  // preset. Listed => builds a fabric of that name, and every preset
  // builds under its own name, which is listed.
  for (const std::string& name : api::KnownFabricNames()) {
    EXPECT_TRUE(api::IsKnownFabric(name)) << name;
    const std::optional<Architecture> arch = api::FabricByName(name);
    ASSERT_TRUE(arch.has_value()) << name;
    EXPECT_EQ(arch->params().name, name);
  }
  const Architecture presets[] = {
      Architecture::Small2x2(),   Architecture::Adres4x4(),
      Architecture::Hetero4x4(),  Architecture::Spatial4x4(),
      Architecture::Torus4x4(),   Architecture::Big8x8(),
      Architecture::Mega16x16(),  Architecture::VliwLike4()};
  for (const Architecture& preset : presets) {
    const std::string& name = preset.params().name;
    EXPECT_TRUE(api::IsKnownFabric(name)) << name;
    EXPECT_TRUE(api::FabricByName(name).has_value()) << name;
  }
  EXPECT_EQ(api::KnownFabricNames().size(), std::size(presets));
  for (const char* name : {"unlisted", "", "ADRES4X4", "adres4x4 ", "adres"}) {
    EXPECT_FALSE(api::IsKnownFabric(name)) << name;
    EXPECT_FALSE(api::FabricByName(name).has_value()) << name;
  }
}

TEST(ApiCatalog, KernelNamesAndBuildersAgree) {
  // Listed => known and builds a kernel of that name. The last entry
  // names the wide_dot_<lanes> family, which builds per lane count.
  const std::vector<std::string>& names = api::KnownKernelNames();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.back(), "wide_dot_<lanes>");
  for (std::size_t i = 0; i + 1 < names.size(); ++i) {
    EXPECT_TRUE(api::IsKnownKernel(names[i])) << names[i];
    const std::optional<Kernel> k = api::KernelByName(names[i], 8, 1);
    ASSERT_TRUE(k.has_value()) << names[i];
    EXPECT_EQ(k->name, names[i]);
  }
  EXPECT_TRUE(api::IsKnownKernel("wide_dot_4"));
  const std::optional<Kernel> wide = api::KernelByName("wide_dot_4", 8, 1);
  ASSERT_TRUE(wide.has_value());
  EXPECT_EQ(wide->name, "wide_dot_4");
  for (const char* name :
       {"unlisted", "", "FIR4", "wide_dot_", "wide_dot_0", "wide_dot_<lanes>"}) {
    EXPECT_FALSE(api::IsKnownKernel(name)) << name;
    EXPECT_FALSE(api::KernelByName(name, 8, 1).has_value()) << name;
  }
}

TEST(ApiValidate, UnknownFabricErrorText) {
  api::MapRequest r = ValidRequest();
  r.fabric = "nope9x9";
  const Status s = api::ValidateMapRequest(r);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().message,
            "field \"fabric\": unknown fabric preset \"nope9x9\" (known: "
            "small2x2, adres4x4, hetero4x4, spatial4x4, torus4x4, big8x8, "
            "mega16x16, vliw4)");
}

// ---- request resolution ---------------------------------------------------

TEST(ApiResolve, DeadCellsDerateTheFabricAndRequestFillsTheEngine) {
  api::MapRequest r = ValidRequest();
  r.dead_cells = {1, 5};
  r.seed = 99;
  r.min_ii = 2;
  r.max_ii = 7;
  r.extra_slack = 3;
  const Result<api::ResolvedRequest> job = api::ResolveMapRequest(r);
  ASSERT_TRUE(job.ok()) << job.error().message;
  EXPECT_EQ(job->fabric->params().name, "adres4x4");
  EXPECT_FALSE(job->fabric->CellAlive(1));
  EXPECT_FALSE(job->fabric->CellAlive(5));
  EXPECT_TRUE(job->fabric->CellAlive(0));
  EXPECT_EQ(job->kernel.name, "dot_product");
  EXPECT_EQ(job->engine.seed, 99u);
  EXPECT_EQ(job->engine.min_ii, 2);
  EXPECT_EQ(job->engine.max_ii, 7);
  EXPECT_EQ(job->engine.extra_slack, 3);
  EXPECT_FALSE(job->engine.deadline.Expired());
}

TEST(ApiResolve, OutOfRangeDeadCellIsStructuredError) {
  api::MapRequest r = ValidRequest();
  r.dead_cells = {99};
  ASSERT_TRUE(api::ValidateMapRequest(r).ok());  // range needs the fabric
  const Result<api::ResolvedRequest> job = api::ResolveMapRequest(r);
  ASSERT_FALSE(job.ok());
  EXPECT_EQ(job.error().code, Error::Code::kInvalidArgument);
  EXPECT_EQ(job.error().message.rfind("field \"dead_cells\": ", 0), 0u)
      << job.error().message;
  EXPECT_NE(job.error().message.find("99"), std::string::npos)
      << job.error().message;
}

// ---- manifest parsing -----------------------------------------------------

TEST(ApiManifest, DefaultsLayerUnderJobs) {
  const Result<std::vector<api::MapRequest>> m = api::ParseManifestText(R"({
    "defaults": {"fabric": "adres4x4", "mappers": ["ims"], "max_ii": 8},
    "jobs": [
      {"name": "a", "kernel": "dot_product"},
      {"name": "b", "kernel": "vecadd", "fabric": "big8x8", "max_ii": 12}
    ]
  })");
  ASSERT_TRUE(m.ok()) << m.error().message;
  ASSERT_EQ(m->size(), 2u);
  EXPECT_EQ((*m)[0].fabric, "adres4x4");  // from defaults
  EXPECT_EQ((*m)[0].max_ii, 8);
  EXPECT_EQ((*m)[1].fabric, "big8x8");    // per-job override wins
  EXPECT_EQ((*m)[1].max_ii, 12);
  EXPECT_EQ((*m)[1].mappers, std::vector<std::string>{"ims"});
}

TEST(ApiManifest, AbsentOrSlashedNamesGetIndexNames) {
  const Result<std::vector<api::MapRequest>> m = api::ParseManifestText(R"({
    "jobs": [
      {"kernel": "dot_product"},
      {"name": "evil/../path", "kernel": "vecadd"}
    ]
  })");
  ASSERT_TRUE(m.ok()) << m.error().message;
  EXPECT_EQ((*m)[0].name, "job0");
  EXPECT_EQ((*m)[1].name, "job1");
}

TEST(ApiManifest, EmptyJobsArrayIsExplicitStructuredError) {
  const Result<std::vector<api::MapRequest>> m =
      api::ParseManifestText(R"({"jobs": []})");
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.error().code, Error::Code::kInvalidArgument);
  EXPECT_NE(m.error().message.find("\"jobs\""), std::string::npos)
      << m.error().message;
}

TEST(ApiManifest, MissingJobsArrayRejected) {
  const Result<std::vector<api::MapRequest>> m =
      api::ParseManifestText(R"({"defaults": {}})");
  ASSERT_FALSE(m.ok());
  EXPECT_NE(m.error().message.find("\"jobs\""), std::string::npos);
}

TEST(ApiManifest, BadJobEntryNamesItsIndex) {
  const Result<std::vector<api::MapRequest>> m = api::ParseManifestText(R"({
    "jobs": [{"kernel": "dot_product"}, {"mappers": 3}]
  })");
  ASSERT_FALSE(m.ok());
  EXPECT_NE(m.error().message.find("jobs[1]"), std::string::npos)
      << m.error().message;
}

TEST(ApiManifest, V1ShimMatchesExplicitVersion) {
  // A manifest without schema_version (the pre-API format) must parse
  // identically to the same manifest with "schema_version": 1.
  const std::string body = R"(
    "defaults": {"fabric": "adres4x4", "mappers": ["ims"]},
    "jobs": [{"name": "j", "kernel": "saxpy", "seed": 7}]
  )";
  const Result<std::vector<api::MapRequest>> shim =
      api::ParseManifestText("{" + body + "}");
  const Result<std::vector<api::MapRequest>> tagged =
      api::ParseManifestText("{\"schema_version\":1," + body + "}");
  ASSERT_TRUE(shim.ok()) << shim.error().message;
  ASSERT_TRUE(tagged.ok()) << tagged.error().message;
  EXPECT_EQ(*shim, *tagged);
}

TEST(ApiManifest, V2ManifestRejected) {
  const Result<std::vector<api::MapRequest>> m =
      api::ParseManifestText(R"({"schema_version": 2, "jobs": [{}]})");
  ASSERT_FALSE(m.ok());
  EXPECT_NE(m.error().message.find("\"schema_version\""), std::string::npos);
}

TEST(ApiManifest, MalformedManifestTable) {
  // Every broken input is a structured kInvalidArgument — never a
  // crash, never a silently-empty job list.
  struct Case {
    const char* name;
    const char* text;
  };
  const Case cases[] = {
      {"empty input", ""},
      {"whitespace only", "   \n\t "},
      {"unterminated object", R"({"jobs": [{"kernel": "dot_product"})"},
      {"unterminated array", R"({"jobs": [{"kernel": "dot_product"})"},
      {"unterminated string", R"({"jobs": [{"kernel": "dot_prod)"},
      {"truncated mid-key", R"({"jobs": [{"ker)"},
      {"bare value", "42"},
      {"array at top level", R"([{"kernel": "dot_product"}])"},
      {"trailing garbage", R"({"jobs": [{"kernel": "vecadd"}]} extra)"},
      {"jobs is not an array", R"({"jobs": {"kernel": "vecadd"}})"},
      {"job entry is a string", R"({"jobs": ["dot_product"]})"},
  };
  for (const Case& c : cases) {
    const Result<std::vector<api::MapRequest>> m =
        api::ParseManifestText(c.text);
    ASSERT_FALSE(m.ok()) << c.name;
    EXPECT_EQ(m.error().code, Error::Code::kInvalidArgument) << c.name;
    EXPECT_FALSE(m.error().message.empty()) << c.name;
  }
}

TEST(ApiManifest, DuplicateFieldsResolveFirstWinsDeterministically) {
  // JSON with duplicate keys is legal per RFC 8259 but ambiguous; the
  // parser resolves it deterministically (first occurrence wins), so
  // the same manifest text can never produce two different batches.
  const Result<std::vector<api::MapRequest>> m = api::ParseManifestText(R"({
    "jobs": [{"name": "a", "name": "b",
              "kernel": "dot_product", "kernel": "vecadd",
              "seed": 1, "seed": 2}]
  })");
  ASSERT_TRUE(m.ok()) << m.error().message;
  ASSERT_EQ(m->size(), 1u);
  EXPECT_EQ((*m)[0].name, "a");
  EXPECT_EQ((*m)[0].kernel, "dot_product");
  EXPECT_EQ((*m)[0].seed, 1u);

  // Same rule one level up: a duplicated "jobs" array is read once.
  const Result<std::vector<api::MapRequest>> dup = api::ParseManifestText(R"({
    "jobs": [{"kernel": "dot_product"}],
    "jobs": [{"kernel": "vecadd"}, {"kernel": "saxpy"}]
  })");
  ASSERT_TRUE(dup.ok()) << dup.error().message;
  ASSERT_EQ(dup->size(), 1u);
  EXPECT_EQ((*dup)[0].kernel, "dot_product");
}

// ---- response -------------------------------------------------------------

TEST(ApiResponse, ErrorResponseRoundTrips) {
  api::MapRequest req = ValidRequest();
  req.name = "failing";
  const api::MapResponse r = api::BuildErrorResponse(
      req, Error::InvalidArgument("field \"fabric\": nope"), 0.25, 77);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.status, "invalid-argument");

  const std::string json = api::ToJson(r);
  const Result<api::MapResponse> back = api::ParseMapResponseText(json);
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(back->name, "failing");
  EXPECT_FALSE(back->ok);
  EXPECT_EQ(back->status, "invalid-argument");
  EXPECT_EQ(back->error_code, "invalid-argument");
  EXPECT_EQ(back->error_message, "field \"fabric\": nope");
  EXPECT_EQ(back->wall_seconds, 0.25);
  EXPECT_EQ(back->correlation, 77u);
}

TEST(ApiResponse, JsonKeepsHistoricalReportFieldNames) {
  // scripts/check_batch_report.py keys on these names; renaming any of
  // them is a breaking change to the whole report/serve surface.
  const api::MapResponse r =
      api::BuildErrorResponse(ValidRequest(), Error::Internal("x"));
  const std::string json = api::ToJson(r);
  for (const char* key :
       {"\"name\"", "\"fabric\"", "\"kernel\"", "\"mappers\"", "\"ok\"",
        "\"ii\"", "\"wall_seconds\"", "\"cache_hit\"", "\"mapping_digest\"",
        "\"winner\"", "\"error\"", "\"message\"", "\"schema_version\"",
        "\"status\"", "\"wall_ms\"", "\"corr\"", "\"attempts\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

TEST(ApiResponse, AttemptRowsRoundTrip) {
  api::MapResponse r;
  r.name = "j";
  r.ok = true;
  r.status = "ok";
  api::MapResponse::Attempt a;
  a.mapper = "ims";
  a.ok = false;
  a.ii = 3;
  a.seconds = 0.5;
  a.error_code = "unmappable";
  a.message = "no slot";
  r.attempts.push_back(a);

  const Result<api::MapResponse> back =
      api::ParseMapResponseText(api::ToJson(r));
  ASSERT_TRUE(back.ok()) << back.error().message;
  ASSERT_EQ(back->attempts.size(), 1u);
  EXPECT_EQ(back->attempts[0].mapper, "ims");
  EXPECT_FALSE(back->attempts[0].ok);
  EXPECT_EQ(back->attempts[0].ii, 3);
  EXPECT_EQ(back->attempts[0].error_code, "unmappable");
  EXPECT_EQ(back->attempts[0].message, "no slot");
}

TEST(ApiResponse, UnknownResponseVersionRejected) {
  const Result<api::MapResponse> r =
      api::ParseMapResponseText(R"({"schema_version": 5})");
  EXPECT_FALSE(r.ok());
}

TEST(ApiResponse, ErrorJsonIsCanonicalAndEscaped) {
  const std::string json = api::ErrorJson("not-found", "no \"such\" path");
  const Result<Json> doc = Json::Parse(json);
  ASSERT_TRUE(doc.ok()) << json;
  EXPECT_EQ(doc->Find("schema_version")->AsInt(), 1);
  EXPECT_EQ(doc->Find("status")->AsString(), "not-found");
  EXPECT_EQ(doc->Find("message")->AsString(), "no \"such\" path");
}

}  // namespace
}  // namespace cgra
