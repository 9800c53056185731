#include "engine/sandbox.hpp"

#include <cstdint>
#include <utility>

#include "support/bytes.hpp"
#include "support/str.hpp"
#include "telemetry/search_log.hpp"

namespace cgra {

namespace {

constexpr char kFrameMapping = 'M';
constexpr char kFrameError = 'E';
constexpr char kFrameRecord = 'S';  // length-prefixed AttemptRecord

Error::Code CodeFromByte(unsigned char b, bool* valid) {
  *valid = true;
  switch (b) {
    case 0: return Error::Code::kInvalidArgument;
    case 1: return Error::Code::kUnmappable;
    case 2: return Error::Code::kResourceLimit;
    case 3: return Error::Code::kInternal;
    default:
      *valid = false;
      return Error::Code::kInternal;
  }
}

unsigned char ByteFromCode(Error::Code c) {
  switch (c) {
    case Error::Code::kInvalidArgument: return 0;
    case Error::Code::kUnmappable: return 1;
    case Error::Code::kResourceLimit: return 2;
    case Error::Code::kInternal: return 3;
  }
  return 3;
}

/// The child's whole-Map record in the frame-prefix layout
/// (sandbox.hpp): every counter, then the search log's JSON.
std::string EncodeRecord(const PerfCounters& perf,
                         const telemetry::SearchLog& search) {
  ByteWriter w;
  for (const PerfCounterField& f : kPerfCounterFields) w.U64(perf.*f.member);
  w.Str(search.Any() ? search.ToJson() : std::string());
  return w.Take();
}

/// Inverse of EncodeRecord. A payload that does not decode leaves the
/// record (or just its search log) empty rather than failing the
/// attempt: the mapping result alone decides the attempt's fate.
void DecodeRecord(std::string_view bytes, AttemptRecord* record) {
  ByteReader r(bytes);
  PerfCounters perf;
  for (const PerfCounterField& f : kPerfCounterFields) {
    if (!r.U64(perf.*f.member)) return;
  }
  record->perf = perf;
  std::string search_json;
  if (!r.Str(search_json) || search_json.empty()) return;
  auto log = std::make_shared<telemetry::SearchLog>();
  std::string error;
  if (telemetry::SearchLog::FromJson(search_json, log.get(), &error)) {
    record->search = std::move(log);
  }
}

}  // namespace

std::string EncodeSandboxFrame(const Result<Mapping>& result,
                               std::string_view record) {
  ByteWriter out;
  if (!record.empty()) {
    out.U8(kFrameRecord);
    out.Str(record);
  }
  std::string frame = out.Take();
  if (result.ok()) {
    frame.push_back(kFrameMapping);
    frame += SerializeMapping(*result);
  } else {
    frame.push_back(kFrameError);
    frame.push_back(static_cast<char>(ByteFromCode(result.error().code)));
    frame += result.error().message;
  }
  return frame;
}

Result<Mapping> DecodeSandboxFrame(std::string_view bytes,
                                   bool* wire_corrupt,
                                   std::string* record) {
  *wire_corrupt = false;
  if (record != nullptr) record->clear();
  if (bytes.empty()) {
    *wire_corrupt = true;
    return Error::Internal("sandbox: empty result frame");
  }
  if (bytes[0] == kFrameRecord) {
    ByteReader r(bytes.substr(1));
    std::string payload;
    if (!r.Str(payload)) {
      *wire_corrupt = true;
      return Error::Internal("sandbox: truncated record prefix");
    }
    bytes.remove_prefix(1 + r.pos());
    if (bytes.empty()) {
      *wire_corrupt = true;
      return Error::Internal("sandbox: record prefix without a result frame");
    }
    if (record != nullptr) *record = std::move(payload);
  }
  const char tag = bytes[0];
  bytes.remove_prefix(1);
  if (tag == kFrameMapping) {
    Result<Mapping> m = DeserializeMapping(bytes);
    if (!m.ok()) {
      // SerializeMapping's checksum turns child heap corruption into a
      // detectable decode failure instead of a wrong answer.
      *wire_corrupt = true;
      return Error::Internal(StrFormat("sandbox: mapping frame corrupt: %s",
                                       m.error().message.c_str()));
    }
    return m;
  }
  if (tag == kFrameError) {
    if (bytes.empty()) {
      *wire_corrupt = true;
      return Error::Internal("sandbox: truncated error frame");
    }
    bool valid = false;
    Error::Code code =
        CodeFromByte(static_cast<unsigned char>(bytes[0]), &valid);
    if (!valid) {
      *wire_corrupt = true;
      return Error::Internal("sandbox: error frame carries unknown code");
    }
    bytes.remove_prefix(1);
    return Error{code, std::string(bytes)};
  }
  *wire_corrupt = true;
  return Error::Internal(
      StrFormat("sandbox: unknown frame tag 0x%02x", tag & 0xff));
}

std::string SandboxLabel(const SandboxOutcome& outcome) {
  if (outcome.crash == SandboxCrash::kNone) return "ok";
  if (outcome.crash == SandboxCrash::kSignal) {
    return StrFormat("signal:%s", SignalName(outcome.signal).c_str());
  }
  return std::string(SandboxCrashName(outcome.crash));
}

SandboxedMapResult SandboxedMap(const Mapper& mapper, const Dfg& dfg,
                                const Architecture& arch,
                                const MapperOptions& options,
                                const SandboxLimits& limits) {
  // The child's copy of these options must not reach back into parent
  // state whose locks other threads may hold at the fork instant: the
  // observer locks internally.
  MapperOptions child_options = options;
  child_options.observer = nullptr;
  // Nor may it build the fabric's graph: another parent thread could
  // hold the graph slot's lock at the fork instant.
  arch.mrrg();

  SandboxedMapResult out;
  out.outcome = RunInSandbox(
      [&]() {
        // The child's per-attempt records die with its nulled observer,
        // so it ships one whole-Map record instead: the counter delta
        // across Map(), and one whole-Map collector covering every II
        // (the per-attempt collectors require an observer and never
        // install). The collector follows the attempt bracket's test
        // on the parent's observer.
        telemetry::SearchLog child_log;
        const PerfCounters before = ThreadPerfCounters();
        Result<Mapping> r = [&] {
          telemetry::ScopedSearchLog scoped(
              options.observer != nullptr &&
                      telemetry::GetSearchDetail() !=
                          telemetry::SearchDetail::kOff
                  ? &child_log
                  : nullptr);
          return SafeMap(mapper, dfg, arch, child_options);
        }();
        return EncodeSandboxFrame(
            r, EncodeRecord(ThreadPerfCounters() - before, child_log));
      },
      limits, options.deadline, options.stop);

  switch (out.outcome.crash) {
    case SandboxCrash::kNone: {
      bool wire_corrupt = false;
      std::string record;
      out.result =
          DecodeSandboxFrame(out.outcome.payload, &wire_corrupt, &record);
      if (wire_corrupt) {
        out.outcome.crash = SandboxCrash::kWireCorrupt;
        out.outcome.detail = out.result.error().message;
      } else {
        DecodeRecord(record, &out.record);
      }
      break;
    }
    case SandboxCrash::kSignal:
    case SandboxCrash::kOom:
    case SandboxCrash::kWireCorrupt:
    case SandboxCrash::kExit:
      out.result = Error::Internal(StrFormat(
          "mapper %s crashed in sandbox: %s", mapper.name().c_str(),
          out.outcome.detail.c_str()));
      break;
    case SandboxCrash::kTimeout:
    case SandboxCrash::kCancelled:
      out.result = Error::ResourceLimit(StrFormat(
          "mapper %s: %s", mapper.name().c_str(), out.outcome.detail.c_str()));
      break;
    case SandboxCrash::kSpawnFailed:
      out.result = Error::ResourceLimit(StrFormat(
          "mapper %s: sandbox unavailable: %s", mapper.name().c_str(),
          out.outcome.detail.c_str()));
      break;
  }
  return out;
}

}  // namespace cgra
