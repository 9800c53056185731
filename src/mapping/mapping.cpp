#include "mapping/mapping.hpp"

#include <algorithm>
#include <set>
#include <tuple>

#include "arch/context.hpp"
#include "support/bytes.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

namespace cgra {

MappingStats ComputeStats(const Dfg& dfg, const Architecture& arch,
                          const Mapping& m) {
  MappingStats s;
  s.ii = m.ii;
  s.length = m.length;
  std::set<int> cells;
  for (OpId op = 0; op < dfg.num_ops(); ++op) {
    const Placement& p = m.place[static_cast<size_t>(op)];
    if (p.cell >= 0) {
      ++s.ops_mapped;
      cells.insert(p.cell);
    }
  }
  s.cells_used = static_cast<int>(cells.size());
  std::set<std::tuple<OpId, int, int>> occ;
  const auto edges = dfg.Edges();
  for (size_t e = 0; e < m.routes.size() && e < edges.size(); ++e) {
    for (const RouteStep& step : m.routes[e].steps) {
      occ.insert({edges[e].from, step.node, step.time});
    }
  }
  s.route_steps = static_cast<int>(occ.size());
  const double denom = static_cast<double>(arch.num_cells()) * m.ii;
  s.fu_utilization = denom > 0 ? s.ops_mapped / denom : 0;
  // Energy proxy per iteration: one unit per executed op, 0.2 per
  // register write along routes, plus configuration fetch cost
  // proportional to the bits held for II frames, amortised.
  s.energy_proxy = s.ops_mapped + 0.2 * s.route_steps +
                   1e-4 * FrameBitCount(arch) * m.ii;
  return s;
}

std::string RenderSchedule(const Dfg& dfg, const Architecture& arch,
                           const Mapping& m) {
  std::vector<std::string> header{"cycle"};
  for (int c = 0; c < arch.num_cells(); ++c) {
    header.push_back(StrFormat("PE%d,%d", arch.RowOf(c), arch.ColOf(c)));
  }
  TextTable table(header);
  for (int t = 0; t < m.length; ++t) {
    std::vector<std::string> row{StrFormat("%d", t)};
    for (int c = 0; c < arch.num_cells(); ++c) {
      std::string cell;
      for (OpId op = 0; op < dfg.num_ops(); ++op) {
        const Placement& p = m.place[static_cast<size_t>(op)];
        if (p.cell == c && p.time == t) cell = dfg.op(op).name;
      }
      row.push_back(cell);
    }
    table.AddRow(std::move(row));
    if ((t + 1) % m.ii == 0 && t + 1 < m.length) table.AddRule();
  }
  return table.Render();
}

namespace {

constexpr std::string_view kMappingMagic = "CGRM";

/// The version + fields, without magic or checksum — what the digest
/// and the checksum are computed over.
std::string MappingPayload(const Mapping& m) {
  ByteWriter w;
  w.U32(kMappingFormatVersion);
  w.I32(m.ii);
  w.I32(m.length);
  w.U32(static_cast<std::uint32_t>(m.place.size()));
  for (const Placement& p : m.place) {
    w.I32(p.cell);
    w.I32(p.time);
  }
  w.U32(static_cast<std::uint32_t>(m.routes.size()));
  for (const Route& r : m.routes) {
    w.U32(static_cast<std::uint32_t>(r.steps.size()));
    for (const RouteStep& s : r.steps) {
      w.I32(s.node);
      w.I32(s.time);
    }
  }
  return w.Take();
}

}  // namespace

std::string SerializeMapping(const Mapping& mapping) {
  const std::string payload = MappingPayload(mapping);
  ByteWriter w;
  w.Str(kMappingMagic);
  ByteWriter tail;
  tail.U64(Fnv1a64(payload));
  std::string out = w.Take();
  out += payload;
  out += tail.bytes();
  return out;
}

Result<Mapping> DeserializeMapping(std::string_view bytes) {
  ByteReader r(bytes);
  std::string magic;
  if (!r.Str(magic) || magic != kMappingMagic) {
    return Error::InvalidArgument("mapping blob: bad magic");
  }
  if (r.remaining() < 8) {
    return Error::InvalidArgument("mapping blob: truncated");
  }
  const std::string_view payload =
      bytes.substr(r.pos(), r.remaining() - 8);
  ByteReader t(bytes.substr(r.pos() + payload.size()));
  std::uint64_t checksum = 0;
  t.U64(checksum);
  if (checksum != Fnv1a64(payload)) {
    return Error::InvalidArgument("mapping blob: checksum mismatch");
  }

  ByteReader p(payload);
  std::uint32_t version = 0;
  if (!p.U32(version)) {
    return Error::InvalidArgument("mapping blob: truncated");
  }
  if (version != kMappingFormatVersion) {
    return Error::InvalidArgument(
        StrFormat("mapping blob: format version %u, expected %u", version,
                  kMappingFormatVersion));
  }
  Mapping m;
  std::uint32_t n = 0;
  if (!p.I32(m.ii) || !p.I32(m.length) || !p.U32(n)) {
    return Error::InvalidArgument("mapping blob: truncated");
  }
  // Each placement is 8 bytes; pre-check so a corrupted count cannot
  // drive a multi-gigabyte allocation before the reads start failing.
  if (static_cast<std::uint64_t>(n) * 8 > p.remaining()) {
    return Error::InvalidArgument("mapping blob: placement count overruns");
  }
  m.place.resize(n);
  for (Placement& pl : m.place) {
    if (!p.I32(pl.cell) || !p.I32(pl.time)) {
      return Error::InvalidArgument("mapping blob: truncated placements");
    }
  }
  if (!p.U32(n)) return Error::InvalidArgument("mapping blob: truncated");
  if (static_cast<std::uint64_t>(n) * 4 > p.remaining()) {
    return Error::InvalidArgument("mapping blob: route count overruns");
  }
  m.routes.resize(n);
  for (Route& route : m.routes) {
    std::uint32_t steps = 0;
    if (!p.U32(steps)) {
      return Error::InvalidArgument("mapping blob: truncated routes");
    }
    if (static_cast<std::uint64_t>(steps) * 8 > p.remaining()) {
      return Error::InvalidArgument("mapping blob: step count overruns");
    }
    route.steps.resize(steps);
    for (RouteStep& s : route.steps) {
      if (!p.I32(s.node) || !p.I32(s.time)) {
        return Error::InvalidArgument("mapping blob: truncated steps");
      }
    }
  }
  if (!p.AtEnd()) {
    return Error::InvalidArgument("mapping blob: trailing bytes");
  }
  return m;
}

std::string MappingDigestHex(const Mapping& mapping) {
  return Hex16(Fnv1a64(MappingPayload(mapping)));
}

}  // namespace cgra
