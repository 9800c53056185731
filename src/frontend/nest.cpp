#include "frontend/nest.hpp"

#include <algorithm>

#include "support/bytes.hpp"
#include "support/str.hpp"

namespace cgra::frontend {
namespace {

// All arithmetic in the frontend is wraparound int64, matching EvalAlu.
std::int64_t WrapAdd(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
std::int64_t WrapMul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}

// Min/max of an affine over the box [0, extent_i) for each support
// index. Extents come from the caller's index space (variables or
// loops). Assumes the small magnitudes Verify admits, so the sums
// cannot overflow.
struct Range {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};
Range AffineRange(const Affine& a,
                  const std::vector<std::int64_t>& extents) {
  Range r{a.c0, a.c0};
  for (int i = 0; i < static_cast<int>(a.coeff.size()); ++i) {
    const std::int64_t c = a.coeff[static_cast<size_t>(i)];
    if (c == 0) continue;
    const std::int64_t span =
        (i < static_cast<int>(extents.size()) ? extents[static_cast<size_t>(i)]
                                              : 1) -
        1;
    if (c > 0) {
      r.hi += c * span;
    } else {
      r.lo += c * span;
    }
  }
  return r;
}

Error StmtError(int band, int stmt, const std::string& what) {
  return Error::InvalidArgument(
      StrFormat("band %d statement %d: %s", band, stmt, what.c_str()));
}

}  // namespace

void Affine::SetCoeff(int i, std::int64_t c) {
  if (i < 0) return;
  if (i >= static_cast<int>(coeff.size())) {
    if (c == 0) return;
    coeff.resize(static_cast<size_t>(i) + 1, 0);
  }
  coeff[static_cast<size_t>(i)] = c;
}

std::vector<int> Affine::Support() const {
  std::vector<int> s;
  for (int i = 0; i < static_cast<int>(coeff.size()); ++i) {
    if (coeff[static_cast<size_t>(i)] != 0) s.push_back(i);
  }
  return s;
}

std::vector<int> Band::Vars() const {
  std::vector<int> vars;
  for (int v = 0; v < static_cast<int>(recover.size()); ++v) {
    if (!recover[static_cast<size_t>(v)].Support().empty()) vars.push_back(v);
  }
  return vars;
}

std::int64_t Band::DomainSize() const {
  std::int64_t total = 1;
  for (const Loop& l : loops) {
    if (l.trip <= 0) return 0;
    if (total > kMaxDomainSize / l.trip + 1) return kMaxDomainSize + 1;
    total *= l.trip;
  }
  return total;
}

bool IsReductionOpcode(Opcode op) {
  switch (op) {
    case Opcode::kAdd:
    case Opcode::kMul:
    case Opcode::kMin:
    case Opcode::kMax:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
      return true;
    default:
      return false;
  }
}

Status NestProgram::Verify() const {
  if (num_vars < 0 ||
      static_cast<int>(var_extent.size()) != num_vars) {
    return Error::InvalidArgument(
        StrFormat("var_extent has %zu entries for %d variables",
                  var_extent.size(), num_vars));
  }
  for (int v = 0; v < num_vars; ++v) {
    if (var_extent[static_cast<size_t>(v)] <= 0) {
      return Error::InvalidArgument(StrFormat(
          "variable %d has zero-trip extent %lld (empty loops are "
          "rejected, not lowered)",
          v, static_cast<long long>(var_extent[static_cast<size_t>(v)])));
    }
  }
  for (int a = 0; a < static_cast<int>(arrays.size()); ++a) {
    const ArrayDecl& decl = arrays[static_cast<size_t>(a)];
    if (decl.size <= 0) {
      return Error::InvalidArgument(
          StrFormat("array %d (%s) has size %d", a, decl.name.c_str(),
                    decl.size));
    }
    if (static_cast<int>(decl.init.size()) != decl.size) {
      return Error::InvalidArgument(StrFormat(
          "array %d (%s): init has %zu values for size %d", a,
          decl.name.c_str(), decl.init.size(), decl.size));
    }
  }

  // Which statement (global order) owns each non-input array.
  std::vector<int> writer(arrays.size(), -1);
  int global_stmt = 0;

  for (int b = 0; b < static_cast<int>(bands.size()); ++b) {
    const Band& band = bands[static_cast<size_t>(b)];
    if (band.loops.empty()) {
      return Error::InvalidArgument(StrFormat("band %d has no loops", b));
    }
    if (band.unroll < 1) {
      return Error::InvalidArgument(
          StrFormat("band %d: unroll factor %d < 1", b, band.unroll));
    }
    std::vector<int> seen_ids;
    for (const Loop& l : band.loops) {
      if (l.trip <= 0) {
        return Error::InvalidArgument(StrFormat(
            "band %d loop %d is zero-trip (trip %lld)", b, l.id,
            static_cast<long long>(l.trip)));
      }
      if (l.id < 0) {
        return Error::InvalidArgument(StrFormat("band %d: negative loop id", b));
      }
      if (std::find(seen_ids.begin(), seen_ids.end(), l.id) != seen_ids.end()) {
        return Error::InvalidArgument(
            StrFormat("band %d: duplicate loop id %d", b, l.id));
      }
      seen_ids.push_back(l.id);
    }
    if (band.DomainSize() > kMaxDomainSize) {
      return Error::InvalidArgument(StrFormat(
          "band %d domain exceeds %lld points", b,
          static_cast<long long>(kMaxDomainSize)));
    }
    if (static_cast<int>(band.recover.size()) > num_vars) {
      return Error::InvalidArgument(
          StrFormat("band %d: recover map references unknown variables", b));
    }

    // Loop-id -> trip, and the one-loop-one-variable invariant.
    std::vector<std::int64_t> loop_trip;
    for (const Loop& l : band.loops) {
      if (l.id >= static_cast<int>(loop_trip.size())) {
        loop_trip.resize(static_cast<size_t>(l.id) + 1, 0);
      }
      loop_trip[static_cast<size_t>(l.id)] = l.trip;
    }
    std::vector<int> feeder(loop_trip.size(), -1);
    const std::vector<int> band_vars = band.Vars();
    for (const int v : band_vars) {
      const Affine& r = band.recover[static_cast<size_t>(v)];
      if (r.c0 != 0) {
        return Error::InvalidArgument(StrFormat(
            "band %d: recover[%d] has nonzero constant", b, v));
      }
      for (const int id : r.Support()) {
        if (id >= static_cast<int>(loop_trip.size()) ||
            loop_trip[static_cast<size_t>(id)] == 0) {
          return Error::InvalidArgument(StrFormat(
              "band %d: recover[%d] references loop id %d not in the band",
              b, v, id));
        }
        if (feeder[static_cast<size_t>(id)] != -1) {
          return Error::InvalidArgument(StrFormat(
              "band %d: loop id %d feeds variables %d and %d", b, id,
              feeder[static_cast<size_t>(id)], v));
        }
        feeder[static_cast<size_t>(id)] = v;
      }
      // Recovery must cover the variable's original range exactly.
      const Range range =
          AffineRange(band.recover[static_cast<size_t>(v)], loop_trip);
      if (range.lo != 0 ||
          range.hi != var_extent[static_cast<size_t>(v)] - 1) {
        return Error::InvalidArgument(StrFormat(
            "band %d: recover[%d] spans [%lld, %lld], extent is %lld", b, v,
            static_cast<long long>(range.lo),
            static_cast<long long>(range.hi),
            static_cast<long long>(var_extent[static_cast<size_t>(v)])));
      }
    }
    for (const Loop& l : band.loops) {
      if (feeder[static_cast<size_t>(l.id)] == -1) {
        return Error::InvalidArgument(
            StrFormat("band %d: loop id %d feeds no variable", b, l.id));
      }
    }

    // Arrays written earlier in THIS band, with their store address,
    // for the exact-match forwarding rule.
    std::vector<std::pair<int, const Statement*>> band_writes;

    if (band.stmts.empty()) {
      return Error::InvalidArgument(StrFormat("band %d has no statements", b));
    }
    for (int s = 0; s < static_cast<int>(band.stmts.size()); ++s) {
      const Statement& stmt = band.stmts[static_cast<size_t>(s)];

      // --- expression pool ---------------------------------------------
      if (stmt.nodes.empty() || stmt.root < 0 ||
          stmt.root >= static_cast<int>(stmt.nodes.size())) {
        return StmtError(b, s, "empty expression pool or bad root");
      }
      for (int n = 0; n < static_cast<int>(stmt.nodes.size()); ++n) {
        const ExprNode& node = stmt.nodes[static_cast<size_t>(n)];
        auto check_child = [&](int c) {
          return c >= 0 && c < n;  // children strictly earlier: acyclic
        };
        switch (node.kind) {
          case ExprKind::kConst:
            break;
          case ExprKind::kIndex:
            if (node.var < 0 || node.var >= num_vars ||
                std::find(band_vars.begin(), band_vars.end(), node.var) ==
                    band_vars.end()) {
              return StmtError(
                  b, s, StrFormat("node %d indexes foreign variable %d", n,
                                  node.var));
            }
            break;
          case ExprKind::kLoad: {
            if (node.array < 0 ||
                node.array >= static_cast<int>(arrays.size())) {
              return StmtError(
                  b, s, StrFormat("node %d loads unknown array %d", n,
                                  node.array));
            }
            for (const int v : node.addr.Support()) {
              if (std::find(band_vars.begin(), band_vars.end(), v) ==
                  band_vars.end()) {
                return StmtError(
                    b, s,
                    StrFormat("node %d address uses foreign variable %d", n,
                              v));
              }
            }
            const Range range = AffineRange(node.addr, var_extent);
            const ArrayDecl& decl = arrays[static_cast<size_t>(node.array)];
            if (range.lo < 0 || range.hi >= decl.size) {
              return StmtError(
                  b, s,
                  StrFormat("node %d address range [%lld, %lld] escapes "
                            "array %s[%d]",
                            n, static_cast<long long>(range.lo),
                            static_cast<long long>(range.hi),
                            decl.name.c_str(), decl.size));
            }
            // Load legality: input array, an earlier band's output, or
            // an exact-address forward from earlier in this band.
            if (!decl.is_input) {
              const int w = writer[static_cast<size_t>(node.array)];
              if (w == -1) {
                return StmtError(
                    b, s,
                    StrFormat("node %d reads array %s before any write", n,
                              decl.name.c_str()));
              }
              const Statement* producer = nullptr;
              for (const auto& [arr, ps] : band_writes) {
                if (arr == node.array) producer = ps;
              }
              if (producer != nullptr) {
                if (producer->is_reduction) {
                  return StmtError(b, s,
                                   StrFormat("node %d reads mid-reduction "
                                             "array %s within the band",
                                             n, decl.name.c_str()));
                }
                if (!(node.addr == producer->store_addr)) {
                  return StmtError(
                      b, s,
                      StrFormat("node %d reads array %s at a different "
                                "address than this band writes it "
                                "(forwarding needs an exact match)",
                                n, decl.name.c_str()));
                }
              }
            }
            break;
          }
          case ExprKind::kUnary:
            if (OpArity(node.op) != 1) {
              return StmtError(b, s,
                               StrFormat("node %d: %s is not unary", n,
                                         std::string(OpName(node.op)).c_str()));
            }
            if (!check_child(node.a)) {
              return StmtError(b, s, StrFormat("node %d: bad child", n));
            }
            break;
          case ExprKind::kBinary:
            if (OpArity(node.op) != 2) {
              return StmtError(b, s,
                               StrFormat("node %d: %s is not binary", n,
                                         std::string(OpName(node.op)).c_str()));
            }
            if (!check_child(node.a) || !check_child(node.b)) {
              return StmtError(b, s, StrFormat("node %d: bad child", n));
            }
            break;
        }
      }

      // --- store -------------------------------------------------------
      if (stmt.store_array < 0 ||
          stmt.store_array >= static_cast<int>(arrays.size())) {
        return StmtError(b, s, "stores to unknown array");
      }
      const ArrayDecl& out = arrays[static_cast<size_t>(stmt.store_array)];
      if (out.is_input) {
        return StmtError(b, s,
                         StrFormat("stores to input array %s", out.name.c_str()));
      }
      if (writer[static_cast<size_t>(stmt.store_array)] != -1) {
        return StmtError(
            b, s,
            StrFormat("array %s already written by statement %d (one "
                      "writer per array)",
                      out.name.c_str(),
                      writer[static_cast<size_t>(stmt.store_array)]));
      }
      for (const int v : stmt.store_addr.Support()) {
        if (std::find(band_vars.begin(), band_vars.end(), v) ==
            band_vars.end()) {
          return StmtError(
              b, s, StrFormat("store address uses foreign variable %d", v));
        }
      }
      {
        const Range range = AffineRange(stmt.store_addr, var_extent);
        if (range.lo < 0 || range.hi >= out.size) {
          return StmtError(
              b, s,
              StrFormat("store address range [%lld, %lld] escapes %s[%d]",
                        static_cast<long long>(range.lo),
                        static_cast<long long>(range.hi), out.name.c_str(),
                        out.size));
        }
      }
      // Injectivity over the address support (sufficient condition:
      // positive coefficients, each dominating the reach of all
      // smaller ones — row-major linearisations satisfy this).
      {
        std::vector<std::pair<std::int64_t, int>> by_mag;
        for (const int v : stmt.store_addr.Support()) {
          // Extent-1 variables are constant 0: no effect on the
          // address, so they are exempt from the chain.
          if (var_extent[static_cast<size_t>(v)] <= 1) continue;
          const std::int64_t c = stmt.store_addr.Coeff(v);
          if (c <= 0) {
            return StmtError(
                b, s,
                StrFormat("store address coefficient for variable %d is "
                          "not positive",
                          v));
          }
          by_mag.emplace_back(c, v);
        }
        std::sort(by_mag.begin(), by_mag.end());
        std::int64_t reach = 0;  // max value of the smaller terms
        for (const auto& [c, v] : by_mag) {
          if (c < reach + 1) {
            return StmtError(
                b, s,
                "store address is not injective over its variables");
          }
          reach += c * (var_extent[static_cast<size_t>(v)] - 1);
        }
      }

      if (!stmt.is_reduction) {
        // Every band variable must appear in the address: a variable
        // the address ignores would make the final value "last writer
        // wins", which legal interchanges reorder.
        for (const int v : band_vars) {
          if (var_extent[static_cast<size_t>(v)] > 1 &&
              stmt.store_addr.Coeff(v) == 0) {
            return StmtError(
                b, s,
                StrFormat("non-reduction store ignores variable %d "
                          "(iteration order would pick the surviving "
                          "write; make it a reduction instead)",
                          v));
          }
        }
      }

      if (stmt.is_reduction) {
        if (!IsReductionOpcode(stmt.reduction_op)) {
          return StmtError(
              b, s,
              StrFormat("%s is not a commutative-associative reduction "
                        "operator",
                        std::string(OpName(stmt.reduction_op)).c_str()));
        }
        // S-before-R: every loop feeding an address variable must be
        // scheduled outside every loop feeding a reduction variable,
        // so lowering's carried accumulator sees each address group as
        // one contiguous run.
        const std::vector<int> support = stmt.store_addr.Support();
        auto in_support = [&](int v) {
          return std::find(support.begin(), support.end(), v) != support.end();
        };
        int last_s_pos = -1;
        int first_r_pos = static_cast<int>(band.loops.size());
        for (int pos = 0; pos < static_cast<int>(band.loops.size()); ++pos) {
          // Trip-1 loops cannot break group contiguity.
          if (band.loops[static_cast<size_t>(pos)].trip == 1) continue;
          const int v = feeder[static_cast<size_t>(band.loops[static_cast<size_t>(pos)].id)];
          if (in_support(v)) {
            last_s_pos = std::max(last_s_pos, pos);
          } else {
            first_r_pos = std::min(first_r_pos, pos);
          }
        }
        if (last_s_pos > first_r_pos) {
          return StmtError(
              b, s,
              "reduction loops are scheduled outside address loops (the "
              "S-before-R prefix condition; interchange refuses this "
              "order)");
        }
      }

      writer[static_cast<size_t>(stmt.store_array)] = global_stmt;
      band_writes.emplace_back(stmt.store_array, &stmt);
      ++global_stmt;
    }
  }
  return Status::Ok();
}

namespace {
void AppendAffine(ByteWriter& w, const Affine& a) {
  w.I64(a.c0);
  const std::vector<int> support = a.Support();
  w.U32(static_cast<std::uint32_t>(support.size()));
  for (const int i : support) {
    w.I32(i);
    w.I64(a.Coeff(i));
  }
}
}  // namespace

void NestProgram::AppendCanonicalBytes(ByteWriter& w) const {
  w.U32(1);  // layout version
  w.I32(num_vars);
  for (const std::int64_t e : var_extent) w.I64(e);
  w.U32(static_cast<std::uint32_t>(arrays.size()));
  for (const ArrayDecl& a : arrays) {
    w.I32(a.size);
    w.Bool(a.is_input);
    for (const std::int64_t v : a.init) w.I64(v);
  }
  w.U32(static_cast<std::uint32_t>(bands.size()));
  for (const Band& band : bands) {
    w.I32(band.unroll);
    w.U32(static_cast<std::uint32_t>(band.loops.size()));
    for (const Loop& l : band.loops) {
      w.I32(l.id);
      w.I64(l.trip);
    }
    w.U32(static_cast<std::uint32_t>(band.recover.size()));
    for (const Affine& r : band.recover) AppendAffine(w, r);
    w.U32(static_cast<std::uint32_t>(band.stmts.size()));
    for (const Statement& s : band.stmts) {
      w.I32(s.store_array);
      AppendAffine(w, s.store_addr);
      w.Bool(s.is_reduction);
      w.U8(static_cast<std::uint8_t>(s.reduction_op));
      w.I64(s.reduction_init);
      w.I32(s.root);
      w.U32(static_cast<std::uint32_t>(s.nodes.size()));
      for (const ExprNode& n : s.nodes) {
        w.U8(static_cast<std::uint8_t>(n.kind));
        w.U8(static_cast<std::uint8_t>(n.op));
        w.I64(n.imm);
        w.I32(n.var);
        w.I32(n.array);
        AppendAffine(w, n.addr);
        w.I32(n.a);
        w.I32(n.b);
      }
    }
  }
}

std::string NestProgram::Digest() const {
  ByteWriter w;
  AppendCanonicalBytes(w);
  return Hex16(Fnv1a64(w.bytes()));
}

namespace {

std::string AffineToString(const Affine& a, const std::string& prefix) {
  std::string out;
  for (const int i : a.Support()) {
    if (!out.empty()) out += " + ";
    const std::int64_t c = a.Coeff(i);
    if (c == 1) {
      out += StrFormat("%s%d", prefix.c_str(), i);
    } else {
      out += StrFormat("%lld*%s%d", static_cast<long long>(c),
                       prefix.c_str(), i);
    }
  }
  if (a.c0 != 0 || out.empty()) {
    if (!out.empty()) out += " + ";
    out += StrFormat("%lld", static_cast<long long>(a.c0));
  }
  return out;
}

std::string ExprToString(const Statement& s, int n) {
  const ExprNode& node = s.nodes[static_cast<size_t>(n)];
  switch (node.kind) {
    case ExprKind::kConst:
      return StrFormat("%lld", static_cast<long long>(node.imm));
    case ExprKind::kIndex:
      return StrFormat("v%d", node.var);
    case ExprKind::kLoad:
      return StrFormat("A%d[%s]", node.array,
                       AffineToString(node.addr, "v").c_str());
    case ExprKind::kUnary:
      return StrFormat("%s(%s)", std::string(OpName(node.op)).c_str(),
                       ExprToString(s, node.a).c_str());
    case ExprKind::kBinary:
      return StrFormat("%s(%s, %s)", std::string(OpName(node.op)).c_str(),
                       ExprToString(s, node.a).c_str(),
                       ExprToString(s, node.b).c_str());
  }
  return "?";
}

}  // namespace

std::string NestProgram::ToString() const {
  std::string out;
  for (int a = 0; a < static_cast<int>(arrays.size()); ++a) {
    const ArrayDecl& decl = arrays[static_cast<size_t>(a)];
    out += StrFormat("array A%d \"%s\"[%d]%s\n", a, decl.name.c_str(),
                     decl.size, decl.is_input ? " input" : "");
  }
  for (int b = 0; b < static_cast<int>(bands.size()); ++b) {
    const Band& band = bands[static_cast<size_t>(b)];
    std::string indent;
    out += StrFormat("band %d%s:\n", b,
                     band.unroll > 1
                         ? StrFormat(" (unroll x%d)", band.unroll).c_str()
                         : "");
    for (const Loop& l : band.loops) {
      indent += "  ";
      out += StrFormat("%sfor l%d in 0..%lld:\n", indent.c_str(), l.id,
                       static_cast<long long>(l.trip));
    }
    indent += "  ";
    for (const int v : band.Vars()) {
      out += StrFormat("%sv%d = %s\n", indent.c_str(), v,
                       AffineToString(band.recover[static_cast<size_t>(v)], "l")
                           .c_str());
    }
    for (const Statement& s : band.stmts) {
      if (s.is_reduction) {
        out += StrFormat(
            "%sA%d[%s] %s= %s  (init %lld)\n", indent.c_str(), s.store_array,
            AffineToString(s.store_addr, "v").c_str(),
            std::string(OpName(s.reduction_op)).c_str(),
            ExprToString(s, s.root).c_str(),
            static_cast<long long>(s.reduction_init));
      } else {
        out += StrFormat("%sA%d[%s] = %s\n", indent.c_str(), s.store_array,
                         AffineToString(s.store_addr, "v").c_str(),
                         ExprToString(s, s.root).c_str());
      }
    }
  }
  return out;
}

Result<NestEvalResult> EvaluateProgram(const NestProgram& program) {
  if (Status s = program.Verify(); !s.ok()) return s.error();

  NestEvalResult result;
  result.arrays.reserve(program.arrays.size());
  for (const ArrayDecl& a : program.arrays) result.arrays.push_back(a.init);

  std::vector<std::int64_t> var_value(
      static_cast<size_t>(program.num_vars), 0);

  auto eval_affine = [&](const Affine& a) {
    std::int64_t acc = a.c0;
    for (const int v : a.Support()) {
      acc = WrapAdd(acc, WrapMul(a.Coeff(v), var_value[static_cast<size_t>(v)]));
    }
    return acc;
  };

  for (const Band& band : program.bands) {
    const std::vector<int> band_vars = band.Vars();
    const int n = static_cast<int>(band.loops.size());
    std::vector<std::int64_t> counters(static_cast<size_t>(n), 0);

    // Per-statement scratch for expression values.
    std::vector<std::int64_t> scratch;

    bool done = false;
    while (!done) {
      // Recover original variable values from the counters.
      for (const int v : band_vars) {
        const Affine& r = band.recover[static_cast<size_t>(v)];
        std::int64_t val = 0;
        for (int pos = 0; pos < n; ++pos) {
          const std::int64_t c = r.Coeff(band.loops[static_cast<size_t>(pos)].id);
          if (c != 0) {
            val = WrapAdd(val, WrapMul(c, counters[static_cast<size_t>(pos)]));
          }
        }
        var_value[static_cast<size_t>(v)] = val;
      }

      for (const Statement& stmt : band.stmts) {
        scratch.assign(stmt.nodes.size(), 0);
        for (int i = 0; i < static_cast<int>(stmt.nodes.size()); ++i) {
          const ExprNode& node = stmt.nodes[static_cast<size_t>(i)];
          std::int64_t v = 0;
          switch (node.kind) {
            case ExprKind::kConst:
              v = node.imm;
              break;
            case ExprKind::kIndex:
              v = var_value[static_cast<size_t>(node.var)];
              break;
            case ExprKind::kLoad: {
              const std::int64_t addr = eval_affine(node.addr);
              const auto& arr = result.arrays[static_cast<size_t>(node.array)];
              if (addr < 0 || addr >= static_cast<std::int64_t>(arr.size())) {
                return Error::Internal(StrFormat(
                    "evaluator load out of range: A%d[%lld]", node.array,
                    static_cast<long long>(addr)));
              }
              v = arr[static_cast<size_t>(addr)];
              break;
            }
            case ExprKind::kUnary:
              v = EvalAlu(node.op, scratch[static_cast<size_t>(node.a)], 0, 0);
              break;
            case ExprKind::kBinary:
              v = EvalAlu(node.op, scratch[static_cast<size_t>(node.a)],
                          scratch[static_cast<size_t>(node.b)], 0);
              break;
          }
          scratch[static_cast<size_t>(i)] = v;
        }
        const std::int64_t rhs = scratch[static_cast<size_t>(stmt.root)];
        const std::int64_t addr = eval_affine(stmt.store_addr);
        auto& arr = result.arrays[static_cast<size_t>(stmt.store_array)];
        if (addr < 0 || addr >= static_cast<std::int64_t>(arr.size())) {
          return Error::Internal(StrFormat(
              "evaluator store out of range: A%d[%lld]", stmt.store_array,
              static_cast<long long>(addr)));
        }
        if (stmt.is_reduction) {
          // First visit of this address group <=> every reduction
          // variable (those absent from the address) reads 0.
          bool group_start = true;
          const std::vector<int> support = stmt.store_addr.Support();
          for (const int v : band_vars) {
            if (std::find(support.begin(), support.end(), v) !=
                support.end()) {
              continue;
            }
            if (var_value[static_cast<size_t>(v)] != 0) {
              group_start = false;
              break;
            }
          }
          const std::int64_t base =
              group_start ? stmt.reduction_init : arr[static_cast<size_t>(addr)];
          arr[static_cast<size_t>(addr)] = EvalAlu(stmt.reduction_op, base, rhs, 0);
        } else {
          arr[static_cast<size_t>(addr)] = rhs;
        }
      }

      // Row-major advance over the current loop order.
      done = true;
      for (int pos = n - 1; pos >= 0; --pos) {
        if (++counters[static_cast<size_t>(pos)] <
            band.loops[static_cast<size_t>(pos)].trip) {
          done = false;
          break;
        }
        counters[static_cast<size_t>(pos)] = 0;
      }
    }
    result.after_band.push_back(result.arrays);
  }
  return result;
}

}  // namespace cgra::frontend
