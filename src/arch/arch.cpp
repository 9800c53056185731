#include <cstddef>
#include "arch/arch.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "arch/fault.hpp"
#include "support/bytes.hpp"
#include "support/str.hpp"

namespace cgra {

Architecture::Architecture(ArchParams params) : params_(std::move(params)) {
  const int n = num_cells();
  caps_.resize(static_cast<size_t>(n));
  readable_.resize(static_cast<size_t>(n));
  links_out_.resize(static_cast<size_t>(n));

  for (int c = 0; c < n; ++c) {
    CellCaps& caps = caps_[static_cast<size_t>(c)];
    const int row = RowOf(c), col = ColOf(c);
    caps.alu = true;
    caps.mul = params_.mul_everywhere || (col % 2 == 0);
    const bool is_mem_cell = params_.mem_on_left_col ? (col == 0) : true;
    caps.mem = params_.num_banks > 0 && is_mem_cell;
    if (caps.mem) {
      // Memory cells round-robin over the banks by row.
      caps.bank = row % std::max(1, params_.num_banks);
    }
    const bool is_border = row == 0 || col == 0 || row == params_.rows - 1 ||
                           col == params_.cols - 1;
    caps.io = params_.io_on_border ? is_border : true;
  }

  // Interconnect links.
  auto link = [&](int from, int to) {
    if (from == to) return;
    auto& outs = links_out_[static_cast<size_t>(from)];
    if (std::find(outs.begin(), outs.end(), to) == outs.end()) outs.push_back(to);
  };
  for (int r = 0; r < params_.rows; ++r) {
    for (int c = 0; c < params_.cols; ++c) {
      const int cell = CellAt(r, c);
      auto try_link = [&](int rr, int cc) {
        if (rr < 0 || rr >= params_.rows || cc < 0 || cc >= params_.cols) return;
        link(cell, CellAt(rr, cc));
      };
      // Mesh base.
      try_link(r - 1, c);
      try_link(r + 1, c);
      try_link(r, c - 1);
      try_link(r, c + 1);
      switch (params_.topology) {
        case Topology::kMesh:
          break;
        case Topology::kMeshPlus:
          try_link(r - 1, c - 1);
          try_link(r - 1, c + 1);
          try_link(r + 1, c - 1);
          try_link(r + 1, c + 1);
          break;
        case Topology::kTorus:
          if (params_.rows > 2) {
            link(cell, CellAt((r + 1) % params_.rows, c));
            link(cell, CellAt((r + params_.rows - 1) % params_.rows, c));
          }
          if (params_.cols > 2) {
            link(cell, CellAt(r, (c + 1) % params_.cols));
            link(cell, CellAt(r, (c + params_.cols - 1) % params_.cols));
          }
          break;
        case Topology::kHop2:
          try_link(r - 2, c);
          try_link(r + 2, c);
          try_link(r, c - 2);
          try_link(r, c + 2);
          break;
      }
    }
  }

  // FU operand reachability: own RF plus every cell with a link to us.
  for (int c = 0; c < n; ++c) {
    readable_[static_cast<size_t>(c)].push_back(c);
  }
  for (int from = 0; from < n; ++from) {
    for (int to : links_out_[static_cast<size_t>(from)]) {
      readable_[static_cast<size_t>(to)].push_back(from);
    }
  }
  // kShared: every cell can read every cell's (unified) registers.
  if (params_.rf_kind == RfKind::kShared) {
    for (int c = 0; c < n; ++c) {
      auto& r = readable_[static_cast<size_t>(c)];
      r.clear();
      for (int o = 0; o < n; ++o) r.push_back(o);
    }
  }

  RecomputeHopDistances();
}

void Architecture::RecomputeHopDistances() {
  // Hop distances (BFS over links), one flat queue reused per source:
  // every cell enters a source's BFS at most once.
  const int n = num_cells();
  hop_dist_.assign(static_cast<size_t>(n) * static_cast<size_t>(n), -1);
  std::vector<int> queue(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    int* dist = hop_dist_.data() + static_cast<size_t>(s) * static_cast<size_t>(n);
    dist[s] = 0;
    queue[0] = s;
    size_t head = 0, tail = 1;
    while (head < tail) {
      const int v = queue[head++];
      for (int w : links_out_[static_cast<size_t>(v)]) {
        if (dist[w] < 0) {
          dist[w] = dist[v] + 1;
          queue[tail++] = w;
        }
      }
    }
  }
}

Architecture Architecture::WithFaults(const FaultModel& faults) const {
  auto merged = std::make_shared<FaultModel>(faults);
  if (faults_) merged->Merge(*faults_);

  // Derating only removes, and the merged model contains the faults
  // already applied, so pruning a copy of this fabric by the merged
  // model gives the same tables as pruning the healthy one. The hop
  // table is stale until ApplyFaults recomputes it: one BFS per call.
  Architecture derated(*this);
  derated.faults_ = std::move(merged);
  derated.ApplyFaults();
  return derated;
}

void Architecture::ApplyFaults() {
  const int n = num_cells();
  const FaultModel& fm = *faults_;

  cell_alive_.assign(static_cast<size_t>(n), 1);
  hold_capacity_.assign(static_cast<size_t>(n), HoldCapacity());
  rf_fault_mask_.assign(static_cast<size_t>(n), 0);
  slot_fault_mask_.assign(static_cast<size_t>(n), 0);

  for (int c : fm.dead_cells()) {
    cell_alive_[static_cast<size_t>(c)] = 0;
    hold_capacity_[static_cast<size_t>(c)] = 0;
    // A dead PE can't execute anything: kill the capability row so
    // CanExecute (and thus every mapper's candidate filter) excludes it.
    CellCaps& caps = caps_[static_cast<size_t>(c)];
    caps.alu = caps.mul = caps.mem = caps.io = false;
    caps.bank = -1;
  }

  for (const RfEntryFault& f : fm.dead_rf_entries()) {
    if (f.reg < 64) {
      rf_fault_mask_[static_cast<size_t>(f.cell)] |= std::uint64_t{1} << f.reg;
    }
  }
  for (const ContextSlotFault& f : fm.dead_context_slots()) {
    if (f.slot < 64) {
      slot_fault_mask_[static_cast<size_t>(f.cell)] |= std::uint64_t{1}
                                                       << f.slot;
    }
  }

  // Per-cell hold capacity. A static file just loses the dead colours;
  // a rotating file renames logical registers through every physical
  // entry, so one stuck entry poisons the whole cell's file.
  for (int c = 0; c < n; ++c) {
    if (!cell_alive_[static_cast<size_t>(c)]) continue;
    const std::uint64_t mask = rf_fault_mask_[static_cast<size_t>(c)];
    if (mask == 0) continue;
    if (params_.rf_kind == RfKind::kRotating) {
      hold_capacity_[static_cast<size_t>(c)] = 0;
    } else {
      hold_capacity_[static_cast<size_t>(c)] =
          HoldCapacity() - std::popcount(mask);
    }
  }

  // Prune the interconnect: cut dead links and every link touching a
  // dead cell, in both directions.
  auto link_gone = [&](int from, int to) {
    return !cell_alive_[static_cast<size_t>(from)] ||
           !cell_alive_[static_cast<size_t>(to)] || fm.LinkDead(from, to);
  };
  for (int from = 0; from < n; ++from) {
    auto& outs = links_out_[static_cast<size_t>(from)];
    std::erase_if(outs, [&](int to) { return link_gone(from, to); });
  }

  // Operand reachability follows the interconnect: a cut link also
  // severs the neighbour's mux input. Each live cell keeps its own
  // registers; a dead cell can read nothing.
  for (int c = 0; c < n; ++c) {
    auto& r = readable_[static_cast<size_t>(c)];
    if (!cell_alive_[static_cast<size_t>(c)]) {
      r.clear();
      continue;
    }
    std::erase_if(r, [&](int src) {
      if (src == c) return false;
      if (params_.rf_kind == RfKind::kShared) {
        // The unified RF is reachable from everywhere, but a dead
        // cell's values no longer exist to be read.
        return !cell_alive_[static_cast<size_t>(src)];
      }
      return link_gone(src, c);
    });
  }

  RecomputeHopDistances();
}

bool Architecture::IsFolded(Opcode op) const {
  if (op == Opcode::kConst) return true;
  if (op == Opcode::kIterIdx && params_.has_hw_loop) return true;
  return false;
}

bool Architecture::CanExecute(int c, const Op& op) const {
  if (IsFolded(op.opcode)) return false;
  const CellCaps& caps = this->caps(c);
  if (op.opcode == Opcode::kIterIdx) {
    return caps.alu;  // must be computed like an ALU op without HW loops
  }
  if (IsMemoryOp(op.opcode)) return caps.mem;
  if (IsIoOp(op.opcode)) return caps.io;
  if (op.opcode == Opcode::kMul || op.opcode == Opcode::kDiv) return caps.mul;
  return caps.alu;
}

void Architecture::AppendCanonicalBytes(ByteWriter& w) const {
  w.Str("ARCH");
  w.U32(1);  // encoding version: bump when a field is added/removed
  w.I32(params_.rows);
  w.I32(params_.cols);
  w.U8(static_cast<std::uint8_t>(params_.topology));
  w.U8(static_cast<std::uint8_t>(params_.style));
  w.U8(static_cast<std::uint8_t>(params_.rf_kind));
  w.I32(params_.rf_size);
  w.I32(params_.route_channels);
  w.I32(params_.context_depth);
  w.I32(params_.num_banks);
  w.I32(params_.bank_ports);
  w.Bool(params_.mul_everywhere);
  w.Bool(params_.mem_on_left_col);
  w.Bool(params_.io_on_border);
  w.Bool(params_.has_hw_loop);
  w.Str(params_.name);
  w.Bool(faults_ != nullptr);
  if (faults_) faults_->AppendCanonicalBytes(w);
}

std::string Architecture::Digest() const {
  ByteWriter w;
  AppendCanonicalBytes(w);
  return Hex16(Fnv1a64(w.bytes()));
}

std::string Architecture::ToAscii() const {
  std::string out = StrFormat("%s: %dx%d ", params_.name.c_str(), params_.rows,
                              params_.cols);
  switch (params_.topology) {
    case Topology::kMesh: out += "mesh"; break;
    case Topology::kMeshPlus: out += "mesh+diag"; break;
    case Topology::kTorus: out += "torus"; break;
    case Topology::kHop2: out += "mesh+2hop"; break;
  }
  out += params_.style == ExecutionStyle::kSpatial ? ", spatial" : ", temporal";
  out += StrFormat(", rf=%d, banks=%d\n", HoldCapacity(), params_.num_banks);
  for (int r = 0; r < params_.rows; ++r) {
    for (int c = 0; c < params_.cols; ++c) {
      const CellCaps& caps = this->caps(CellAt(r, c));
      std::string tag = "[";
      tag += caps.mul ? "A*" : "A ";
      tag += caps.mem ? StrFormat("M%d", caps.bank) : "  ";
      tag += caps.io ? "I" : " ";
      tag += "]";
      out += tag;
    }
    out += "\n";
  }
  return out;
}

Status Architecture::Validate() const {
  if (params_.rows < 1 || params_.cols < 1) {
    return Error::InvalidArgument("array must be at least 1x1");
  }
  if (params_.rf_size < 1) return Error::InvalidArgument("rf_size must be >= 1");
  if (params_.route_channels < 0) {
    return Error::InvalidArgument("route_channels must be >= 0");
  }
  if (params_.context_depth < 1) {
    return Error::InvalidArgument("context_depth must be >= 1");
  }
  if (params_.style == ExecutionStyle::kSpatial && params_.context_depth != 1) {
    return Error::InvalidArgument("spatial fabrics hold exactly one context");
  }
  return Status::Ok();
}

Architecture Architecture::Small2x2() {
  ArchParams p;
  p.rows = p.cols = 2;
  p.name = "small2x2";
  p.num_banks = 1;
  p.mem_on_left_col = true;
  return Architecture(p);
}

Architecture Architecture::Adres4x4() {
  ArchParams p;
  p.rows = p.cols = 4;
  p.name = "adres4x4";
  return Architecture(p);
}

Architecture Architecture::Hetero4x4() {
  ArchParams p;
  p.rows = p.cols = 4;
  p.mul_everywhere = false;
  p.mem_on_left_col = true;
  p.num_banks = 2;
  p.name = "hetero4x4";
  return Architecture(p);
}

Architecture Architecture::Spatial4x4() {
  ArchParams p;
  p.rows = p.cols = 4;
  p.style = ExecutionStyle::kSpatial;
  p.context_depth = 1;
  p.name = "spatial4x4";
  return Architecture(p);
}

Architecture Architecture::Torus4x4() {
  ArchParams p;
  p.rows = p.cols = 4;
  p.topology = Topology::kTorus;
  p.name = "torus4x4";
  return Architecture(p);
}

Architecture Architecture::Big8x8() {
  ArchParams p;
  p.rows = p.cols = 8;
  p.num_banks = 4;
  p.name = "big8x8";
  return Architecture(p);
}

Architecture Architecture::Mega16x16() {
  ArchParams p;
  p.rows = p.cols = 16;
  p.num_banks = 8;
  p.topology = Topology::kHop2;
  p.name = "mega16x16";
  return Architecture(p);
}

Architecture Architecture::VliwLike4() {
  // The survey contrasts CGRAs with VLIW: "VLIW processors share data
  // through a register file only". This foil has no direct links; all
  // communication goes through one shared RF.
  ArchParams p;
  p.rows = 1;
  p.cols = 4;
  p.rf_kind = RfKind::kShared;
  p.rf_size = 16;
  p.route_channels = 0;
  p.io_on_border = true;
  p.mem_on_left_col = true;
  p.name = "vliw4";
  return Architecture(p);
}

}  // namespace cgra
