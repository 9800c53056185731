// CGRA architecture model (§II-A, Fig. 2).
//
// A CGRA here is a 2-D array of cells. Each cell couples a functional
// unit (FU), a small register file (the Fig. 2(b) "internal
// architecture"), and a routing channel, and is linked to neighbours
// by the interconnect topology. Heterogeneity follows the survey: some
// cells are plain ALUs, some carry multipliers, some are memory cells
// attached to a bank, some sit on the array boundary and do stream I/O.
//
// "The back-end must know the target architecture" (§II-B, CGRA
// models): every mapper takes an Architecture as input — nothing about
// a concrete topology is hard-coded in any mapper.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ir/dfg.hpp"
#include "support/status.hpp"

namespace cgra {

class FaultModel;  // arch/fault.hpp
class ByteWriter;  // support/bytes.hpp
class Mrrg;        // arch/mrrg.hpp

/// Interconnect shapes (point-to-point neighbourhoods).
enum class Topology {
  kMesh,      ///< 4-neighbour N/E/S/W
  kMeshPlus,  ///< mesh + diagonals (8-neighbour)
  kTorus,     ///< mesh with wrap-around links
  kHop2,      ///< mesh + 2-hop express links in rows/columns
};

/// Register-file organisation (§III-C register allocation).
enum class RfKind {
  kNone,      ///< only the output register (one live value per cell)
  kLocal,     ///< per-cell RF with `rf_size` entries
  kRotating,  ///< per-cell rotating RF (modulo-renamed, DRESC-style)
  kShared,    ///< one unified RF reachable from every cell (URECA-style)
};

/// Whether the fabric time-shares its cells (§II-B spatial vs temporal).
enum class ExecutionStyle {
  kSpatial,   ///< one context; each cell performs a single fixed op
  kTemporal,  ///< `context_depth` contexts cycle with the II counter
};

struct ArchParams {
  int rows = 4;
  int cols = 4;
  Topology topology = Topology::kMesh;
  ExecutionStyle style = ExecutionStyle::kTemporal;
  RfKind rf_kind = RfKind::kLocal;
  int rf_size = 4;           ///< registers per cell (>=1)
  int route_channels = 1;    ///< simultaneous pass-through transfers per cell
  int context_depth = 32;    ///< max II / schedule slots the config memory holds
  int num_banks = 2;         ///< data memory banks
  int bank_ports = 1;        ///< accesses per bank per cycle
  bool mul_everywhere = true;///< false: only even columns have multipliers
  bool mem_on_left_col = true;///< memory cells in column 0 (else all cells)
  bool io_on_border = true;  ///< I/O cells on the border (else all cells)
  bool has_hw_loop = true;   ///< hardware loop counter broadcast (kIterIdx)
  std::string name = "cgra";
};

/// Per-cell capabilities derived from the params.
struct CellCaps {
  bool alu = true;
  bool mul = true;
  bool mem = false;
  int bank = -1;   ///< memory bank this cell's LSU reaches
  bool io = false;
};

class Architecture {
 public:
  explicit Architecture(ArchParams params);

  const ArchParams& params() const { return params_; }
  int num_cells() const { return params_.rows * params_.cols; }
  int rows() const { return params_.rows; }
  int cols() const { return params_.cols; }

  int CellAt(int row, int col) const { return row * params_.cols + col; }
  int RowOf(int cell) const { return cell / params_.cols; }
  int ColOf(int cell) const { return cell % params_.cols; }

  const CellCaps& caps(int cell) const { return caps_[static_cast<size_t>(cell)]; }

  /// Cells whose held values cell `c`'s FU can read this cycle
  /// (includes `c` itself).
  const std::vector<int>& ReadableFrom(int c) const {
    return readable_[static_cast<size_t>(c)];
  }
  /// Cells to which `c` can push a value through the interconnect
  /// (excludes `c`).
  const std::vector<int>& LinksOut(int c) const {
    return links_out_[static_cast<size_t>(c)];
  }

  /// True if `c`'s FU may execute this operation. Constants and — when
  /// the fabric has a hardware loop unit — kIterIdx are folded into
  /// configuration immediates and never occupy a cell; this returns
  /// false for them.
  bool CanExecute(int c, const Op& op) const;

  /// True for opcodes that fold into configuration fields instead of
  /// occupying a cell (kConst always; kIterIdx when has_hw_loop).
  bool IsFolded(Opcode op) const;

  /// Manhattan-style hop distance between cells under this topology
  /// (shortest link path; precomputed).
  int HopDistance(int a, int b) const {
    return hop_dist_[static_cast<size_t>(a) * static_cast<size_t>(num_cells()) +
                     static_cast<size_t>(b)];
  }

  /// Maximum II the configuration memory supports (1 for spatial).
  int MaxIi() const {
    return params_.style == ExecutionStyle::kSpatial ? 1 : params_.context_depth;
  }

  /// Effective register slots per cell for routing-through-time (the
  /// healthy, structural value; see HoldCapacityAt for the derated
  /// per-cell capacity of a faulted fabric).
  int HoldCapacity() const {
    return params_.rf_kind == RfKind::kNone ? 1 : params_.rf_size;
  }

  // ---- fault awareness ----------------------------------------------------
  // A healthy Architecture answers CellAlive == true everywhere and
  // HoldCapacityAt == HoldCapacity(); WithFaults() returns a derated
  // copy whose capability tables, link lists, operand-reachability
  // lists, hop distances, and per-cell capacities all exclude the
  // faulted resources — so every mapper consuming this interface
  // avoids them transparently. The derated Architecture is
  // self-consistent end to end: map, validate, compile, and simulate
  // all against the SAME (faulted) instance.

  /// Derates this fabric with `faults`, merged with any faults already
  /// applied (how a repair loop accumulates discoveries). Faults
  /// naming resources the fabric does not have are an error — validate
  /// with FaultModel::Validate first when the model is untrusted.
  Architecture WithFaults(const FaultModel& faults) const;

  /// The applied fault model; nullptr when healthy.
  const FaultModel* faults() const { return faults_.get(); }
  bool HasFaults() const { return faults_ != nullptr; }

  /// False when the whole cell (FU + RF + routing channel) is dead.
  bool CellAlive(int cell) const {
    return cell_alive_.empty() || cell_alive_[static_cast<size_t>(cell)] != 0;
  }

  /// Usable register slots of `cell`'s file: 0 for dead cells, reduced
  /// by dead entries in static files, 0 for a rotating file with any
  /// dead entry (values rotate through every physical register).
  int HoldCapacityAt(int cell) const {
    return hold_capacity_.empty() ? HoldCapacity()
                                  : hold_capacity_[static_cast<size_t>(cell)];
  }

  /// Usable routing channels of `cell` (0 when the cell is dead).
  int RouteChannelsAt(int cell) const {
    return CellAlive(cell) ? params_.route_channels : 0;
  }

  /// True when physical register `reg` of `cell`'s file is stuck.
  bool RfEntryFaulted(int cell, int reg) const {
    return !rf_fault_mask_.empty() && reg < 64 &&
           (rf_fault_mask_[static_cast<size_t>(cell)] >> reg) & 1u;
  }

  /// True when configuration word `slot` of `cell` is corrupt: the
  /// cell's FU and routing channel cannot be configured in any cycle
  /// with t mod II == slot.
  bool ContextSlotFaulted(int cell, int slot) const {
    return !slot_fault_mask_.empty() && slot < 64 &&
           (slot_fault_mask_[static_cast<size_t>(cell)] >> slot) & 1u;
  }

  /// Canonical byte encoding of everything that shapes a mapping:
  /// every ArchParams field (in declaration order, fixed widths) plus
  /// the applied FaultModel. Two Architectures built from equal params
  /// and equal faults encode identically regardless of construction
  /// history; any parameter or fault mutation changes the bytes. The
  /// layout carries its own version tag — bump it when a field is
  /// added so stale cache entries miss instead of aliasing.
  void AppendCanonicalBytes(ByteWriter& w) const;

  /// Stable 16-hex-digit digest of the canonical encoding; the fabric
  /// component of the mapping-cache key (src/cache).
  std::string Digest() const;

  /// This fabric's MRRG (arch/mrrg.hpp), built on first use and kept
  /// for the object's life; concurrent first calls build it once, and
  /// &mrrg().arch() == this. A copy, a moved-to object and a
  /// WithFaults() result start without one and build their own, so a
  /// graph never serves another fabric object. Assigning to the
  /// Architecture frees its graph, as it would any member.
  const Mrrg& mrrg() const;

  /// Fig. 2(a)-style ASCII rendering of the array with capability tags.
  std::string ToAscii() const;

  Status Validate() const;

  // ---- presets ------------------------------------------------------------
  static Architecture Small2x2();      ///< exact-method playground
  static Architecture Adres4x4();      ///< classic homogeneous 4x4 mesh
  static Architecture Hetero4x4();     ///< 4x4, muls on even cols, mem col 0
  static Architecture Spatial4x4();    ///< single-context spatial fabric
  static Architecture Torus4x4();      ///< wrap-around links
  static Architecture Big8x8();        ///< scalability ladder
  static Architecture Mega16x16();     ///< "modern AI-wave" standalone array
  static Architecture VliwLike4();     ///< 1x4 row, shared RF only (VLIW foil)

 private:
  // The lazily built graph behind mrrg(): published through an atomic
  // pointer, built under the mutex. Copying or assigning a slot yields
  // an empty one (assignment frees the old graph).
  class MrrgSlot {
   public:
    MrrgSlot() = default;
    MrrgSlot(const MrrgSlot&) noexcept {}
    MrrgSlot& operator=(const MrrgSlot& other) noexcept;
    ~MrrgSlot();

    const Mrrg& Get(const Architecture& arch);

   private:
    std::atomic<const Mrrg*> built_{nullptr};
    std::mutex mu_;
  };

  void RecomputeHopDistances();
  void ApplyFaults();

  ArchParams params_;
  std::vector<CellCaps> caps_;
  std::vector<std::vector<int>> readable_;
  std::vector<std::vector<int>> links_out_;
  std::vector<int> hop_dist_;

  // Fault-derived state; all empty / null on a healthy fabric.
  std::shared_ptr<const FaultModel> faults_;
  std::vector<char> cell_alive_;
  std::vector<int> hold_capacity_;
  std::vector<std::uint64_t> rf_fault_mask_;
  std::vector<std::uint64_t> slot_fault_mask_;

  mutable MrrgSlot mrrg_;
};

}  // namespace cgra
