// Modulo Routing Resource Graph (MRRG).
//
// The temporal coordinate system of the mapping problem — "the time
// extended CGRA (TEC), or the time-space graph" (§II-C). Resources are
// replicated conceptually per cycle modulo II; this class holds the
// *static* resource graph (nodes, capacities, latency-annotated
// links); the router and validator pair each node with a time slot,
// and the ResourceTracker materialises the time axis as per-slot
// occupancy bitsets.
//
// Resource kinds per cell:
//   kFu   — executes one operation per slot (capacity 1);
//   kHold — the cell's register file; a value parked here at slot t is
//           readable by the cell's own FU and by linked neighbours'
//           FUs (capacity = Architecture::HoldCapacity());
//   kRt   — the pass-through routing channel: copies a neighbour's
//           held value into this cell's RF without using the FU
//           (capacity = route_channels).
//
// Latencies: FU -> own HOLD is 1 cycle (results are latched); HOLD ->
// HOLD self-link is 1 cycle (the value stays another cycle); HOLD ->
// neighbour RT is 0 (combinational link) and RT -> own HOLD is 1
// (latched), so each routed hop costs one cycle. A consumer FU reads a
// HOLD in the same cycle (combinational operand fetch), so the minimum
// producer->consumer latency is 1 cycle — matching Fig. 3's modulo
// schedule where dependent ops sit in consecutive cycles.
//
// Storage is structure-of-arrays: parallel kind/cell/capacity arrays
// indexed by the dense node id, and CSR adjacency for out-links and
// readable-hold sets, so the router's expansion loop walks contiguous
// memory. The layout — id blocks, array invariants, and their
// stability guarantees — is a documented contract: see docs/MRRG.md.
// Node ids are dense and assigned in construction order (FU block,
// then HOLD block, then RT block), identical to the ids the previous
// array-of-structs build assigned, so `Mapping` contents,
// `SerializeMapping` digests, and MapTrace output are bit-identical
// across the layout change (the old-id -> dense-id mapping is the
// identity; tests/test_arch.cpp asserts the block formulas).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/arch.hpp"
#include "support/span.hpp"

namespace cgra {

class Mrrg {
 public:
  enum class Kind : std::uint8_t { kFu, kHold, kRt };

  struct Link {
    std::int32_t to;
    std::int32_t latency;  ///< cycles consumed by traversing this link
  };

  /// A graph of `arch`, which must outlive it. Everything in src/ maps
  /// on arch.mrrg(), the one graph each Architecture builds and owns;
  /// a standalone graph is for tests and benches.
  explicit Mrrg(const Architecture& arch);

  const Architecture& arch() const { return *arch_; }
  int num_nodes() const { return static_cast<int>(kind_.size()); }

  // SoA column accessors — one contiguous array load each.
  Kind kind(int n) const {
    return static_cast<Kind>(kind_[static_cast<size_t>(n)]);
  }
  /// Owning cell (the kShared hold uses cell -1).
  int cell(int n) const { return cell_[static_cast<size_t>(n)]; }
  /// Simultaneous values per time slot.
  int capacity(int n) const { return capacity_[static_cast<size_t>(n)]; }
  /// The full capacity column (tracker bitset initialisation).
  Span<std::int32_t> capacities() const {
    return Span<std::int32_t>(capacity_.data(), capacity_.size());
  }

  /// Largest per-slot capacity of any node (>= 1 even on an all-dead
  /// fabric). Bounds how long a route may consecutively wait in one
  /// node, which sizes the router's flat scratch arena.
  int max_capacity() const { return max_capacity_; }

  // Dense-id block layout (see docs/MRRG.md): FU nodes first, then
  // HOLD, then RT. Each range is contiguous, so a kind's candidate
  // set is an id interval — which is what lets the tracker answer
  // occupancy for a whole candidate set word-parallel.
  int fu_begin() const { return 0; }
  int fu_count() const { return arch_->num_cells(); }
  int hold_begin() const { return hold_begin_; }
  int hold_count() const { return hold_count_; }
  int rt_begin() const { return rt_begin_; }
  int rt_count() const { return rt_count_; }

  int FuNode(int cell) const { return fu_of_[static_cast<size_t>(cell)]; }
  /// The hold (RF) node a cell's FU result lands in.
  int HoldNode(int cell) const { return hold_of_[static_cast<size_t>(cell)]; }
  /// The routing-channel node of a cell (-1 when route_channels == 0).
  int RtNode(int cell) const { return rt_of_[static_cast<size_t>(cell)]; }

  /// Outgoing routing links of a node (HOLD/RT only; FU->HOLD is
  /// modelled separately because it starts a net rather than routes
  /// it). CSR view: contiguous, ordered as constructed.
  Span<Link> OutLinks(int n) const {
    const std::uint32_t b = out_offset_[static_cast<size_t>(n)];
    const std::uint32_t e = out_offset_[static_cast<size_t>(n) + 1];
    return Span<Link>(out_links_.data() + b, e - b);
  }
  /// Total link count across all nodes (CSR tail offset).
  int num_links() const { return static_cast<int>(out_links_.size()); }

  /// Hold nodes whose values `cell`'s FU can read combinationally.
  Span<std::int32_t> ReadableHolds(int cell) const {
    const std::uint32_t b = readable_offset_[static_cast<size_t>(cell)];
    const std::uint32_t e = readable_offset_[static_cast<size_t>(cell) + 1];
    return Span<std::int32_t>(readable_holds_.data() + b, e - b);
  }

  /// False when `node` cannot be configured in modulo slot `slot`
  /// because the owning cell's configuration-memory word is faulted.
  /// Register files retain values without a config word, so kHold (and
  /// the shared RF, cell -1) are never slot-restricted.
  bool SlotUsable(int n, int slot) const {
    const size_t i = static_cast<size_t>(n);
    if (static_cast<Kind>(kind_[i]) == Kind::kHold || cell_[i] < 0) return true;
    return !arch_->ContextSlotFaulted(cell_[i], slot);
  }

 private:
  const Architecture* arch_;
  // Parallel per-node columns, indexed by the dense node id.
  std::vector<std::uint8_t> kind_;
  std::vector<std::int32_t> cell_;
  std::vector<std::int32_t> capacity_;
  int max_capacity_ = 1;
  int hold_begin_ = 0, hold_count_ = 0;
  int rt_begin_ = 0, rt_count_ = 0;
  std::vector<int> fu_of_, hold_of_, rt_of_;
  // CSR adjacency: out_offset_[n] .. out_offset_[n+1] indexes
  // out_links_. Same per-node link order as the old nested vectors.
  std::vector<std::uint32_t> out_offset_;
  std::vector<Link> out_links_;
  // CSR readable-hold sets per cell.
  std::vector<std::uint32_t> readable_offset_;
  std::vector<std::int32_t> readable_holds_;
};

}  // namespace cgra
