// Modulo resource occupancy tracking.
//
// Every physical resource exists once per II slot (time mod II); this
// tracker counts which *values* occupy which (node, slot) pair so
// capacities are enforced during placement and routing. Two subtleties
// the survey's problem statement implies:
//   * net sharing — the same value fanning out to several consumers may
//     reuse a hold/route step at no extra cost (counted once);
//   * modulo self-overlap — the same value alive at absolute times t
//     and t+II occupies the SAME slot twice (two iterations' copies are
//     live simultaneously), so it consumes two capacity units.
//
// Storage is two-layer (the word layout is part of the documented
// memory contract, docs/MRRG.md):
//   * occupancy bitsets — one slot-major bit plane (bit = node) per
//     derived fact: `usable` (config word not faulted; immutable) and
//     `avail` (usable AND occupant count < capacity; maintained on
//     every Occupy/Release). The common CanOccupy — a
//     slot with headroom — is answered by ONE bit test, and a whole
//     candidate id range (kind blocks are contiguous, see Mrrg) is
//     answered word-parallel, 64 nodes per AND+mask.
//   * occupant entries — kInlineOccupants (value, time, refs) entries
//     per (node, slot) plus a shared spill list, consulted only on the
//     slow path (slot full: is the value already ours?) and for
//     reference-counted release. The inline block no longer sits on
//     the admission fast path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "arch/mrrg.hpp"

namespace cgra {

/// Identifies a value: the op producing it (one value per op per
/// iteration; iteration offsets are captured by the absolute time).
using ValueId = std::int32_t;

class ResourceTracker {
 public:
  /// Occupants stored in the flat per-slot block; chosen to cover the
  /// default register-file capacity so spilling is the exception.
  static constexpr int kInlineOccupants = 4;

  ResourceTracker(const Mrrg& mrrg, int ii);

  int ii() const { return ii_; }
  const Mrrg& mrrg() const { return *mrrg_; }

  /// True if `value` may (additionally) occupy `node` at absolute
  /// `time` without exceeding capacity. Re-occupying an entry the
  /// value already holds at the same absolute time is always allowed.
  /// Counts one tracker check (and a hit when it says yes).
  bool CanOccupy(int node, int time, ValueId value) const;

  /// The two halves of CanOccupy, uncounted, for a hot loop that sums
  /// its checks and hits itself (the router). `slot` is `time` mod II.
  /// AvailBit: usable slot with headroom, so admissible for any value.
  bool AvailBit(int node, int slot) const {
    return (avail_[RowIndex(slot) + static_cast<size_t>(node >> 6)] >>
            (node & 63)) &
           1u;
  }
  /// The rest of CanOccupy once AvailBit said no: the slot is full (or
  /// unusable), so only a value already holding it at `time` fits.
  bool AdmitsWhenFull(int node, int slot, int time, ValueId value) const;

  /// Records the occupancy (reference-counted per (node,time,value) so
  /// shared route prefixes release correctly).
  void Occupy(int node, int time, ValueId value);

  /// Releases one reference.
  void Release(int node, int time, ValueId value);

  /// Number of distinct (value, abs-time) occupants of the slot.
  int Load(int node, int slot) const {
    return counts_[SlotIndex(node, slot)];
  }

  /// Remaining capacity of (node, time mod ii) for a NEW occupant.
  int Headroom(int node, int time) const;

  /// Clears everything (used when restarting at a different II).
  void Reset();

  /// Entries currently living in the shared overflow list (testing /
  /// diagnostics; 0 in steady state).
  int SpilledEntries() const { return static_cast<int>(spill_.size()); }

  // ---- word-parallel candidate-set queries ---------------------------------
  // Bit layout (the contract in docs/MRRG.md): row = time mod II,
  // bit `node` of word `node / 64` in that row. A set `avail` bit
  // means a NEW occupant is admissible (usable slot with headroom) —
  // exactly CanOccupy() for a value not already holding the slot.

  /// Words per slot row: ceil(num_nodes / 64).
  int words_per_slot() const { return words_per_slot_; }

  /// The availability word covering nodes [word*64, word*64+64) at
  /// `time`'s modulo slot.
  std::uint64_t AvailWord(int time, int word) const {
    return avail_[RowIndex(Slot(time)) + static_cast<size_t>(word)];
  }

  /// Number of nodes in [node_begin, node_end) that can admit a new
  /// occupant at `time` (word-parallel popcount).
  int CountAvailable(int time, int node_begin, int node_end) const;

  /// Calls fn(node) for every node in [node_begin, node_end) whose
  /// avail bit is set at `time`'s slot, in ascending id order.
  template <typename Fn>
  void ForEachAvailable(int time, int node_begin, int node_end,
                        Fn&& fn) const {
    const size_t row = RowIndex(Slot(time));
    const int wb = node_begin >> 6, we = (node_end + 63) >> 6;
    for (int w = wb; w < we; ++w) {
      std::uint64_t bits = avail_[row + static_cast<size_t>(w)];
      bits &= RangeMask(w, node_begin, node_end);
      while (bits) {
        const int node = (w << 6) + __builtin_ctzll(bits);
        bits &= bits - 1;
        fn(node);
      }
    }
  }

 private:
  struct Entry {
    ValueId value;
    std::int32_t time;  // absolute
    std::int32_t refs;
  };
  struct SpillEntry {
    std::uint32_t slot_index;  // SlotIndex(node, slot) this entry belongs to
    Entry entry;
  };

  size_t SlotIndex(int node, int s) const {
    return static_cast<size_t>(node) * static_cast<size_t>(ii_) +
           static_cast<size_t>(s);
  }
  size_t RowIndex(int s) const {
    return static_cast<size_t>(s) * static_cast<size_t>(words_per_slot_);
  }
  int Slot(int time) const { return ((time % ii_) + ii_) % ii_; }

  /// Mask selecting the bits of word `w` that fall in [begin, end).
  static std::uint64_t RangeMask(int w, int begin, int end) {
    std::uint64_t mask = ~std::uint64_t{0};
    if (begin > (w << 6)) mask &= ~std::uint64_t{0} << (begin - (w << 6));
    if (end < ((w + 1) << 6)) {
      mask &= ~std::uint64_t{0} >> (((w + 1) << 6) - end);
    }
    return mask;
  }

  bool UsableBit(int node, int s) const {
    return (usable_[RowIndex(s) + static_cast<size_t>(node >> 6)] >>
            (node & 63)) &
           1u;
  }
  /// Re-derives the avail bit of (node, s) after a count change.
  void RefreshAvail(int node, int s) {
    const size_t w = RowIndex(s) + static_cast<size_t>(node >> 6);
    const std::uint64_t bit = std::uint64_t{1} << (node & 63);
    const bool avail = (usable_[w] & bit) &&
                       counts_[SlotIndex(node, s)] < capacity_[node];
    if (avail) {
      avail_[w] |= bit;
    } else {
      avail_[w] &= ~bit;
    }
  }

  const Mrrg* mrrg_;
  int ii_;
  int words_per_slot_;
  std::span<const std::int32_t> capacity_;  ///< Mrrg's SoA capacity column
  /// kInlineOccupants entries per (node, slot), contiguous.
  std::vector<Entry> inline_;
  /// Occupant count per (node, slot) — inline entries + spilled ones.
  std::vector<std::int32_t> counts_;
  /// Overflow beyond the inline block, shared across all slots and
  /// scanned linearly (it is almost always empty).
  std::vector<SpillEntry> spill_;
  /// Slot-major bit planes (see class comment).
  std::vector<std::uint64_t> usable_;  ///< Mrrg::SlotUsable (immutable)
  std::vector<std::uint64_t> avail_;   ///< usable && count < capacity
};

}  // namespace cgra
