#include "mapping/tracker.hpp"

#include <algorithm>
#include <cassert>

#include "mapping/perf.hpp"

namespace cgra {

ResourceTracker::ResourceTracker(const Mrrg& mrrg, int ii)
    : mrrg_(&mrrg),
      ii_(ii),
      words_per_slot_((mrrg.num_nodes() + 63) / 64),
      capacity_(mrrg.capacities()) {
  assert(ii >= 1);
  const size_t slots =
      static_cast<size_t>(mrrg.num_nodes()) * static_cast<size_t>(ii);
  inline_.resize(slots * static_cast<size_t>(kInlineOccupants));
  counts_.assign(slots, 0);

  // The usable plane is derived once from the (immutable) fault state;
  // the avail plane starts as "usable with any capacity at all" (Reset)
  // and is maintained incrementally from there.
  const size_t words =
      static_cast<size_t>(ii) * static_cast<size_t>(words_per_slot_);
  usable_.assign(words, 0);
  avail_.assign(words, 0);
  for (int s = 0; s < ii; ++s) {
    for (int n = 0; n < mrrg.num_nodes(); ++n) {
      if (!mrrg.SlotUsable(n, s)) continue;
      usable_[RowIndex(s) + static_cast<size_t>(n >> 6)] |=
          std::uint64_t{1} << (n & 63);
    }
  }
  Reset();
}

bool ResourceTracker::CanOccupy(int node, int time, ValueId value) const {
  PerfCounters& perf = ThreadPerfCounters();
  ++perf.tracker_checks;
  const int s = Slot(time);
  // Fast path: one bit answers "usable slot with headroom" — yes for
  // any value, already an occupant or not.
  const bool ok = AvailBit(node, s) || AdmitsWhenFull(node, s, time, value);
  if (ok) ++perf.tracker_check_hits;
  return ok;
}

bool ResourceTracker::AdmitsWhenFull(int node, int s, int time,
                                     ValueId value) const {
  if (!UsableBit(node, s)) return false;
  // Slot is full (or capacity 0): admissible only if this (value,
  // absolute time) already holds an entry.
  const size_t idx = SlotIndex(node, s);
  const std::int32_t count = counts_[idx];
  const Entry* block = &inline_[idx * static_cast<size_t>(kInlineOccupants)];
  const int in_block = std::min(count, kInlineOccupants);
  for (int i = 0; i < in_block; ++i) {
    if (block[i].value == value && block[i].time == time) {
      return true;  // already ours
    }
  }
  if (count > kInlineOccupants) {
    const std::uint32_t key = static_cast<std::uint32_t>(idx);
    for (const SpillEntry& se : spill_) {
      if (se.slot_index == key && se.entry.value == value &&
          se.entry.time == time) {
        return true;
      }
    }
  }
  return count < capacity_[static_cast<size_t>(node)];
}

void ResourceTracker::Occupy(int node, int time, ValueId value) {
  ++ThreadPerfCounters().tracker_occupies;
  const int s = Slot(time);
  const size_t idx = SlotIndex(node, s);
  std::int32_t& count = counts_[idx];
  Entry* block = &inline_[idx * static_cast<size_t>(kInlineOccupants)];
  const int in_block = std::min(count, static_cast<std::int32_t>(kInlineOccupants));
  for (int i = 0; i < in_block; ++i) {
    if (block[i].value == value && block[i].time == time) {
      ++block[i].refs;
      return;
    }
  }
  if (count > kInlineOccupants) {
    const std::uint32_t key = static_cast<std::uint32_t>(idx);
    for (SpillEntry& se : spill_) {
      if (se.slot_index == key && se.entry.value == value &&
          se.entry.time == time) {
        ++se.entry.refs;
        return;
      }
    }
  }
  if (count < kInlineOccupants) {
    block[count] = Entry{value, time, 1};
  } else {
    spill_.push_back(
        SpillEntry{static_cast<std::uint32_t>(idx), Entry{value, time, 1}});
  }
  ++count;
  RefreshAvail(node, s);
}

void ResourceTracker::Release(int node, int time, ValueId value) {
  ++ThreadPerfCounters().tracker_releases;
  const int s = Slot(time);
  const size_t idx = SlotIndex(node, s);
  std::int32_t& count = counts_[idx];
  Entry* block = &inline_[idx * static_cast<size_t>(kInlineOccupants)];
  const std::uint32_t key = static_cast<std::uint32_t>(idx);
  const int in_block = std::min(count, static_cast<std::int32_t>(kInlineOccupants));
  for (int i = 0; i < in_block; ++i) {
    if (block[i].value == value && block[i].time == time) {
      if (--block[i].refs == 0) {
        // Keep the block dense: fill the hole with the slot's last
        // occupant — the final inline entry, or one pulled back from
        // the shared overflow list when the slot has spilled.
        if (count > kInlineOccupants) {
          for (size_t j = spill_.size(); j-- > 0;) {
            if (spill_[j].slot_index == key) {
              block[i] = spill_[j].entry;
              spill_[j] = spill_.back();
              spill_.pop_back();
              break;
            }
          }
        } else if (i != count - 1) {
          block[i] = block[count - 1];
        }
        --count;
        RefreshAvail(node, s);
      }
      return;
    }
  }
  if (count > kInlineOccupants) {
    for (size_t j = 0; j < spill_.size(); ++j) {
      if (spill_[j].slot_index == key && spill_[j].entry.value == value &&
          spill_[j].entry.time == time) {
        if (--spill_[j].entry.refs == 0) {
          spill_[j] = spill_.back();
          spill_.pop_back();
          --count;
          RefreshAvail(node, s);
        }
        return;
      }
    }
  }
  assert(false && "releasing an occupancy that was never recorded");
}

int ResourceTracker::Headroom(int node, int time) const {
  const int s = Slot(time);
  if (!UsableBit(node, s)) return 0;
  return capacity_[static_cast<size_t>(node)] - Load(node, s);
}

int ResourceTracker::CountAvailable(int time, int node_begin,
                                    int node_end) const {
  const size_t row = RowIndex(Slot(time));
  const int wb = node_begin >> 6, we = (node_end + 63) >> 6;
  int total = 0;
  for (int w = wb; w < we; ++w) {
    const std::uint64_t bits = avail_[row + static_cast<size_t>(w)] &
                               RangeMask(w, node_begin, node_end);
    total += __builtin_popcountll(bits);
  }
  return total;
}

void ResourceTracker::Reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  spill_.clear();
  // Empty tracker: avail returns to "usable with nonzero capacity".
  // Inline entries past each (zeroed) count are never read, so they
  // stay as they are.
  std::copy(usable_.begin(), usable_.end(), avail_.begin());
  for (int n = 0; n < mrrg_->num_nodes(); ++n) {
    if (capacity_[static_cast<size_t>(n)] > 0) continue;
    const std::uint64_t bit = std::uint64_t{1} << (n & 63);
    for (int s = 0; s < ii_; ++s) {
      avail_[RowIndex(s) + static_cast<size_t>(n >> 6)] &= ~bit;
    }
  }
}

}  // namespace cgra
