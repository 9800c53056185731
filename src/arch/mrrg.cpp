#include "arch/mrrg.hpp"

#include <algorithm>
#include <cstddef>
#include <mutex>

#include "telemetry/metrics.hpp"

namespace cgra {

// Builds the SoA columns in the contract's block order (docs/MRRG.md):
// FU nodes [0, C), then HOLD nodes, then RT nodes. The per-node link
// lists are assembled in a temporary nested form and flattened to CSR,
// preserving the exact per-node ordering the router's tie-breaking
// depends on.
Mrrg::Mrrg(const Architecture& arch) : arch_(&arch) {
  static telemetry::Counter& builds =
      telemetry::MetricsRegistry::Global().GetCounter(
          "cgra_mrrg_builds_total",
          "MRRGs built (one per Architecture object, on first use)");
  builds.Add();
  const int n = arch.num_cells();
  fu_of_.assign(static_cast<size_t>(n), -1);
  hold_of_.assign(static_cast<size_t>(n), -1);
  rt_of_.assign(static_cast<size_t>(n), -1);

  const bool shared_rf = arch.params().rf_kind == RfKind::kShared;

  auto push_node = [&](Kind kind, int cell, int capacity) -> int {
    const int id = static_cast<int>(kind_.size());
    kind_.push_back(static_cast<std::uint8_t>(kind));
    cell_.push_back(cell);
    capacity_.push_back(capacity);
    return id;
  };

  // Capacities come from the per-cell (fault-derated) accessors: a dead
  // cell's FU/HOLD/RT nodes exist but have capacity 0, so no mapper can
  // ever occupy them and node numbering stays identical to the healthy
  // fabric's.
  for (int c = 0; c < n; ++c) {
    fu_of_[static_cast<size_t>(c)] =
        push_node(Kind::kFu, c, arch.CellAlive(c) ? 1 : 0);
  }
  hold_begin_ = static_cast<int>(kind_.size());
  if (shared_rf) {
    const int shared = push_node(Kind::kHold, -1, arch.HoldCapacity());
    for (int c = 0; c < n; ++c) hold_of_[static_cast<size_t>(c)] = shared;
  } else {
    for (int c = 0; c < n; ++c) {
      hold_of_[static_cast<size_t>(c)] =
          push_node(Kind::kHold, c, arch.HoldCapacityAt(c));
    }
  }
  hold_count_ = static_cast<int>(kind_.size()) - hold_begin_;
  rt_begin_ = static_cast<int>(kind_.size());
  if (arch.params().route_channels > 0) {
    for (int c = 0; c < n; ++c) {
      rt_of_[static_cast<size_t>(c)] =
          push_node(Kind::kRt, c, arch.RouteChannelsAt(c));
    }
  }
  rt_count_ = static_cast<int>(kind_.size()) - rt_begin_;

  std::vector<std::vector<Link>> out(kind_.size());
  auto add_link = [&](int from, int to, int latency) {
    out[static_cast<size_t>(from)].push_back(Link{to, latency});
  };

  if (shared_rf) {
    const int shared = hold_of_[0];
    add_link(shared, shared, 1);  // retain
  } else {
    for (int c = 0; c < n; ++c) {
      const int h = hold_of_[static_cast<size_t>(c)];
      add_link(h, h, 1);  // retain in the RF another cycle
      if (arch.params().route_channels > 0) {
        // A held value can enter a linked neighbour's routing channel
        // combinationally; the channel latches into that cell's RF.
        for (int to : arch.LinksOut(c)) {
          add_link(h, rt_of_[static_cast<size_t>(to)], 0);
        }
        add_link(rt_of_[static_cast<size_t>(c)], h, 1);
      }
    }
  }

  out_offset_.assign(kind_.size() + 1, 0);
  for (size_t i = 0; i < out.size(); ++i) {
    out_offset_[i + 1] =
        out_offset_[i] + static_cast<std::uint32_t>(out[i].size());
  }
  out_links_.reserve(out_offset_.back());
  for (const auto& links : out) {
    out_links_.insert(out_links_.end(), links.begin(), links.end());
  }

  for (int capacity : capacity_) {
    max_capacity_ = std::max(max_capacity_, capacity);
  }

  readable_offset_.assign(static_cast<size_t>(n) + 1, 0);
  for (int c = 0; c < n; ++c) {
    std::vector<std::int32_t> rh;
    for (int src : arch.ReadableFrom(c)) {
      const std::int32_t h = hold_of_[static_cast<size_t>(src)];
      if (std::find(rh.begin(), rh.end(), h) == rh.end()) rh.push_back(h);
    }
    readable_offset_[static_cast<size_t>(c) + 1] =
        readable_offset_[static_cast<size_t>(c)] +
        static_cast<std::uint32_t>(rh.size());
    readable_holds_.insert(readable_holds_.end(), rh.begin(), rh.end());
  }
}

const Mrrg& Architecture::mrrg() const { return mrrg_.Get(*this); }

Architecture::MrrgSlot& Architecture::MrrgSlot::operator=(
    const MrrgSlot& other) noexcept {
  if (this != &other) delete built_.exchange(nullptr);
  return *this;
}

Architecture::MrrgSlot::~MrrgSlot() { delete built_.load(); }

const Mrrg& Architecture::MrrgSlot::Get(const Architecture& arch) {
  if (const Mrrg* built = built_.load()) return *built;
  std::lock_guard<std::mutex> lock(mu_);
  const Mrrg* built = built_.load();
  if (built == nullptr) {
    built = new Mrrg(arch);
    built_.store(built);
  }
  return *built;
}

}  // namespace cgra
