#include "arch/fault.hpp"

#include <algorithm>

#include "arch/arch.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"

namespace cgra {
namespace {

template <typename T>
void SortedInsert(std::vector<T>& v, T value) {
  auto it = std::lower_bound(v.begin(), v.end(), value);
  if (it != v.end() && *it == value) return;
  v.insert(it, std::move(value));
}

}  // namespace

void FaultModel::KillCell(int cell) { SortedInsert(dead_cells_, cell); }

void FaultModel::KillLink(int from, int to) {
  SortedInsert(dead_links_, LinkFault{from, to});
}

void FaultModel::KillRfEntry(int cell, int reg) {
  SortedInsert(dead_rf_entries_, RfEntryFault{cell, reg});
}

void FaultModel::KillContextSlot(int cell, int slot) {
  SortedInsert(dead_context_slots_, ContextSlotFault{cell, slot});
}

void FaultModel::Merge(const FaultModel& other) {
  for (int c : other.dead_cells_) KillCell(c);
  for (const LinkFault& l : other.dead_links_) KillLink(l.from, l.to);
  for (const RfEntryFault& f : other.dead_rf_entries_) {
    KillRfEntry(f.cell, f.reg);
  }
  for (const ContextSlotFault& f : other.dead_context_slots_) {
    KillContextSlot(f.cell, f.slot);
  }
}

bool FaultModel::CellDead(int cell) const {
  return std::binary_search(dead_cells_.begin(), dead_cells_.end(), cell);
}

bool FaultModel::LinkDead(int from, int to) const {
  return std::binary_search(dead_links_.begin(), dead_links_.end(),
                            LinkFault{from, to});
}

Status FaultModel::Validate(const Architecture& arch) const {
  const int n = arch.num_cells();
  for (int c : dead_cells_) {
    if (c < 0 || c >= n) {
      return Error::InvalidArgument(
          StrFormat("fault model names cell %d on a %d-cell fabric", c, n));
    }
  }
  for (const LinkFault& l : dead_links_) {
    if (l.from < 0 || l.from >= n || l.to < 0 || l.to >= n) {
      return Error::InvalidArgument(
          StrFormat("fault model names link %d->%d on a %d-cell fabric",
                    l.from, l.to, n));
    }
    const auto& outs = arch.LinksOut(l.from);
    if (std::find(outs.begin(), outs.end(), l.to) == outs.end()) {
      return Error::InvalidArgument(StrFormat(
          "fault model cuts link %d->%d which the topology does not have",
          l.from, l.to));
    }
  }
  for (const RfEntryFault& f : dead_rf_entries_) {
    if (f.cell < 0 || f.cell >= n || f.reg < 0 ||
        f.reg >= arch.HoldCapacity()) {
      return Error::InvalidArgument(
          StrFormat("fault model names register r%d of cell %d (fabric has "
                    "%d cells x %d registers)",
                    f.reg, f.cell, n, arch.HoldCapacity()));
    }
  }
  for (const ContextSlotFault& f : dead_context_slots_) {
    if (f.cell < 0 || f.cell >= n || f.slot < 0 ||
        f.slot >= arch.params().context_depth) {
      return Error::InvalidArgument(
          StrFormat("fault model names context slot %d of cell %d (fabric "
                    "has %d cells x %d slots)",
                    f.slot, f.cell, n, arch.params().context_depth));
    }
  }
  return Status::Ok();
}

std::string FaultModel::Digest() const {
  if (empty()) return "healthy";
  // FNV-1a over the canonical (sorted) fault list.
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  mix(0x01);
  for (int c : dead_cells_) mix(static_cast<std::uint64_t>(c));
  mix(0x02);
  for (const LinkFault& l : dead_links_) {
    mix((static_cast<std::uint64_t>(l.from) << 32) |
        static_cast<std::uint32_t>(l.to));
  }
  mix(0x03);
  for (const RfEntryFault& f : dead_rf_entries_) {
    mix((static_cast<std::uint64_t>(f.cell) << 32) |
        static_cast<std::uint32_t>(f.reg));
  }
  mix(0x04);
  for (const ContextSlotFault& f : dead_context_slots_) {
    mix((static_cast<std::uint64_t>(f.cell) << 32) |
        static_cast<std::uint32_t>(f.slot));
  }
  return StrFormat("%016llx", static_cast<unsigned long long>(h));
}

std::string FaultModel::ToString() const {
  if (empty()) return "healthy";
  std::string out;
  auto sep = [&out]() {
    if (!out.empty()) out += "; ";
  };
  if (!dead_cells_.empty()) {
    out += StrFormat("%zu dead cell(s) {", dead_cells_.size());
    for (size_t i = 0; i < dead_cells_.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(dead_cells_[i]);
    }
    out += "}";
  }
  if (!dead_links_.empty()) {
    sep();
    out += StrFormat("%zu dead link(s) {", dead_links_.size());
    for (size_t i = 0; i < dead_links_.size(); ++i) {
      out += StrFormat("%s%d->%d", i ? "," : "", dead_links_[i].from,
                       dead_links_[i].to);
    }
    out += "}";
  }
  if (!dead_rf_entries_.empty()) {
    sep();
    out += StrFormat("%zu dead RF entr(ies) {", dead_rf_entries_.size());
    for (size_t i = 0; i < dead_rf_entries_.size(); ++i) {
      out += StrFormat("%sc%d.r%d", i ? "," : "", dead_rf_entries_[i].cell,
                       dead_rf_entries_[i].reg);
    }
    out += "}";
  }
  if (!dead_context_slots_.empty()) {
    sep();
    out += StrFormat("%zu dead context slot(s) {", dead_context_slots_.size());
    for (size_t i = 0; i < dead_context_slots_.size(); ++i) {
      out += StrFormat("%sc%d.s%d", i ? "," : "", dead_context_slots_[i].cell,
                       dead_context_slots_[i].slot);
    }
    out += "}";
  }
  return out;
}

void FaultModel::AppendCanonicalBytes(ByteWriter& w) const {
  w.U32(static_cast<std::uint32_t>(dead_cells_.size()));
  for (int c : dead_cells_) w.I32(c);
  w.U32(static_cast<std::uint32_t>(dead_links_.size()));
  for (const LinkFault& l : dead_links_) {
    w.I32(l.from);
    w.I32(l.to);
  }
  w.U32(static_cast<std::uint32_t>(dead_rf_entries_.size()));
  for (const RfEntryFault& f : dead_rf_entries_) {
    w.I32(f.cell);
    w.I32(f.reg);
  }
  w.U32(static_cast<std::uint32_t>(dead_context_slots_.size()));
  for (const ContextSlotFault& f : dead_context_slots_) {
    w.I32(f.cell);
    w.I32(f.slot);
  }
}

FaultModel FaultModel::Random(const Architecture& arch, const RandomSpec& spec,
                              std::uint64_t seed) {
  Rng rng(seed ^ 0xFA17FA17FA17FA17ull);
  FaultModel fm;
  const int n = arch.num_cells();

  {
    // Distinct cells via a partial Fisher-Yates draw.
    std::vector<int> cells(static_cast<size_t>(n));
    for (int c = 0; c < n; ++c) cells[static_cast<size_t>(c)] = c;
    rng.Shuffle(cells);
    const int k = std::min(spec.dead_cells, n);
    for (int i = 0; i < k; ++i) fm.KillCell(cells[static_cast<size_t>(i)]);
  }
  {
    std::vector<LinkFault> links;
    for (int from = 0; from < n; ++from) {
      for (int to : arch.LinksOut(from)) links.push_back(LinkFault{from, to});
    }
    rng.Shuffle(links);
    const int k = std::min<int>(spec.dead_links, static_cast<int>(links.size()));
    for (int i = 0; i < k; ++i) {
      fm.KillLink(links[static_cast<size_t>(i)].from,
                  links[static_cast<size_t>(i)].to);
    }
  }
  {
    const int regs = arch.HoldCapacity();
    std::vector<RfEntryFault> entries;
    for (int c = 0; c < n; ++c) {
      for (int r = 0; r < std::min(regs, 64); ++r) {
        entries.push_back(RfEntryFault{c, r});
      }
    }
    rng.Shuffle(entries);
    const int k =
        std::min<int>(spec.dead_rf_entries, static_cast<int>(entries.size()));
    for (int i = 0; i < k; ++i) {
      fm.KillRfEntry(entries[static_cast<size_t>(i)].cell,
                     entries[static_cast<size_t>(i)].reg);
    }
  }
  {
    const int slots = std::min(arch.params().context_depth, 64);
    std::vector<ContextSlotFault> all;
    for (int c = 0; c < n; ++c) {
      for (int s = 0; s < slots; ++s) all.push_back(ContextSlotFault{c, s});
    }
    rng.Shuffle(all);
    const int k =
        std::min<int>(spec.dead_context_slots, static_cast<int>(all.size()));
    for (int i = 0; i < k; ++i) {
      fm.KillContextSlot(all[static_cast<size_t>(i)].cell,
                         all[static_cast<size_t>(i)].slot);
    }
  }
  return fm;
}

FaultModel FaultModel::RandomDeadPes(const Architecture& arch, int k,
                                     std::uint64_t seed) {
  RandomSpec spec;
  spec.dead_cells = k;
  return Random(arch, spec, seed);
}

}  // namespace cgra
