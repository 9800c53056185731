// First full embedding of a scheduled pattern graph into a fabric's
// (cell, slot) pairs: subgraph monomorphism once time is fixed.
//
// EPIMap [28] binds by matching the scheduled DFG against the
// time-extended CGRA graph and keeps only complete matches. Once a
// schedule has fixed every op's slot, that is a subgraph-monomorphism
// problem over space alone — the space/time-decoupled formulation of
// Tirelli et al. ("Monomorphism-based CGRA Mapping via Space and Time
// Decoupling", PAPERS.md). FirstEmbedding solves it by depth-first
// search with forward checking:
//   * variables are the pattern nodes, by in+out degree descending,
//     then id ascending (duplicate and self-loop edges count);
//   * a node's values are its candidate cells in increasing id;
//   * a value is allowed when its (cell, slot) is unused and, for every
//     assigned neighbour, the producer's cell is readable from the
//     consumer's cell (self-loops are not checked);
//   * after each assignment, the search backtracks at once when an
//     unassigned neighbour has no allowed value left.
// The search returns the first full embedding in that order. Forward
// checking only cuts subtrees that contain an empty domain, so it never
// changes which embedding comes first.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "support/stop_token.hpp"
#include "support/timer.hpp"

namespace cgra {

/// The "q reads p" relation over cells as a cells x cells bitset, with
/// its transpose, built once per fabric.
class CellReads {
 public:
  explicit CellReads(int cells);

  /// Records that a value produced on cell `p` can be read on cell `q`.
  void Add(int q, int p);

  int words() const { return words_; }
  /// Bits p with Reads(q, p).
  const std::uint64_t* Producers(int q) const {
    return &producers_[static_cast<std::size_t>(q) * words_];
  }
  /// Bits q with Reads(q, p).
  const std::uint64_t* Consumers(int p) const {
    return &consumers_[static_cast<std::size_t>(p) * words_];
  }

 private:
  int words_;
  std::vector<std::uint64_t> producers_;
  std::vector<std::uint64_t> consumers_;
};

/// Per pattern node: its fixed slot in [0, ii) and the cells that may
/// host it.
struct EmbedDomains {
  int ii = 1;
  std::vector<int> slot;
  std::vector<std::vector<int>> cells;
};

/// The search polls both every 512 steps; once either fires it stays
/// fired and the search returns no embedding.
struct EmbedLimits {
  Deadline deadline;
  StopToken stop;
};

/// (pattern node, cell) for every pattern node in increasing node id,
/// or nullopt when no full embedding exists or a limit fired first.
std::optional<std::vector<std::pair<NodeId, int>>> FirstEmbedding(
    const Digraph& pattern, const EmbedDomains& domains, const CellReads& reads,
    const EmbedLimits& limits);

}  // namespace cgra
