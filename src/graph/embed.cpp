#include "graph/embed.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>

namespace cgra {

CellReads::CellReads(int cells)
    : words_((cells + 63) / 64),
      producers_(static_cast<std::size_t>(cells) * static_cast<std::size_t>(words_), 0),
      consumers_(producers_.size(), 0) {}

void CellReads::Add(int q, int p) {
  const std::size_t w = static_cast<std::size_t>(words_);
  producers_[static_cast<std::size_t>(q) * w + static_cast<std::size_t>(p / 64)] |=
      std::uint64_t{1} << (p % 64);
  consumers_[static_cast<std::size_t>(p) * w + static_cast<std::size_t>(q / 64)] |=
      std::uint64_t{1} << (q % 64);
}

namespace {

// Sorted, duplicate-free neighbour ids of each node, without the node
// itself (self-loops are never checked).
std::vector<std::vector<NodeId>> Distinct(std::vector<std::vector<NodeId>> lists) {
  for (NodeId v = 0; v < static_cast<NodeId>(lists.size()); ++v) {
    auto& l = lists[static_cast<std::size_t>(v)];
    l.erase(std::remove(l.begin(), l.end(), v), l.end());
    std::sort(l.begin(), l.end());
    l.erase(std::unique(l.begin(), l.end()), l.end());
  }
  return lists;
}

class Embedder {
 public:
  Embedder(const Digraph& pattern, const EmbedDomains& domains,
           const CellReads& reads, const EmbedLimits& limits)
      : domains_(domains),
        reads_(reads),
        limits_(limits),
        n_(static_cast<std::size_t>(pattern.num_nodes())),
        w_(static_cast<std::size_t>(reads.words())),
        domain_(n_ * w_, 0),
        used_(static_cast<std::size_t>(domains.ii) * w_, 0),
        allowed_(n_ * w_, 0),
        probe_(w_, 0),
        cell_of_(n_, -1) {
    std::vector<std::vector<NodeId>> succ(n_), pred(n_), adj(n_);
    for (const Digraph::Edge& e : pattern.edges()) {
      succ[static_cast<std::size_t>(e.from)].push_back(e.to);
      pred[static_cast<std::size_t>(e.to)].push_back(e.from);
      adj[static_cast<std::size_t>(e.from)].push_back(e.to);
      adj[static_cast<std::size_t>(e.to)].push_back(e.from);
    }
    succ_ = Distinct(std::move(succ));
    pred_ = Distinct(std::move(pred));
    adj_ = Distinct(std::move(adj));
    for (std::size_t v = 0; v < n_; ++v) {
      for (const int c : domains.cells[v]) {
        domain_[v * w_ + static_cast<std::size_t>(c / 64)] |= std::uint64_t{1}
                                                             << (c % 64);
      }
    }
    order_.resize(n_);
    for (std::size_t v = 0; v < n_; ++v) order_[v] = static_cast<NodeId>(v);
    std::sort(order_.begin(), order_.end(), [&](NodeId x, NodeId y) {
      const int dx = pattern.in_degree(x) + pattern.out_degree(x);
      const int dy = pattern.in_degree(y) + pattern.out_degree(y);
      return dx != dy ? dx > dy : x < y;
    });
  }

  bool Search(std::size_t depth) {
    if (depth == n_) return true;
    const NodeId v = order_[depth];
    std::uint64_t* bits = &allowed_[depth * w_];
    if (!Allowed(v, bits)) return false;
    std::uint64_t* used = UsedRow(v);
    for (std::size_t w = 0; w < w_; ++w) {
      while (bits[w] != 0) {
        const int bit = std::countr_zero(bits[w]);
        bits[w] &= bits[w] - 1;
        if (Expired()) return false;
        const std::uint64_t mask = std::uint64_t{1} << bit;
        cell_of_[static_cast<std::size_t>(v)] = static_cast<int>(w * 64) + bit;
        used[w] |= mask;
        if (NeighboursKeepAValue(v) && Search(depth + 1)) return true;
        used[w] &= ~mask;
        cell_of_[static_cast<std::size_t>(v)] = -1;
        if (expired_) return false;
      }
    }
    return false;
  }

  std::vector<std::pair<NodeId, int>> Result() const {
    std::vector<std::pair<NodeId, int>> match;
    match.reserve(n_);
    for (std::size_t v = 0; v < n_; ++v) {
      match.emplace_back(static_cast<NodeId>(v), cell_of_[v]);
    }
    return match;
  }

 private:
  std::uint64_t* UsedRow(NodeId v) {
    return &used_[static_cast<std::size_t>(
                      domains_.slot[static_cast<std::size_t>(v)]) *
                  w_];
  }

  // Writes the allowed cells of unassigned `v` to `out`; false when
  // there are none.
  bool Allowed(NodeId v, std::uint64_t* out) {
    const std::uint64_t* dom = &domain_[static_cast<std::size_t>(v) * w_];
    const std::uint64_t* used = UsedRow(v);
    for (std::size_t w = 0; w < w_; ++w) out[w] = dom[w] & ~used[w];
    // v produces for each successor: v's cell must be readable there.
    for (const NodeId u : succ_[static_cast<std::size_t>(v)]) {
      const int cu = cell_of_[static_cast<std::size_t>(u)];
      if (cu < 0) continue;
      const std::uint64_t* producers = reads_.Producers(cu);
      for (std::size_t w = 0; w < w_; ++w) out[w] &= producers[w];
    }
    // v consumes from each predecessor: v's cell must read it.
    for (const NodeId u : pred_[static_cast<std::size_t>(v)]) {
      const int cu = cell_of_[static_cast<std::size_t>(u)];
      if (cu < 0) continue;
      const std::uint64_t* consumers = reads_.Consumers(cu);
      for (std::size_t w = 0; w < w_; ++w) out[w] &= consumers[w];
    }
    std::uint64_t any = 0;
    for (std::size_t w = 0; w < w_; ++w) any |= out[w];
    return any != 0;
  }

  // Forward check after assigning `v`.
  bool NeighboursKeepAValue(NodeId v) {
    for (const NodeId u : adj_[static_cast<std::size_t>(v)]) {
      if (cell_of_[static_cast<std::size_t>(u)] < 0 && !Allowed(u, probe_.data())) {
        return false;
      }
    }
    return true;
  }

  bool Expired() {
    if (!expired_ && (++steps_ & 511) == 0) {
      expired_ = limits_.deadline.Expired() || limits_.stop.StopRequested();
    }
    return expired_;
  }

  const EmbedDomains& domains_;
  const CellReads& reads_;
  const EmbedLimits& limits_;
  std::size_t n_;
  std::size_t w_;
  std::vector<std::uint64_t> domain_;   ///< per node: candidate cells
  std::vector<std::uint64_t> used_;     ///< per slot: occupied cells
  std::vector<std::uint64_t> allowed_;  ///< per depth: values left to try
  std::vector<std::uint64_t> probe_;    ///< forward-check scratch
  std::vector<int> cell_of_;            ///< -1 = unassigned
  std::vector<NodeId> order_;
  std::vector<std::vector<NodeId>> succ_, pred_, adj_;
  std::uint32_t steps_ = 0;
  bool expired_ = false;
};

}  // namespace

std::optional<std::vector<std::pair<NodeId, int>>> FirstEmbedding(
    const Digraph& pattern, const EmbedDomains& domains, const CellReads& reads,
    const EmbedLimits& limits) {
  Embedder embedder(pattern, domains, reads, limits);
  if (!embedder.Search(0)) return std::nullopt;
  return embedder.Result();
}

}  // namespace cgra
