// Unit and property tests for the graph substrate.
#include <algorithm>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/algos.hpp"
#include "graph/digraph.hpp"
#include "graph/embed.hpp"
#include "graph/layout.hpp"
#include "graph/matching.hpp"
#include "graph/partition.hpp"
#include "support/rng.hpp"
#include "support/stop_token.hpp"
#include "support/timer.hpp"

namespace cgra {
namespace {

Digraph Chain(int n) {
  Digraph g(n);
  for (int i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1);
  return g;
}

TEST(Digraph, Basics) {
  Digraph g(3);
  const EdgeId e = g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.edge(e).from, 0);
  EXPECT_EQ(g.Successors(0), std::vector<NodeId>{1});
  EXPECT_EQ(g.Predecessors(0), std::vector<NodeId>{});
  EXPECT_EQ(g.Successors(1), std::vector<NodeId>{2});
  EXPECT_EQ(g.Predecessors(1), std::vector<NodeId>{0});
}

TEST(Digraph, ParallelEdgesAllowed) {
  Digraph g(2);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.out_degree(0), 2);
}

TEST(Topo, OrdersChain) {
  const auto order = TopologicalOrder(Chain(5));
  ASSERT_TRUE(order.has_value());
  for (int i = 0; i < 5; ++i) EXPECT_EQ((*order)[static_cast<size_t>(i)], i);
}

TEST(Topo, DetectsCycle) {
  Digraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  EXPECT_FALSE(TopologicalOrder(g).has_value());
}

TEST(LongestPath, ChainLevels) {
  const Digraph g = Chain(4);
  std::vector<std::int64_t> w(static_cast<size_t>(g.num_edges()), 1);
  const auto to = DagLongestPathToSinks(g, w);
  EXPECT_EQ(to[0], 3);
  EXPECT_EQ(to[3], 0);
}

TEST(Hungarian, MinimisesCost) {
  std::vector<std::vector<std::int64_t>> cost{{4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
  const auto a = HungarianAssign(cost);
  ASSERT_EQ(a.size(), 3u);
  std::int64_t total = 0;
  std::set<int> used;
  for (int i = 0; i < 3; ++i) {
    total += cost[static_cast<size_t>(i)][static_cast<size_t>(a[static_cast<size_t>(i)])];
    used.insert(a[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(used.size(), 3u);
  EXPECT_EQ(total, 5);  // 1 + 2 + 2
}

TEST(Hungarian, RespectsForbiddenPairs) {
  std::vector<std::vector<std::int64_t>> cost{
      {kInfeasibleAssign, 1}, {kInfeasibleAssign, 1}};
  EXPECT_TRUE(HungarianAssign(cost).empty());
}

TEST(Hungarian, RectangularMoreRights) {
  std::vector<std::vector<std::int64_t>> cost{{5, 1, 9}};
  const auto a = HungarianAssign(cost);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0], 1);
}

// ---- first-embedding search ---------------------------------------------------

using Embedding = std::optional<std::vector<std::pair<NodeId, int>>>;

// Plain backtracking in FirstEmbedding's variable and value order (in+out
// degree descending, then id; cells ascending), without forward checking
// and without a "leave this node unmatched" branch. reads[q][p]: a value
// produced on cell p can be read on cell q.
Embedding ReferenceEmbedding(const Digraph& a, const EmbedDomains& d,
                             const std::vector<std::vector<bool>>& reads) {
  const int n = a.num_nodes();
  std::vector<NodeId> order(static_cast<size_t>(n));
  for (NodeId v = 0; v < n; ++v) order[static_cast<size_t>(v)] = v;
  std::sort(order.begin(), order.end(), [&](NodeId x, NodeId y) {
    const int dx = a.in_degree(x) + a.out_degree(x);
    const int dy = a.in_degree(y) + a.out_degree(y);
    return dx != dy ? dx > dy : x < y;
  });
  std::vector<int> cell(static_cast<size_t>(n), -1);
  std::set<std::pair<int, int>> used;  // (cell, slot)
  auto consistent = [&](NodeId v, int c) {
    if (used.count({c, d.slot[static_cast<size_t>(v)]}) != 0) return false;
    for (EdgeId e : a.out_edges(v)) {
      const int w = cell[static_cast<size_t>(a.edge(e).to)];
      if (w >= 0 && !reads[static_cast<size_t>(w)][static_cast<size_t>(c)]) return false;
    }
    for (EdgeId e : a.in_edges(v)) {
      const int w = cell[static_cast<size_t>(a.edge(e).from)];
      if (w >= 0 && !reads[static_cast<size_t>(c)][static_cast<size_t>(w)]) return false;
    }
    return true;
  };
  auto search = [&](auto& self, size_t depth) -> bool {
    if (depth == order.size()) return true;
    const NodeId v = order[depth];
    std::vector<int> cells = d.cells[static_cast<size_t>(v)];
    std::sort(cells.begin(), cells.end());
    for (int c : cells) {
      if (!consistent(v, c)) continue;
      cell[static_cast<size_t>(v)] = c;
      used.insert({c, d.slot[static_cast<size_t>(v)]});
      if (self(self, depth + 1)) return true;
      used.erase({c, d.slot[static_cast<size_t>(v)]});
      cell[static_cast<size_t>(v)] = -1;
    }
    return false;
  };
  if (!search(search, 0)) return std::nullopt;
  std::vector<std::pair<NodeId, int>> match;
  for (NodeId v = 0; v < n; ++v) match.emplace_back(v, cell[static_cast<size_t>(v)]);
  return match;
}

CellReads ToCellReads(const std::vector<std::vector<bool>>& reads) {
  const int cells = static_cast<int>(reads.size());
  CellReads r(cells);
  for (int q = 0; q < cells; ++q) {
    for (int p = 0; p < cells; ++p) {
      if (reads[static_cast<size_t>(q)][static_cast<size_t>(p)]) r.Add(q, p);
    }
  }
  return r;
}

TEST(Embed, EmbedsChainInGrid) {
  // A 3-chain embeds into a 2x2 ring 0 -> 1 -> 2 -> 3 -> 0.
  const Digraph a = Chain(3);
  std::vector<std::vector<bool>> reads(4, std::vector<bool>(4, false));
  for (int p = 0; p < 4; ++p) reads[static_cast<size_t>((p + 1) % 4)][static_cast<size_t>(p)] = true;
  EmbedDomains d;
  d.slot = {0, 0, 0};
  d.cells = {{0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3}};
  const Embedding match = FirstEmbedding(a, d, ToCellReads(reads), {});
  ASSERT_TRUE(match.has_value());
  // The middle node has the highest degree, so it takes cell 0 first;
  // its producer must sit on cell 3 and its consumer on cell 1.
  EXPECT_EQ(*match, (std::vector<std::pair<NodeId, int>>{{0, 3}, {1, 0}, {2, 1}}));
}

TEST(Embed, RespectsCapabilityDomains) {
  // Cell 1 reads cell 0 only. Both ops may use only cell 1: no
  // embedding in one slot (the pair collides) or in two (1 cannot read
  // itself). Widening the producer's domain to cell 0 embeds the chain.
  const Digraph a = Chain(2);
  std::vector<std::vector<bool>> reads(2, std::vector<bool>(2, false));
  reads[1][0] = true;
  const CellReads r = ToCellReads(reads);
  EmbedDomains d;
  d.ii = 2;
  d.cells = {{1}, {1}};
  d.slot = {0, 0};
  EXPECT_FALSE(FirstEmbedding(a, d, r, {}).has_value());
  d.slot = {0, 1};
  EXPECT_FALSE(FirstEmbedding(a, d, r, {}).has_value());
  d.cells = {{0, 1}, {1}};
  const Embedding match = FirstEmbedding(a, d, r, {});
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(*match, (std::vector<std::pair<NodeId, int>>{{0, 0}, {1, 1}}));
}

TEST(Embed, MatchesReferenceBacktrackingOnRandomInstances) {
  Rng rng(20240611);
  int found = 0;
  int none = 0;
  for (int instance = 0; instance < 400; ++instance) {
    const int n = 1 + static_cast<int>(rng.NextIndex(10));
    const int cells = 1 + static_cast<int>(rng.NextIndex(16));
    EmbedDomains d;
    d.ii = 1 + static_cast<int>(rng.NextIndex(4));
    Digraph a(n);
    const int edges = static_cast<int>(rng.NextIndex(static_cast<size_t>(2 * n + 1)));
    for (int e = 0; e < edges; ++e) {
      const NodeId from = static_cast<NodeId>(rng.NextIndex(static_cast<size_t>(n)));
      const NodeId to = static_cast<NodeId>(rng.NextIndex(static_cast<size_t>(n)));
      a.AddEdge(from, to);
      if (rng.NextBool(0.1)) a.AddEdge(from, to);  // duplicate
      if (rng.NextBool(0.1)) a.AddEdge(from, from);  // self-loop
    }
    const double capable = 0.3 + 0.7 * rng.NextDouble();
    for (int v = 0; v < n; ++v) {
      d.slot.push_back(static_cast<int>(rng.NextIndex(static_cast<size_t>(d.ii))));
      std::vector<int>& domain = d.cells.emplace_back();
      for (int c = 0; c < cells; ++c) {
        if (rng.NextBool(capable)) domain.push_back(c);
      }
    }
    const double density = 0.2 + 0.7 * rng.NextDouble();
    std::vector<std::vector<bool>> reads(static_cast<size_t>(cells),
                                         std::vector<bool>(static_cast<size_t>(cells)));
    for (auto& row : reads) {
      for (size_t p = 0; p < row.size(); ++p) row[p] = rng.NextBool(density);
    }
    const Embedding expected = ReferenceEmbedding(a, d, reads);
    const Embedding got = FirstEmbedding(a, d, ToCellReads(reads), {});
    ASSERT_EQ(got.has_value(), expected.has_value()) << "instance " << instance;
    if (expected) {
      EXPECT_EQ(*got, *expected) << "instance " << instance;
      ++found;
    } else {
      ++none;
    }
  }
  // Both outcomes are well represented.
  EXPECT_GE(found, 100);
  EXPECT_GE(none, 100);
}

// Twelve isolated nodes on eleven cells in one slot: no embedding, and
// 11! leaves to disprove it without a pigeonhole argument.
struct Pigeonhole {
  Digraph a{12};
  EmbedDomains d;
  CellReads reads{11};
  Pigeonhole() {
    d.slot.assign(12, 0);
    d.cells.assign(12, std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  }
};

TEST(Embed, DeadlineLatches) {
  const Pigeonhole p;
  EmbedLimits limits;
  limits.deadline = Deadline::AfterSeconds(0.05);
  WallTimer timer;
  EXPECT_FALSE(FirstEmbedding(p.a, p.d, p.reads, limits).has_value());
  EXPECT_LT(timer.Seconds(), 0.5);
}

TEST(Embed, StopTokenLatches) {
  const Pigeonhole p;
  StopSource source;
  source.RequestStop();
  EmbedLimits limits;
  limits.stop = source.token();
  WallTimer timer;
  EXPECT_FALSE(FirstEmbedding(p.a, p.d, p.reads, limits).has_value());
  EXPECT_LT(timer.Seconds(), 0.5);
}

TEST(Partition, BalancedBisection) {
  Rng rng(1);
  const Digraph g = Chain(10);
  const auto part = KernighanLinBipartition(g, rng);
  int zeros = 0;
  for (int p : part) zeros += p == 0 ? 1 : 0;
  EXPECT_GE(zeros, 4);
  EXPECT_LE(zeros, 6);
  // A chain's optimal cut is 1.
  EXPECT_LE(CutSize(g, part), 3);
}

TEST(Partition, RecursiveFourWay) {
  Rng rng(2);
  const Digraph g = Chain(16);
  const auto part = RecursiveBisection(g, 4, rng);
  std::set<int> ids(part.begin(), part.end());
  EXPECT_LE(*std::max_element(part.begin(), part.end()), 3);
  EXPECT_EQ(ids.size(), 4u);
}

TEST(Layout, KeepsNodesInArea) {
  Rng rng(5);
  const Digraph g = Chain(6);
  LayoutOptions opts;
  opts.area_width = 4;
  opts.area_height = 4;
  const auto pos = ForceDirectedLayout(g, rng, opts);
  for (const auto& p : pos) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 4.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 4.0);
  }
}

TEST(Layout, ConnectedNodesCloserThanAverage) {
  Rng rng(6);
  Digraph g(8);
  g.AddEdge(0, 1);  // a single tight pair among loose nodes
  LayoutOptions opts;
  opts.iterations = 500;
  const auto pos = ForceDirectedLayout(g, rng, opts);
  auto dist = [&](int a, int b) {
    const double dx = pos[static_cast<size_t>(a)].x - pos[static_cast<size_t>(b)].x;
    const double dy = pos[static_cast<size_t>(a)].y - pos[static_cast<size_t>(b)].y;
    return dx * dx + dy * dy;
  };
  double avg = 0;
  int pairs = 0;
  for (int i = 0; i < 8; ++i) {
    for (int j = i + 1; j < 8; ++j) {
      avg += dist(i, j);
      ++pairs;
    }
  }
  avg /= pairs;
  EXPECT_LT(dist(0, 1), avg);
}

}  // namespace
}  // namespace cgra
