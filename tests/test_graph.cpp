// Unit and property tests for the graph substrate.
#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "graph/algos.hpp"
#include "graph/digraph.hpp"
#include "graph/layout.hpp"
#include "graph/matching.hpp"
#include "graph/mcs.hpp"
#include "graph/partition.hpp"
#include "support/rng.hpp"

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
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
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

TEST(Topo, IgnoringEdgesBreaksCycle) {
  Digraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  const EdgeId back = g.AddEdge(2, 0);
  std::vector<bool> ignore(static_cast<size_t>(g.num_edges()), false);
  ignore[static_cast<size_t>(back)] = true;
  EXPECT_TRUE(TopologicalOrderIgnoring(g, ignore).has_value());
}

TEST(Scc, FindsComponents) {
  Digraph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);  // {0,1}
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 2);  // {2,3}
  int n = 0;
  const auto comp = StronglyConnectedComponents(g, &n);
  EXPECT_EQ(n, 3);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[4], comp[0]);
}

TEST(LongestPath, ChainLevels) {
  const Digraph g = Chain(4);
  std::vector<std::int64_t> w(static_cast<size_t>(g.num_edges()), 1);
  const auto from = DagLongestPathFromSources(g, w);
  EXPECT_EQ(from[3], 3);
  const auto to = DagLongestPathToSinks(g, w);
  EXPECT_EQ(to[0], 3);
  EXPECT_EQ(to[3], 0);
}

TEST(Bfs, Distances) {
  Digraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  const auto d = BfsDistances(g, 0);
  EXPECT_EQ(d[2], 2);
  EXPECT_EQ(d[3], -1);
}

TEST(Dijkstra, PicksCheaperPath) {
  Digraph g(3);
  const EdgeId direct = g.AddEdge(0, 2);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  const auto sp = Dijkstra(g, 0, [&](EdgeId e) -> std::int64_t {
    return e == direct ? 10 : 1;
  });
  EXPECT_EQ(sp.dist[2], 2);
}

TEST(Dijkstra, NegativeCostDisablesEdge) {
  Digraph g(2);
  g.AddEdge(0, 1);
  const auto sp = Dijkstra(g, 0, [](EdgeId) -> std::int64_t { return -1; });
  EXPECT_EQ(sp.dist[1], -1);
}

TEST(RecMii, SelfLoopDistanceOne) {
  // acc -> acc with latency 1 and distance 1: RecMII = 1.
  Digraph g(1);
  g.AddEdge(0, 0);
  EXPECT_EQ(RecurrenceMii(g, {1}, {1}, 16), 1);
}

TEST(RecMii, TwoOpCycle) {
  // a -> b (same iter), b -> a (distance 1): cycle latency 2 over
  // distance 1 => RecMII = 2.
  Digraph g(2);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  EXPECT_EQ(RecurrenceMii(g, {1, 1}, {0, 1}, 16), 2);
}

TEST(RecMii, InfeasibleCycleReturnsAboveMax) {
  // Zero-distance cycle can never be scheduled.
  Digraph g(2);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  EXPECT_GT(RecurrenceMii(g, {1, 1}, {0, 0}, 8), 8);
}

TEST(Matching, PerfectOnBipartiteSquare)
{
  // 3 lefts each compatible with 2 rights; a perfect matching exists.
  std::vector<std::vector<int>> adj{{0, 1}, {1, 2}, {0, 2}};
  const auto match = MaxBipartiteMatching(adj, 3);
  std::set<int> used;
  for (int l = 0; l < 3; ++l) {
    ASSERT_GE(match[static_cast<size_t>(l)], 0);
    used.insert(match[static_cast<size_t>(l)]);
  }
  EXPECT_EQ(used.size(), 3u);
}

TEST(Matching, DetectsDeficiency) {
  // Two lefts fighting over one right.
  std::vector<std::vector<int>> adj{{0}, {0}};
  const auto match = MaxBipartiteMatching(adj, 1);
  const int matched = (match[0] >= 0 ? 1 : 0) + (match[1] >= 0 ? 1 : 0);
  EXPECT_EQ(matched, 1);
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

TEST(Mcs, EmbedsChainInGrid) {
  // A 3-chain embeds into a 2x2 cycle graph.
  const Digraph a = Chain(3);
  Digraph b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.AddEdge(3, 0);
  McsOptions opts;
  const auto match = MaxCommonSubgraph(a, b, opts);
  EXPECT_EQ(match.size(), 3u);
}

TEST(Mcs, RespectsNodeCompatibility) {
  const Digraph a = Chain(2);
  Digraph b(2);
  b.AddEdge(0, 1);
  McsOptions opts;
  opts.node_compatible = [](NodeId, NodeId vb) { return vb == 1; };
  // Only one B node is compatible: at most one A node can match.
  const auto match = MaxCommonSubgraph(a, b, opts);
  EXPECT_LE(match.size(), 1u);
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
