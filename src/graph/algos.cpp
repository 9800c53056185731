#include "graph/algos.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <queue>

namespace cgra {

std::optional<std::vector<NodeId>> TopologicalOrder(const Digraph& g) {
  const int n = g.num_nodes();
  std::vector<int> indeg(static_cast<size_t>(n), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    ++indeg[static_cast<size_t>(g.edge(e).to)];
  }
  std::queue<NodeId> ready;
  for (NodeId v = 0; v < n; ++v) {
    if (indeg[static_cast<size_t>(v)] == 0) ready.push(v);
  }
  std::vector<NodeId> order;
  order.reserve(static_cast<size_t>(n));
  while (!ready.empty()) {
    const NodeId v = ready.front();
    ready.pop();
    order.push_back(v);
    for (EdgeId e : g.out_edges(v)) {
      if (--indeg[static_cast<size_t>(g.edge(e).to)] == 0) {
        ready.push(g.edge(e).to);
      }
    }
  }
  if (static_cast<int>(order.size()) != n) return std::nullopt;
  return order;
}

std::vector<std::int64_t> DagLongestPathToSinks(
    const Digraph& g, const std::vector<std::int64_t>& edge_weight) {
  auto order = TopologicalOrder(g);
  assert(order.has_value() && "graph must be acyclic");
  std::vector<std::int64_t> dist(static_cast<size_t>(g.num_nodes()), 0);
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    const NodeId v = *it;
    for (EdgeId e : g.out_edges(v)) {
      const NodeId w = g.edge(e).to;
      dist[static_cast<size_t>(v)] = std::max(
          dist[static_cast<size_t>(v)],
          dist[static_cast<size_t>(w)] + edge_weight[static_cast<size_t>(e)]);
    }
  }
  return dist;
}

}  // namespace cgra
