// A plain directed graph over dense integer node ids.
//
// The IR (DFG/CDFG), the architecture routing graph, the MRRG, and the
// auxiliary graphs built by the graph-theoretic mappers (compatibility
// graphs, product graphs) all sit on top of this structure; payloads
// live in parallel arrays owned by the client (Per.16: compact data).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cgra {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;

inline constexpr NodeId kNoNode = -1;

class Digraph {
 public:
  struct Edge {
    NodeId from = kNoNode;
    NodeId to = kNoNode;
  };

  Digraph() = default;
  explicit Digraph(int num_nodes) { Resize(num_nodes); }

  /// Grows the node set to `num_nodes` (never shrinks).
  void Resize(int num_nodes);

  /// Adds a directed edge; parallel edges are allowed.
  EdgeId AddEdge(NodeId from, NodeId to);

  int num_nodes() const { return static_cast<int>(out_.size()); }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  const Edge& edge(EdgeId e) const { return edges_[static_cast<size_t>(e)]; }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Outgoing edge ids of `n`.
  const std::vector<EdgeId>& out_edges(NodeId n) const {
    return out_[static_cast<size_t>(n)];
  }
  /// Incoming edge ids of `n`.
  const std::vector<EdgeId>& in_edges(NodeId n) const {
    return in_[static_cast<size_t>(n)];
  }

  int out_degree(NodeId n) const {
    return static_cast<int>(out_[static_cast<size_t>(n)].size());
  }
  int in_degree(NodeId n) const {
    return static_cast<int>(in_[static_cast<size_t>(n)].size());
  }

  /// Successor node ids (materialised; fine off the hot path).
  std::vector<NodeId> Successors(NodeId n) const;
  std::vector<NodeId> Predecessors(NodeId n) const;

 private:
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> out_;
  std::vector<std::vector<EdgeId>> in_;
};

}  // namespace cgra
