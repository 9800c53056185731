#include <cstddef>
#include "graph/digraph.hpp"

#include <cassert>

namespace cgra {

void Digraph::Resize(int num_nodes) {
  assert(num_nodes >= this->num_nodes());
  out_.resize(static_cast<size_t>(num_nodes));
  in_.resize(static_cast<size_t>(num_nodes));
}

NodeId Digraph::AddNode() {
  out_.emplace_back();
  in_.emplace_back();
  return static_cast<NodeId>(out_.size() - 1);
}

EdgeId Digraph::AddEdge(NodeId from, NodeId to) {
  assert(from >= 0 && from < num_nodes());
  assert(to >= 0 && to < num_nodes());
  const EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{from, to});
  out_[static_cast<size_t>(from)].push_back(id);
  in_[static_cast<size_t>(to)].push_back(id);
  return id;
}

std::vector<NodeId> Digraph::Successors(NodeId n) const {
  std::vector<NodeId> out;
  out.reserve(out_[static_cast<size_t>(n)].size());
  for (EdgeId e : out_[static_cast<size_t>(n)]) out.push_back(edges_[static_cast<size_t>(e)].to);
  return out;
}

std::vector<NodeId> Digraph::Predecessors(NodeId n) const {
  std::vector<NodeId> out;
  out.reserve(in_[static_cast<size_t>(n)].size());
  for (EdgeId e : in_[static_cast<size_t>(n)]) out.push_back(edges_[static_cast<size_t>(e)].from);
  return out;
}

}  // namespace cgra
