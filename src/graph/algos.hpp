// Core graph algorithms used across the mapping flow.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/digraph.hpp"

namespace cgra {

/// Topological order of a DAG (Kahn's algorithm, ready nodes in FIFO
/// order); empty optional if the graph has a cycle.
std::optional<std::vector<NodeId>> TopologicalOrder(const Digraph& g);

/// Longest path lengths to sinks in a DAG with per-edge weights (the
/// height of each node when weights are 1). Precondition: acyclic.
std::vector<std::int64_t> DagLongestPathToSinks(
    const Digraph& g, const std::vector<std::int64_t>& edge_weight);

}  // namespace cgra
