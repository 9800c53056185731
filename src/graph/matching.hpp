// Minimum-cost bipartite assignment.
//
// Binding is a bipartite relation between operations and cells; the
// Hungarian algorithm finds a minimum-cost binding when cells have
// placement costs (graph-drawing legalises its layout with it).
#pragma once

#include <cstdint>
#include <vector>

namespace cgra {

/// Minimum-cost perfect assignment on an n_left x n_right cost matrix
/// (n_left <= n_right). cost[l][r] = kInfeasibleAssign forbids the pair.
/// Returns assignment per left vertex, or empty if infeasible.
inline constexpr std::int64_t kInfeasibleAssign = (1ll << 40);
std::vector<int> HungarianAssign(
    const std::vector<std::vector<std::int64_t>>& cost);

}  // namespace cgra
