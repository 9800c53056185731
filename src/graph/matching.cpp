#include <cstddef>
#include "graph/matching.hpp"

#include <cassert>
#include <limits>

namespace cgra {

std::vector<int> HungarianAssign(
    const std::vector<std::vector<std::int64_t>>& cost) {
  const int n = static_cast<int>(cost.size());
  if (n == 0) return {};
  const int m = static_cast<int>(cost[0].size());
  assert(n <= m);

  // Classic O(n^2 m) potentials formulation (1-indexed internally).
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
  std::vector<std::int64_t> u(static_cast<size_t>(n + 1), 0),
      v(static_cast<size_t>(m + 1), 0);
  std::vector<int> p(static_cast<size_t>(m + 1), 0), way(static_cast<size_t>(m + 1), 0);
  for (int i = 1; i <= n; ++i) {
    p[0] = i;
    int j0 = 0;
    std::vector<std::int64_t> minv(static_cast<size_t>(m + 1), kInf);
    std::vector<bool> used(static_cast<size_t>(m + 1), false);
    do {
      used[static_cast<size_t>(j0)] = true;
      const int i0 = p[static_cast<size_t>(j0)];
      std::int64_t delta = kInf;
      int j1 = -1;
      for (int j = 1; j <= m; ++j) {
        if (used[static_cast<size_t>(j)]) continue;
        const std::int64_t cur = cost[static_cast<size_t>(i0 - 1)][static_cast<size_t>(j - 1)] -
                                 u[static_cast<size_t>(i0)] - v[static_cast<size_t>(j)];
        if (cur < minv[static_cast<size_t>(j)]) {
          minv[static_cast<size_t>(j)] = cur;
          way[static_cast<size_t>(j)] = j0;
        }
        if (minv[static_cast<size_t>(j)] < delta) {
          delta = minv[static_cast<size_t>(j)];
          j1 = j;
        }
      }
      if (j1 < 0 || delta >= kInf) return {};  // infeasible
      for (int j = 0; j <= m; ++j) {
        if (used[static_cast<size_t>(j)]) {
          u[static_cast<size_t>(p[static_cast<size_t>(j)])] += delta;
          v[static_cast<size_t>(j)] -= delta;
        } else {
          minv[static_cast<size_t>(j)] -= delta;
        }
      }
      j0 = j1;
    } while (p[static_cast<size_t>(j0)] != 0);
    do {
      const int j1 = way[static_cast<size_t>(j0)];
      p[static_cast<size_t>(j0)] = p[static_cast<size_t>(j1)];
      j0 = j1;
    } while (j0);
  }

  std::vector<int> assign(static_cast<size_t>(n), -1);
  for (int j = 1; j <= m; ++j) {
    if (p[static_cast<size_t>(j)] > 0) assign[static_cast<size_t>(p[static_cast<size_t>(j)] - 1)] = j - 1;
  }
  // Reject assignments that had to use a forbidden pair.
  for (int i = 0; i < n; ++i) {
    if (assign[static_cast<size_t>(i)] < 0 ||
        cost[static_cast<size_t>(i)][static_cast<size_t>(assign[static_cast<size_t>(i)])] >=
            kInfeasibleAssign) {
      return {};
    }
  }
  return assign;
}

}  // namespace cgra
