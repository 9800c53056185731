#include "mapping/router.hpp"

#include <algorithm>
#include <cassert>
#include <climits>
#include <queue>
#include <span>

#include "mapping/perf.hpp"

namespace cgra {
namespace {

// Unit cost per occupied (node, time) step, and the per-query
// expansion cap (RouterOptions documents both). Costs are whole steps,
// so every cost and bound below is an exact integer.
constexpr std::int32_t kStepCost = 1;
constexpr int kMaxExpansions = 1 << 18;

constexpr const char* kNoRoute =
    "no capacity-respecting route of the required latency";

// Search state. `stay` counts consecutive cycles already spent in
// `node`; it bounds how many entries one path may stack onto a single
// (node, slot) pair — without it a long wait in one register file
// could silently exceed the file's capacity (each II wrap is another
// live copy).
struct State {
  std::int32_t f;  ///< g + admissible remaining-cost bound (== g without A*)
  std::int32_t g;  ///< cost so far
  std::int32_t node;
  std::int32_t time;
  std::int32_t stay;
};

struct StateCmp {
  bool operator()(const State& a, const State& b) const { return a.f > b.f; }
};

// priority_queue subclass that exposes its container, so the heap
// storage can be recycled across queries instead of reallocating.
class StateQueue
    : public std::priority_queue<State, std::vector<State>, StateCmp> {
 public:
  explicit StateQueue(std::vector<State>&& storage)
      : priority_queue(StateCmp{}, std::move(storage)) {}
  std::vector<State> TakeStorage() {
    c.clear();
    return std::move(c);
  }
};

// Per-thread scratch arena: flat best/parent vectors indexed by the
// packed (node, time - start, stay) state, plus per-node goal marks
// and cached A* hop bounds. Every entry is stamped with the query epoch
// — it belongs to the current query iff stamp == epoch — so reuse
// across queries (and across II-escalation retries inside one mapper
// run) needs no clearing and can never leak a stale parent chain, goal
// or bound into a later route.
struct Scratch {
  std::vector<std::int32_t> best;         ///< cost (steps) of the best path
  std::vector<std::int32_t> parent;      ///< arena index of predecessor, -1 root
  std::vector<std::uint32_t> stamp;      ///< per-state epoch
  std::vector<std::uint32_t> goal_stamp; ///< per-node: a goal of this query
  std::vector<std::uint32_t> hop_stamp;  ///< per-node: hop_lb cache validity
  std::vector<std::int32_t> hop_lb;      ///< per-node cached hops-to-goal bound
  std::vector<State> heap_storage;
  std::uint32_t epoch = 0;

  /// Starts a query: bumps the epoch (clearing every stamp on the rare
  /// uint32 wrap) and guarantees capacity for `states` packed states
  /// and `nodes` per-node entries. Returns true when the arena had to
  /// (re)allocate, false when the warm arrays were reused as-is.
  bool Begin(std::size_t states, std::size_t nodes) {
    if (++epoch == 0) {
      std::fill(stamp.begin(), stamp.end(), 0u);
      std::fill(goal_stamp.begin(), goal_stamp.end(), 0u);
      std::fill(hop_stamp.begin(), hop_stamp.end(), 0u);
      epoch = 1;
    }
    bool grew = false;
    if (states > best.size()) {
      best.resize(states);
      parent.resize(states);
      stamp.resize(states, 0u);  // new stamps start invalid
      grew = true;
    }
    if (nodes > goal_stamp.size()) {
      goal_stamp.resize(nodes, 0u);
      hop_stamp.resize(nodes, 0u);
      hop_lb.resize(nodes, 0);
    }
    return grew;
  }
};

Scratch& TlsScratch() {
  static thread_local Scratch scratch;
  return scratch;
}

int SlotOf(int time, int ii) { return ((time % ii) + ii) % ii; }

// False when no goal can be reached in `cycles` cycles from the
// producer's hold `start_node`: every cell hop costs exactly one cycle
// (hold -0-> neighbour RT -1-> hold, arch/mrrg.cpp), so a goal more
// fabric hops away than the window has cycles is out of reach — the
// bound A* prunes with per state, applied once at the root. Goals the
// producer cannot reach at all (distance -1) count as out of reach.
// Shared-RF holds (cell < 0) give no bound, so they are always
// "within reach".
bool GoalWithinHops(const Mrrg& mrrg, int start_node,
                    std::span<const std::int32_t> goals, int cycles) {
  const int from = mrrg.cell(start_node);
  if (from < 0) return true;
  const Architecture& arch = mrrg.arch();
  for (const std::int32_t g : goals) {
    const int gcell = mrrg.cell(g);
    if (gcell < 0) return true;
    const int hops = arch.HopDistance(from, gcell);
    if (hops >= 0 && hops <= cycles) return true;
  }
  return false;
}

}  // namespace

bool WithinReach(const Mrrg& mrrg, const RouteRequest& request) {
  const int start_time = request.from_time + 1;
  return start_time <= request.to_time &&
         GoalWithinHops(mrrg, mrrg.HoldNode(request.from_cell),
                        mrrg.ReadableHolds(request.to_cell),
                        request.to_time - start_time);
}

Result<Route> RouteValue(const Mrrg& mrrg, ResourceTracker& tracker,
                         const RouteRequest& request,
                         const RouterOptions& options) {
  PerfCounters& perf = ThreadPerfCounters();
  ++perf.router_queries;

  const int ii = tracker.ii();
  const int start_time = request.from_time + 1;
  if (start_time > request.to_time) {
    return Error::Unmappable("consumer issues before the producer's latch");
  }
  const int start_node = mrrg.HoldNode(request.from_cell);
  if (!options.ignore_capacity &&
      !tracker.CanOccupy(start_node, start_time, request.value)) {
    return Error::Unmappable("producer's register file is full at the latch cycle");
  }
  // A query no goal can make in time fails without touching the arena
  // or the heap. Only queries that cannot succeed stop here, so every
  // other query runs the identical search.
  const auto goals = mrrg.ReadableHolds(request.to_cell);
  if (!GoalWithinHops(mrrg, start_node, goals, request.to_time - start_time)) {
    return Error::Unmappable(kNoRoute);
  }

  // ---- arena layout for this query ----------------------------------------
  // State index = (node * horizon + (time - start_time)) * stay_bins + stay.
  // `stay` is bounded by the tightest of: the time window itself (each
  // waited cycle advances time), and — when capacities apply — the
  // largest chain any register file can hold, ceil-free form
  // max_capacity * II (a chain of that length already occupies every
  // capacity unit of its slot).
  const int num_nodes = mrrg.num_nodes();
  const int horizon = request.to_time - start_time + 1;
  const int stay_bins =
      options.ignore_capacity
          ? horizon
          : std::max(1, std::min(horizon, mrrg.max_capacity() * ii));
  const std::size_t states = static_cast<std::size_t>(num_nodes) *
                             static_cast<std::size_t>(horizon) *
                             static_cast<std::size_t>(stay_bins);
  assert(states < static_cast<std::size_t>(INT32_MAX) &&
         "route window too large for the int32 parent arena");

  Scratch& scratch = TlsScratch();
  if (scratch.Begin(states, static_cast<std::size_t>(num_nodes))) {
    ++perf.arena_grows;
  } else {
    ++perf.arena_reuses;
  }
  const std::uint32_t epoch = scratch.epoch;

  auto index = [&](int node, int time, int stay) -> std::size_t {
    return (static_cast<std::size_t>(node) * static_cast<std::size_t>(horizon) +
            static_cast<std::size_t>(time - start_time)) *
               static_cast<std::size_t>(stay_bins) +
           static_cast<std::size_t>(stay);
  };

  for (int g : goals) scratch.goal_stamp[static_cast<std::size_t>(g)] = epoch;

  // ---- admissible A* bound -------------------------------------------------
  // Every remaining step costs kStepCost, every step advances time by
  // at most one cycle, and reaching a goal cell from `node`'s cell
  // needs at least the fabric hop distance in both steps and cycles.
  // Shared-RF nodes (cell < 0) contribute no hop bound.
  auto goal_hops = [&](int node) -> int {
    std::uint32_t& cached = scratch.hop_stamp[static_cast<std::size_t>(node)];
    if (cached == epoch) {
      return scratch.hop_lb[static_cast<std::size_t>(node)];
    }
    int bound = 0;
    const int cell = mrrg.cell(node);
    if (cell >= 0) {
      const Architecture& arch = mrrg.arch();
      bound = INT_MAX;
      for (int g : goals) {
        const int gcell = mrrg.cell(g);
        if (gcell < 0) {
          bound = 0;
          break;
        }
        bound = std::min(bound, arch.HopDistance(cell, gcell));
      }
      if (bound == INT_MAX) bound = 0;
    }
    cached = epoch;
    scratch.hop_lb[static_cast<std::size_t>(node)] = bound;
    return bound;
  };
  const bool use_h = options.use_heuristic;
  auto heuristic = [&](int node, int time) -> std::int32_t {
    if (!use_h) return 0;
    const int lb = std::max(request.to_time - time, goal_hops(node));
    return kStepCost * lb;
  };

  // True when a consecutive chain of `chain_len` cycles ending at
  // (node, end_time) fits the capacity of every slot it touches,
  // together with the existing tracker load. The chain hits the slot
  // of `end_time` exactly floor((chain_len - 1) / ii) + 1 times.
  auto chain_fits = [&](int node, int end_time, int chain_len) {
    if (options.ignore_capacity) return true;
    const int hits = (chain_len - 1) / ii + 1;
    return tracker.Load(node, SlotOf(end_time, ii)) + hits <=
           mrrg.capacity(node);
  };

  // Admission of a new (node, time) step: tracker.CanOccupy inlined,
  // its check and hit counts summed here and added once per query.
  std::uint64_t checks = 0, admitted = 0;
  auto admits = [&](int node, int time) {
    ++checks;
    const int slot = SlotOf(time, ii);
    const bool ok = tracker.AvailBit(node, slot) ||
                    tracker.AdmitsWhenFull(node, slot, time, request.value);
    if (ok) ++admitted;
    return ok;
  };

  std::uint64_t pushes = 0, pops = 0;
  const std::size_t start_idx = index(start_node, start_time, 0);
  scratch.best[start_idx] = kStepCost;
  scratch.parent[start_idx] = -1;
  scratch.stamp[start_idx] = epoch;
  StateQueue pq(std::move(scratch.heap_storage));
  pq.push(State{scratch.best[start_idx] + heuristic(start_node, start_time),
                scratch.best[start_idx], start_node, start_time, 0});
  ++pushes;

  int expansions = 0;
  std::int64_t goal_idx = -1;

  while (!pq.empty()) {
    const State s = pq.top();
    pq.pop();
    ++pops;
    const std::size_t k = index(s.node, s.time, s.stay);
    if (scratch.stamp[k] != epoch || scratch.best[k] < s.g) continue;
    if (s.time == request.to_time &&
        scratch.goal_stamp[static_cast<std::size_t>(s.node)] == epoch) {
      goal_idx = static_cast<std::int64_t>(k);
      break;
    }
    if (++expansions > kMaxExpansions) break;
    for (const Mrrg::Link& link : mrrg.OutLinks(s.node)) {
      const int nt = s.time + link.latency;
      if (nt > request.to_time) continue;
      const bool self_stay = link.to == s.node;
      const int nstay = self_stay ? s.stay + 1 : 0;
      if (self_stay) {
        // The whole consecutive chain (nstay + 1 cycles) must fit.
        if (!chain_fits(link.to, nt, nstay + 1)) continue;
      } else if (!options.ignore_capacity && !admits(link.to, nt)) {
        continue;
      }
      // A state that still needs more fabric hops than it has cycles
      // left can never make the consumer's deadline; drop it early.
      if (use_h && goal_hops(link.to) > request.to_time - nt) continue;
      assert(nstay < stay_bins);
      const std::int32_t nc = s.g + kStepCost;
      const std::size_t nk = index(link.to, nt, nstay);
      if (scratch.stamp[nk] != epoch || nc < scratch.best[nk]) {
        scratch.stamp[nk] = epoch;
        scratch.best[nk] = nc;
        scratch.parent[nk] = static_cast<std::int32_t>(k);
        pq.push(State{nc + heuristic(link.to, nt), nc, link.to, nt, nstay});
        ++pushes;
      }
    }
  }

  scratch.heap_storage = pq.TakeStorage();
  perf.router_pushes += pushes;
  perf.router_pops += pops;
  perf.router_expansions += static_cast<std::uint64_t>(expansions);
  perf.tracker_checks += checks;
  perf.tracker_check_hits += admitted;

  if (goal_idx < 0) {
    return Error::Unmappable(kNoRoute);
  }

  // Every step costs one unit, so the goal's cost sizes the route; the
  // parent chain is never longer, and is shorter only when an A* bound
  // re-opened an ancestor after the goal's parent link was set.
  Route route;
  route.steps.resize(
      static_cast<std::size_t>(scratch.best[static_cast<std::size_t>(goal_idx)]));
  std::size_t first = route.steps.size();
  const std::size_t plane = static_cast<std::size_t>(stay_bins);
  for (std::int64_t k = goal_idx; k >= 0;
       k = scratch.parent[static_cast<std::size_t>(k)]) {
    const std::size_t uk = static_cast<std::size_t>(k);
    const int node = static_cast<int>(uk / (plane * static_cast<std::size_t>(horizon)));
    const int time =
        start_time + static_cast<int>((uk / plane) % static_cast<std::size_t>(horizon));
    assert(first > 0);
    route.steps[--first] = RouteStep{node, time};
  }
  route.steps.erase(route.steps.begin(),
                    route.steps.begin() + static_cast<std::ptrdiff_t>(first));

  if (!options.ignore_capacity) {
    for (const RouteStep& step : route.steps) {
      tracker.Occupy(step.node, step.time, request.value);
    }
    // Defence in depth: non-consecutive revisits of a node are not
    // covered by the stay counter; verify the committed load and back
    // out if anything overflowed.
    for (const RouteStep& step : route.steps) {
      if (tracker.Load(step.node, SlotOf(step.time, ii)) >
          mrrg.capacity(step.node)) {
        ReleaseRoute(tracker, route, request.value);
        return Error::Unmappable("route would overflow a register file");
      }
    }
  }
  ++perf.router_routed;
  return route;
}

void ReleaseRoute(ResourceTracker& tracker, const Route& route, ValueId value) {
  for (const RouteStep& step : route.steps) {
    tracker.Release(step.node, step.time, value);
  }
}

namespace router_internal {

ScratchStats CurrentScratchStats() {
  const Scratch& scratch = TlsScratch();
  ScratchStats stats;
  stats.epoch = scratch.epoch;
  stats.capacity = scratch.best.size();
  return stats;
}

void ResetScratchForTest() { TlsScratch() = Scratch{}; }

void SetEpochForTest(std::uint32_t epoch) { TlsScratch().epoch = epoch; }

}  // namespace router_internal

}  // namespace cgra
