#include "engine/quarantine.hpp"

#include <algorithm>
#include <chrono>

namespace cgra {

QuarantineTracker::QuarantineTracker(QuarantinePolicy policy)
    : policy_(policy) {}

double QuarantineTracker::NowSeconds() const {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void QuarantineTracker::PruneWindow(State& s, double now) const {
  while (!s.crash_times.empty() &&
         now - s.crash_times.front() > policy_.window_seconds) {
    s.crash_times.pop_front();
  }
}

bool QuarantineTracker::RecordCrash(const std::string& mapper) {
  const double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  State& s = states_[mapper];
  if (s.quarantined && now < s.release_at) {
    // Already benched (a racing attempt started before the bench):
    // don't double-count.
    return false;
  }
  PruneWindow(s, now);
  s.crash_times.push_back(now);
  if (static_cast<int>(s.crash_times.size()) < policy_.crash_threshold) {
    return false;
  }
  // Benched. Exponential backoff on the trip count, so a mapper that
  // crashes straight through its probation sits out longer each time.
  ++s.trips;
  double backoff = policy_.base_backoff_seconds;
  for (int i = 1; i < s.trips && backoff < policy_.max_backoff_seconds; ++i) {
    backoff *= 2.0;
  }
  backoff = std::min(backoff, policy_.max_backoff_seconds);
  s.quarantined = true;
  s.release_at = now + backoff;
  s.crash_times.clear();
  return true;
}

void QuarantineTracker::RecordSuccess(const std::string& mapper) {
  std::lock_guard<std::mutex> lock(mu_);
  states_.erase(mapper);
}

bool QuarantineTracker::IsQuarantined(const std::string& mapper,
                                      double* remaining_seconds) {
  if (remaining_seconds) *remaining_seconds = 0.0;
  const double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = states_.find(mapper);
  if (it == states_.end()) return false;
  State& s = it->second;
  if (!s.quarantined) return false;
  if (now >= s.release_at) {
    // Probation: free to run again, but the trip count stays so the
    // next bench doubles.
    s.quarantined = false;
    s.release_at = 0.0;
    return false;
  }
  if (remaining_seconds) *remaining_seconds = s.release_at - now;
  return true;
}

bool QuarantineTracker::HasCrashHistory(const std::string& mapper) {
  const double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = states_.find(mapper);
  if (it == states_.end()) return false;
  State& s = it->second;
  PruneWindow(s, now);
  return s.quarantined || s.trips > 0 || !s.crash_times.empty();
}

std::vector<QuarantineTracker::Snapshot> QuarantineTracker::Dump() {
  const double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Snapshot> out;
  out.reserve(states_.size());
  for (auto& [name, s] : states_) {
    PruneWindow(s, now);
    Snapshot snap;
    snap.mapper = name;
    snap.recent_crashes = static_cast<int>(s.crash_times.size());
    snap.trips = s.trips;
    snap.quarantined = s.quarantined && now < s.release_at;
    snap.release_in_seconds = snap.quarantined ? s.release_at - now : 0.0;
    out.push_back(std::move(snap));
  }
  std::sort(out.begin(), out.end(),
            [](const Snapshot& a, const Snapshot& b) {
              return a.mapper < b.mapper;
            });
  return out;
}

QuarantineTracker& QuarantineTracker::Global() {
  static QuarantineTracker* tracker = new QuarantineTracker();
  return *tracker;
}

}  // namespace cgra
