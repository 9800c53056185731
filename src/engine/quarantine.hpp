// Per-mapper crash quarantine for the portfolio engine.
//
// A mapper that SIGSEGVs once will usually SIGSEGV again on the next
// request: the bug is in the code, not the input. With isolation on,
// each crash costs a forked child, a watchdog wait, and (for wedged
// mappers) the full wall deadline — multiplied by every request that
// includes the offender in its portfolio. The QuarantineTracker keeps
// repeat offenders out without operator intervention: crashes are
// counted in a sliding window, crossing the threshold benches the
// mapper, and re-admission backs off exponentially so a mapper that
// keeps crashing on probation is benched for longer each time. One
// clean completion clears its record entirely.
//
// Thread-safe; one process-wide instance (Global()) is shared by every
// engine so quarantine state survives across requests in cgra_serve.
// Tests and embedders may build private trackers and point
// EngineOptions::quarantine at them.
#pragma once

#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace cgra {

struct QuarantinePolicy {
  /// Crashes within `window_seconds` before the mapper is benched.
  int crash_threshold = 3;
  double window_seconds = 60.0;

  /// First quarantine lasts `base_backoff_seconds`; each subsequent
  /// trip doubles it, capped at `max_backoff_seconds`.
  double base_backoff_seconds = 5.0;
  double max_backoff_seconds = 300.0;
};

class QuarantineTracker {
 public:
  explicit QuarantineTracker(QuarantinePolicy policy = {});

  /// Records a fatal outcome (signal / OOM / wire corruption /
  /// unexplained exit, or an in-process kInternal crash). Returns true
  /// when THIS crash tripped the threshold and benched the mapper.
  bool RecordCrash(const std::string& mapper);

  /// A clean completion is a full pardon: crash history and backoff
  /// state are erased.
  void RecordSuccess(const std::string& mapper);

  /// True while the mapper is benched. When the backoff has elapsed
  /// the mapper is re-admitted on probation: this returns false again,
  /// but the trip count is retained so the next bench doubles.
  /// `remaining_seconds`, when non-null, receives the time left on the
  /// bench (0 when not quarantined).
  bool IsQuarantined(const std::string& mapper,
                     double* remaining_seconds = nullptr);

  /// True when the mapper has any crash on record (recent crashes, an
  /// active bench, or prior trips). The kCrashyOnly isolation mode
  /// uses this to decide which mappers get a sandbox.
  bool HasCrashHistory(const std::string& mapper);

  struct Snapshot {
    std::string mapper;
    int recent_crashes = 0;   ///< crashes inside the current window
    int trips = 0;            ///< times this mapper was benched
    bool quarantined = false;
    double release_in_seconds = 0.0;  ///< bench time left (0 if free)
  };
  std::vector<Snapshot> Dump();

  const QuarantinePolicy& policy() const { return policy_; }

  /// The process-wide tracker shared by cgra_serve request engines.
  static QuarantineTracker& Global();

 private:
  struct State {
    std::deque<double> crash_times;  ///< seconds on the tracker's clock
    int trips = 0;
    bool quarantined = false;
    double release_at = 0.0;
  };

  double NowSeconds() const;
  void PruneWindow(State& s, double now) const;

  QuarantinePolicy policy_;
  std::mutex mu_;
  std::unordered_map<std::string, State> states_;
};

}  // namespace cgra
