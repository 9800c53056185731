// Span tracing: the "where did the time go" half of the telemetry
// subsystem (metrics.hpp is the "how often / how big" half).
//
// A Span is an RAII bracket around one unit of work — a batch job, an
// engine run, a mapper, an II attempt, a place/route phase, a solver
// search, a cache probe, a pool task. Spans nest (a thread-local depth
// counter), carry the calling thread's id and a steady-clock duration,
// and are recorded into a lock-free single-producer ring buffer owned
// by the emitting thread. A process-wide TraceSink registers every
// thread's ring and drains them all into one event list, which
// chrome_trace.hpp serialises as Chrome trace-event JSON loadable in
// chrome://tracing or Perfetto (docs/OBSERVABILITY.md documents the
// span taxonomy and the file schema).
//
// Cost model:
//   * Disabled (the default): each Span costs one relaxed atomic load.
//   * Enabled: two steady_clock reads plus one ring-buffer store per
//     span; no locks, no allocation on the hot path (thread
//     registration allocates once per thread).
//
// Correlation: NewCorrelation() mints process-unique ids; a Span may
// carry one, nested spans inherit it, and the mapper attempt brackets
// stamp the same id on their MapEvent so a MapTrace row can be joined
// against the spans (and metrics) behind it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

namespace cgra::telemetry {

/// One finished span. A fixed-size POD so the per-thread rings never
/// allocate; names and details are truncated to fit (span names are
/// short compile-time constants by convention).
struct SpanRecord {
  char name[32] = {};    ///< taxonomy name, e.g. "engine.run"
  char detail[40] = {};  ///< free-form qualifier, e.g. "ims ii=4"
  std::uint64_t start_ns = 0;     ///< steady ns since the sink anchor
  std::uint64_t dur_ns = 0;       ///< span duration
  std::uint64_t correlation = 0;  ///< 0 = none
  std::uint32_t tid = 0;          ///< dense per-process thread index
  std::uint32_t depth = 0;        ///< nesting depth at span open
};

/// Process-wide runtime gate. Off by default; cgra_batch --trace and
/// the tests flip it. Reads are relaxed: a span that straddles the
/// flip is recorded or not, both fine.
bool Enabled();
void SetEnabled(bool enabled);

/// Steady nanoseconds since the TraceSink's anchor (process start).
std::uint64_t NowNs();

/// Mints a process-unique nonzero correlation id.
std::uint64_t NewCorrelation();

/// The correlation id of the innermost enclosing span that set one
/// (0 when none). Used to stamp MapEvents emitted inside a span.
std::uint64_t CurrentCorrelation();

/// The calling thread's dense telemetry thread index.
std::uint32_t CurrentThreadId();

/// The process-wide collector. Each thread's first span registers a
/// ring buffer here; Drain() snapshots every ring's unread records
/// (safe to call while other threads keep emitting — each ring is
/// single-producer single-consumer with acquire/release indices).
class TraceSink {
 public:
  static TraceSink& Global();

  /// Moves every unread record out of every thread ring, in no
  /// particular global order (per-thread order is preserved).
  std::vector<SpanRecord> Drain();

  /// Records dropped on ring overflow since the last Clear().
  std::uint64_t dropped() const;

  /// Wall-clock microseconds since the Unix epoch at the steady
  /// anchor, so exported steady timestamps can be pinned to wall time.
  std::int64_t wall_anchor_micros() const;

  /// Discards all unread records and resets the drop counter (test
  /// isolation; emitting threads may race a Clear harmlessly).
  void Clear();

  // Internal: the per-thread ring. SPSC — the owning thread writes,
  // Drain()/Clear() read under the sink's registry lock.
  struct ThreadRing {
    static constexpr std::size_t kCapacity = 1 << 14;  // 16384 records
    std::vector<SpanRecord> ring{kCapacity};
    std::atomic<std::uint64_t> head{0};  ///< records written (producer)
    std::atomic<std::uint64_t> tail{0};  ///< records consumed (drainer)
    std::atomic<std::uint64_t> dropped{0};
    std::uint32_t tid = 0;
  };

  /// The calling thread's ring, registered on first use.
  ThreadRing& LocalRing();

 private:
  TraceSink();

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<ThreadRing>> rings_;
  std::atomic<std::uint32_t> next_tid_{0};
  std::int64_t wall_anchor_micros_ = 0;
};

/// Records a span with explicit endpoints (for spans whose start was
/// measured elsewhere, e.g. queue wait measured from Submit time).
void RecordSpan(const char* name, std::string_view detail,
                std::uint64_t start_ns, std::uint64_t end_ns,
                std::uint64_t correlation = 0);

/// RAII span. Construction is a no-op when tracing is disabled.
class Span {
 public:
  explicit Span(const char* name) : Span(name, {}, 0) {}
  /// `correlation`: nonzero installs the id as the thread's current
  /// correlation for the span's extent; 0 inherits the enclosing one.
  Span(const char* name, std::string_view detail,
       std::uint64_t correlation = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// The id this span carries (inherited or installed); 0 when the
  /// span is inactive (tracing disabled at construction).
  std::uint64_t correlation() const { return correlation_; }

 private:
  const char* name_ = nullptr;
  char detail_[40] = {};
  std::uint64_t start_ns_ = 0;
  std::uint64_t correlation_ = 0;
  std::uint64_t saved_correlation_ = 0;
  bool active_ = false;
  bool restore_correlation_ = false;
};

}  // namespace cgra::telemetry
