#include "telemetry/telemetry.hpp"

#include <chrono>
#include <cstring>

#include "telemetry/metrics.hpp"

namespace cgra::telemetry {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_correlation{1};

thread_local std::uint32_t tl_depth = 0;
thread_local std::uint64_t tl_correlation = 0;

// The steady anchor every NowNs() is measured from. Initialised on
// first use, which is also when the wall anchor is captured.
std::chrono::steady_clock::time_point SteadyAnchor() {
  static const std::chrono::steady_clock::time_point anchor =
      std::chrono::steady_clock::now();
  return anchor;
}

void CopyTruncated(char* dst, std::size_t cap, std::string_view src) {
  const std::size_t n = src.size() < cap - 1 ? src.size() : cap - 1;
  // An empty view may carry a null data(), which memcpy must not see
  // even for a zero-length copy.
  if (n > 0) std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool enabled) {
  if (enabled) TraceSink::Global();  // pin the anchors before any span
  g_enabled.store(enabled, std::memory_order_relaxed);
}

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - SteadyAnchor())
          .count());
}

std::uint64_t NewCorrelation() {
  return g_next_correlation.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t CurrentCorrelation() { return tl_correlation; }

std::uint32_t CurrentThreadId() {
  return TraceSink::Global().LocalRing().tid;
}

TraceSink::TraceSink() {
  SteadyAnchor();
  wall_anchor_micros_ =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
}

TraceSink& TraceSink::Global() {
  // Leaked on purpose: threads may emit spans during static
  // destruction, and the rings they hold must outlive them.
  static TraceSink* sink = new TraceSink();
  return *sink;
}

TraceSink::ThreadRing& TraceSink::LocalRing() {
  thread_local std::shared_ptr<ThreadRing> ring = [this] {
    auto r = std::make_shared<ThreadRing>();
    std::lock_guard<std::mutex> lock(mu_);
    r->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
    rings_.push_back(r);
    return r;
  }();
  return *ring;
}

std::vector<SpanRecord> TraceSink::Drain() {
  std::vector<std::shared_ptr<ThreadRing>> rings;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rings = rings_;
  }
  std::vector<SpanRecord> out;
  for (const auto& r : rings) {
    const std::uint64_t head = r->head.load(std::memory_order_acquire);
    std::uint64_t tail = r->tail.load(std::memory_order_relaxed);
    for (; tail < head; ++tail) {
      out.push_back(r->ring[tail % ThreadRing::kCapacity]);
    }
    r->tail.store(tail, std::memory_order_release);
  }
  return out;
}

std::uint64_t TraceSink::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& r : rings_) {
    n += r->dropped.load(std::memory_order_relaxed);
  }
  return n;
}

std::int64_t TraceSink::wall_anchor_micros() const {
  return wall_anchor_micros_;
}

void TraceSink::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& r : rings_) {
    r->tail.store(r->head.load(std::memory_order_acquire),
                  std::memory_order_release);
    r->dropped.store(0, std::memory_order_relaxed);
  }
}

namespace {

/// Producer side of the SPSC ring: only the owning thread calls this.
void Push(const SpanRecord& rec) {
  TraceSink::ThreadRing& ring = TraceSink::Global().LocalRing();
  const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
  const std::uint64_t tail = ring.tail.load(std::memory_order_acquire);
  if (head - tail >= TraceSink::ThreadRing::kCapacity) {
    ring.dropped.fetch_add(1, std::memory_order_relaxed);
    // Also a first-class metric: the per-ring counters are only
    // visible in the Chrome-trace export's otherData, but a truncated
    // trace should be detectable from /metrics and aggregate.metrics
    // too. Drops are rare, so the registry lookup cost is irrelevant.
    static Counter& dropped_total = MetricsRegistry::Global().GetCounter(
        "telemetry_dropped_spans_total",
        "span records dropped on per-thread ring-buffer overflow");
    dropped_total.Add();
    return;
  }
  SpanRecord& slot = ring.ring[head % TraceSink::ThreadRing::kCapacity];
  slot = rec;
  slot.tid = ring.tid;
  ring.head.store(head + 1, std::memory_order_release);
}

}  // namespace

void RecordSpan(const char* name, std::string_view detail,
                std::uint64_t start_ns, std::uint64_t end_ns,
                std::uint64_t correlation) {
  if (!Enabled()) return;
  SpanRecord rec;
  CopyTruncated(rec.name, sizeof(rec.name), name);
  CopyTruncated(rec.detail, sizeof(rec.detail), detail);
  rec.start_ns = start_ns;
  rec.dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  rec.correlation = correlation ? correlation : tl_correlation;
  rec.depth = tl_depth;
  Push(rec);
}

Span::Span(const char* name, std::string_view detail,
           std::uint64_t correlation) {
  if (!Enabled()) return;
  active_ = true;
  name_ = name;
  CopyTruncated(detail_, sizeof(detail_), detail);
  if (correlation != 0) {
    saved_correlation_ = tl_correlation;
    tl_correlation = correlation;
    restore_correlation_ = true;
  }
  correlation_ = tl_correlation;
  ++tl_depth;
  start_ns_ = NowNs();
}

Span::~Span() {
  if (!active_) return;
  const std::uint64_t end = NowNs();
  --tl_depth;
  SpanRecord rec;
  CopyTruncated(rec.name, sizeof(rec.name), name_);
  std::memcpy(rec.detail, detail_, sizeof(rec.detail));
  rec.start_ns = start_ns_;
  rec.dur_ns = end - start_ns_;
  rec.correlation = correlation_;
  rec.depth = tl_depth;
  if (restore_correlation_) tl_correlation = saved_correlation_;
  Push(rec);
}

}  // namespace cgra::telemetry
