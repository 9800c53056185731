// Metrics: named counters, gauges, and fixed-bucket histograms — the
// "how often / how big" half of the telemetry subsystem (telemetry.hpp
// is the "where did the time go" half).
//
// All hot-path operations are single relaxed atomics (Counter::Add,
// Gauge::Set/Add, Histogram::Observe is one atomic per observation
// plus two for sum/count), so instrumented code can update metrics
// unconditionally. Metric objects are registered once by name in a
// MetricsRegistry and live as long as the registry: Get* returns a
// stable reference callers may cache in a function-local static.
//
// Two dump formats:
//   * ToPrometheus(): the Prometheus text exposition format
//     (cumulative `_bucket{le="..."}` histogram lines, `_sum`,
//     `_count`), for scraping or diffing.
//   * ToJson(): a snapshot object embedded in the cgra_batch report
//     (docs/OBSERVABILITY.md documents both schemas and every metric
//     name the repo registers).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cgra::telemetry {

/// Monotonically increasing count.
class Counter {
 public:
  void Add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time level (queue depth, live jobs). Tracks the running
/// value and the high-water mark since the last Reset.
class Gauge {
 public:
  void Set(std::int64_t v) {
    v_.store(v, std::memory_order_relaxed);
    BumpMax(v);
  }
  void Add(std::int64_t d) {
    const std::int64_t now = v_.fetch_add(d, std::memory_order_relaxed) + d;
    BumpMax(now);
  }
  std::int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  std::int64_t Max() const { return max_.load(std::memory_order_relaxed); }
  void Reset() {
    v_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  void BumpMax(std::int64_t v) {
    std::int64_t m = max_.load(std::memory_order_relaxed);
    while (v > m &&
           !max_.compare_exchange_weak(m, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::int64_t> v_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Fixed-bucket histogram. `bounds` are strictly increasing inclusive
/// upper bounds; an observation lands in the first bucket whose bound
/// is >= the value, or in the implicit +Inf overflow bucket. Bucket
/// counts are stored non-cumulative; the Prometheus dump accumulates.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  std::uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the +Inf bucket.
  std::vector<std::uint64_t> BucketCounts() const;
  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  /// Sum stored as fixed-point nanounits to stay a lock-free integer
  /// atomic (double CAS loops on the hot path are not worth exact
  /// float accumulation for telemetry).
  std::atomic<std::int64_t> sum_nano_{0};
};

/// Name → metric, with stable references. One process-wide instance
/// (Global()); tests may build private registries.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates. `help` is kept from the first registration.
  /// For GetHistogram, `bounds` is used only on first registration.
  Counter& GetCounter(const std::string& name, const std::string& help = "");
  Gauge& GetGauge(const std::string& name, const std::string& help = "");
  Histogram& GetHistogram(const std::string& name, std::vector<double> bounds,
                          const std::string& help = "");

  /// Prometheus text exposition format, metrics in name order.
  std::string ToPrometheus() const;

  /// {"counters":{name:value,...},"gauges":{name:{"value":v,"max":m}},
  ///  "histograms":{name:{"bounds":[...],"buckets":[...],
  ///                      "sum":s,"count":n}}}
  std::string ToJson() const;

  /// Zeroes every metric's value; registrations (and references)
  /// survive. Test isolation, not a lifecycle operation.
  void Reset();

 private:
  struct Entry {
    enum class Kind { kCounter, kGauge, kHistogram } kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  /// Sorted by name at dump time; insertion order preserved here.
  std::vector<std::pair<std::string, Entry>> entries_;

  Entry* Find(const std::string& name);
};

/// Registers the build_info gauge family in the global registry
/// (idempotent; re-registration just re-sets the values):
///   cgra_build_info                      always 1 — presence marker
///   cgra_build_api_schema_version        api::kSchemaVersion
///   cgra_build_search_log_schema_version SearchLog::kSchemaVersion
/// Plain gauges rather than labels because the registry is label-free;
/// tools call this once at startup so every /metrics or
/// aggregate.metrics snapshot states which schemas produced it.
void RegisterBuildInfo(int api_schema_version, int search_schema_version);

}  // namespace cgra::telemetry
