#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "support/json.hpp"
#include "support/str.hpp"

namespace cgra::telemetry {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  // Defensive: a registry fed unsorted bounds would misbucket silently.
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::Observe(double v) {
  // First bucket whose inclusive upper bound admits v; +Inf overflow
  // bucket otherwise.
  const std::size_t i =
      static_cast<std::size_t>(std::lower_bound(bounds_.begin(), bounds_.end(), v) -
                               bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  if (std::isfinite(v)) {
    sum_nano_.fetch_add(static_cast<std::int64_t>(v * 1e9),
                        std::memory_order_relaxed);
  }
}

double Histogram::Sum() const {
  return static_cast<double>(sum_nano_.load(std::memory_order_relaxed)) * 1e-9;
}

std::vector<std::uint64_t> Histogram::BucketCounts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::Reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_nano_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked like the TraceSink: metric references cached in statics may
  // be touched during static destruction.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Entry* MetricsRegistry::Find(const std::string& name) {
  for (auto& [n, e] : entries_) {
    if (n == name) return &e;
  }
  return nullptr;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = Find(name); e && e->kind == Entry::Kind::kCounter) {
    return *e->counter;
  }
  Entry e;
  e.kind = Entry::Kind::kCounter;
  e.help = help;
  e.counter = std::make_unique<Counter>();
  Counter& ref = *e.counter;
  entries_.emplace_back(name, std::move(e));
  return ref;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = Find(name); e && e->kind == Entry::Kind::kGauge) {
    return *e->gauge;
  }
  Entry e;
  e.kind = Entry::Kind::kGauge;
  e.help = help;
  e.gauge = std::make_unique<Gauge>();
  Gauge& ref = *e.gauge;
  entries_.emplace_back(name, std::move(e));
  return ref;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds,
                                         const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = Find(name); e && e->kind == Entry::Kind::kHistogram) {
    return *e->histogram;
  }
  Entry e;
  e.kind = Entry::Kind::kHistogram;
  e.help = help;
  e.histogram = std::make_unique<Histogram>(std::move(bounds));
  Histogram& ref = *e.histogram;
  entries_.emplace_back(name, std::move(e));
  return ref;
}

namespace {

/// Prometheus renders +Inf and integers-as-floats its own way.
std::string PromDouble(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  std::string s = StrFormat("%.9g", v);
  return s;
}

}  // namespace

std::string MetricsRegistry::ToPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const std::pair<std::string, Entry>*> sorted;
  sorted.reserve(entries_.size());
  for (const auto& p : entries_) sorted.push_back(&p);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });

  std::string out;
  for (const auto* p : sorted) {
    const std::string& name = p->first;
    const Entry& e = p->second;
    if (!e.help.empty()) {
      out += StrFormat("# HELP %s %s\n", name.c_str(), e.help.c_str());
    }
    switch (e.kind) {
      case Entry::Kind::kCounter:
        out += StrFormat("# TYPE %s counter\n%s %llu\n", name.c_str(),
                         name.c_str(),
                         static_cast<unsigned long long>(e.counter->Value()));
        break;
      case Entry::Kind::kGauge:
        out += StrFormat("# TYPE %s gauge\n%s %lld\n", name.c_str(),
                         name.c_str(),
                         static_cast<long long>(e.gauge->Value()));
        break;
      case Entry::Kind::kHistogram: {
        out += StrFormat("# TYPE %s histogram\n", name.c_str());
        const std::vector<std::uint64_t> counts = e.histogram->BucketCounts();
        const std::vector<double>& bounds = e.histogram->bounds();
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < counts.size(); ++i) {
          cumulative += counts[i];
          const std::string le =
              i < bounds.size() ? PromDouble(bounds[i]) : "+Inf";
          out += StrFormat("%s_bucket{le=\"%s\"} %llu\n", name.c_str(),
                           le.c_str(),
                           static_cast<unsigned long long>(cumulative));
        }
        out += StrFormat("%s_sum %.9g\n%s_count %llu\n", name.c_str(),
                         e.histogram->Sum(), name.c_str(),
                         static_cast<unsigned long long>(e.histogram->Count()));
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const std::pair<std::string, Entry>*> sorted;
  sorted.reserve(entries_.size());
  for (const auto& p : entries_) sorted.push_back(&p);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });

  JsonWriter w;
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const auto* p : sorted) {
    if (p->second.kind != Entry::Kind::kCounter) continue;
    w.Key(p->first).Uint(p->second.counter->Value());
  }
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto* p : sorted) {
    if (p->second.kind != Entry::Kind::kGauge) continue;
    w.Key(p->first)
        .BeginObject()
        .Key("value")
        .Int(p->second.gauge->Value())
        .Key("max")
        .Int(p->second.gauge->Max())
        .EndObject();
  }
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const auto* p : sorted) {
    if (p->second.kind != Entry::Kind::kHistogram) continue;
    const Histogram& h = *p->second.histogram;
    w.Key(p->first).BeginObject();
    w.Key("bounds").BeginArray();
    for (double b : h.bounds()) w.Double(b);
    w.EndArray();
    w.Key("buckets").BeginArray();
    for (std::uint64_t c : h.BucketCounts()) w.Uint(c);
    w.EndArray();
    w.Key("sum").Double(h.Sum());
    w.Key("count").Uint(h.Count());
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.Take();
}

void RegisterBuildInfo(int api_schema_version, int search_schema_version) {
  auto& registry = MetricsRegistry::Global();
  registry
      .GetGauge("cgra_build_info",
                "always 1; the cgra_build_* gauges describe this build")
      .Set(1);
  registry
      .GetGauge("cgra_build_api_schema_version",
                "schema_version of the api request/response JSON")
      .Set(api_schema_version);
  registry
      .GetGauge("cgra_build_search_log_schema_version",
                "schema version of SearchLog JSON (\"search\" trace key)")
      .Set(search_schema_version);
  // First-class from process start: dashboards alerting on span loss
  // need the counter present at 0, not absent until the first drop
  // (the span tracer bumps this same entry on ring-buffer overflow).
  registry.GetCounter("telemetry_dropped_spans_total",
                      "span records dropped on per-thread ring-buffer "
                      "overflow");
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, e] : entries_) {
    switch (e.kind) {
      case Entry::Kind::kCounter:
        e.counter->Reset();
        break;
      case Entry::Kind::kGauge:
        e.gauge->Reset();
        break;
      case Entry::Kind::kHistogram:
        e.histogram->Reset();
        break;
    }
  }
}

}  // namespace cgra::telemetry
