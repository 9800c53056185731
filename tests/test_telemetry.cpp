// Tests for the telemetry subsystem: span tracer (telemetry.hpp),
// metrics registry (metrics.hpp), and the Chrome trace-event export
// (chrome_trace.hpp). The tracer's global state (enabled flag, the
// process-wide TraceSink) is shared across tests, so every test that
// enables tracing clears the sink first and disables it on exit.
#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/json.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace cgra {
namespace {

using telemetry::SpanRecord;
using telemetry::TraceSink;

class TracingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceSink::Global().Clear();
    telemetry::SetEnabled(true);
  }
  void TearDown() override {
    telemetry::SetEnabled(false);
    TraceSink::Global().Clear();
  }
};

const SpanRecord* FindSpan(const std::vector<SpanRecord>& spans,
                           const char* name) {
  for (const SpanRecord& s : spans) {
    if (std::strcmp(s.name, name) == 0) return &s;
  }
  return nullptr;
}

TEST_F(TracingTest, SpanRecordsNameDetailAndDuration) {
  {
    telemetry::Span span("unit.outer", "d=1");
  }
  const std::vector<SpanRecord> spans = TraceSink::Global().Drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "unit.outer");
  EXPECT_STREQ(spans[0].detail, "d=1");
  EXPECT_GT(spans[0].dur_ns, 0u);
  EXPECT_EQ(spans[0].depth, 0u);
}

TEST_F(TracingTest, NestedSpansRecordDepth) {
  {
    telemetry::Span outer("unit.outer");
    {
      telemetry::Span mid("unit.mid");
      telemetry::Span inner("unit.inner");
    }
  }
  const std::vector<SpanRecord> spans = TraceSink::Global().Drain();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(FindSpan(spans, "unit.outer")->depth, 0u);
  EXPECT_EQ(FindSpan(spans, "unit.mid")->depth, 1u);
  EXPECT_EQ(FindSpan(spans, "unit.inner")->depth, 2u);
  // Children are recorded before (and inside) the parent.
  const SpanRecord* outer = FindSpan(spans, "unit.outer");
  const SpanRecord* inner = FindSpan(spans, "unit.inner");
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->start_ns + inner->dur_ns, outer->start_ns + outer->dur_ns);
}

TEST_F(TracingTest, DisabledTracerRecordsNothing) {
  telemetry::SetEnabled(false);
  {
    telemetry::Span span("unit.ghost");
  }
  telemetry::RecordSpan("unit.ghost2", "", 1, 2);
  EXPECT_TRUE(TraceSink::Global().Drain().empty());
}

TEST_F(TracingTest, CorrelationInstallsAndInherits) {
  const std::uint64_t id = telemetry::NewCorrelation();
  ASSERT_NE(id, 0u);
  EXPECT_EQ(telemetry::CurrentCorrelation(), 0u);
  {
    telemetry::Span outer("unit.outer", "", id);
    EXPECT_EQ(telemetry::CurrentCorrelation(), id);
    telemetry::Span inner("unit.inner");  // inherits
    EXPECT_EQ(inner.correlation(), id);
  }
  EXPECT_EQ(telemetry::CurrentCorrelation(), 0u);
  const std::vector<SpanRecord> spans = TraceSink::Global().Drain();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(FindSpan(spans, "unit.outer")->correlation, id);
  EXPECT_EQ(FindSpan(spans, "unit.inner")->correlation, id);
}

TEST_F(TracingTest, NewCorrelationIdsAreUnique) {
  const std::uint64_t a = telemetry::NewCorrelation();
  const std::uint64_t b = telemetry::NewCorrelation();
  EXPECT_NE(a, b);
}

TEST_F(TracingTest, RecordSpanUsesExplicitEndpoints) {
  telemetry::RecordSpan("unit.wait", "queued", 1000, 4500);
  const std::vector<SpanRecord> spans = TraceSink::Global().Drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].start_ns, 1000u);
  EXPECT_EQ(spans[0].dur_ns, 3500u);
}

TEST_F(TracingTest, LongNamesAndDetailsAreTruncatedNotCorrupted) {
  const std::string long_name(100, 'n');
  const std::string long_detail(100, 'd');
  telemetry::RecordSpan(long_name.c_str(), long_detail, 0, 1);
  const std::vector<SpanRecord> spans = TraceSink::Global().Drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(std::strlen(spans[0].name), sizeof(spans[0].name) - 1);
  EXPECT_EQ(std::strlen(spans[0].detail), sizeof(spans[0].detail) - 1);
}

TEST_F(TracingTest, EmptyDetailsRecordAsEmptyStrings) {
  // A default std::string_view has a null data(); copying it must be a
  // no-op (the ASan+UBSan job runs this test).
  {
    telemetry::Span bare("unit.bare");
    telemetry::Span empty("unit.empty", std::string_view{});
  }
  telemetry::RecordSpan("unit.recorded", std::string_view{}, 1, 2);
  const std::vector<SpanRecord> spans = TraceSink::Global().Drain();
  ASSERT_EQ(spans.size(), 3u);
  for (const char* name : {"unit.bare", "unit.empty", "unit.recorded"}) {
    const SpanRecord* span = FindSpan(spans, name);
    ASSERT_NE(span, nullptr) << name;
    EXPECT_STREQ(span->detail, "") << name;
  }
}

TEST_F(TracingTest, RingOverflowDropsAndCounts) {
  const std::size_t n = TraceSink::ThreadRing::kCapacity + 100;
  for (std::size_t i = 0; i < n; ++i) {
    telemetry::RecordSpan("unit.flood", "", i, i + 1);
  }
  EXPECT_GE(TraceSink::Global().dropped(), 100u);
  const std::vector<SpanRecord> spans = TraceSink::Global().Drain();
  EXPECT_EQ(spans.size(), TraceSink::ThreadRing::kCapacity);
  // Clear resets the drop counter.
  TraceSink::Global().Clear();
  EXPECT_EQ(TraceSink::Global().dropped(), 0u);
}

TEST_F(TracingTest, CrossThreadSpansDrainWithDistinctTids) {
  constexpr int kThreads = 4;
  constexpr int kSpansPer = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPer; ++i) {
        telemetry::Span span("unit.worker");
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::vector<SpanRecord> spans = TraceSink::Global().Drain();
  std::map<std::uint32_t, int> per_tid;
  for (const SpanRecord& s : spans) {
    if (std::strcmp(s.name, "unit.worker") == 0) ++per_tid[s.tid];
  }
  int total = 0;
  for (const auto& [tid, count] : per_tid) total += count;
  EXPECT_EQ(total, kThreads * kSpansPer);
  EXPECT_EQ(per_tid.size(), static_cast<std::size_t>(kThreads));
}

// TSan target: concurrent producers while the main thread drains. Each
// producer emits a fixed count well under the ring capacity, so every
// span must be collected exactly once whatever the interleaving.
TEST_F(TracingTest, ConcurrentEmitAndDrainIsRaceFree) {
  constexpr int kThreads = 3;
  constexpr int kSpansPer = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPer; ++i) {
        telemetry::Span span("unit.race", "x");
      }
    });
  }
  constexpr std::size_t kTotal = kThreads * kSpansPer;
  std::size_t drained = 0;
  // Drain while the producers are still emitting — the interleaving
  // TSan needs to see — then sweep up the rest after the join.
  for (int i = 0; i < 1000 && drained < kTotal; ++i) {
    drained += TraceSink::Global().Drain().size();
  }
  for (auto& t : threads) t.join();
  drained += TraceSink::Global().Drain().size();
  EXPECT_EQ(drained, kTotal);
  EXPECT_EQ(TraceSink::Global().dropped(), 0u);
}

TEST(Metrics, CounterAccumulates) {
  telemetry::Counter c;
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(Metrics, GaugeTracksValueAndHighWater) {
  telemetry::Gauge g;
  g.Add(5);
  g.Add(3);
  g.Add(-6);
  EXPECT_EQ(g.Value(), 2);
  EXPECT_EQ(g.Max(), 8);
  g.Set(1);
  EXPECT_EQ(g.Value(), 1);
  EXPECT_EQ(g.Max(), 8);
  g.Reset();
  EXPECT_EQ(g.Value(), 0);
  EXPECT_EQ(g.Max(), 0);
}

TEST(Metrics, HistogramBucketEdgesAreInclusive) {
  telemetry::Histogram h({1.0, 10.0});
  h.Observe(0.5);   // bucket 0
  h.Observe(1.0);   // bucket 0 (inclusive upper bound)
  h.Observe(1.5);   // bucket 1
  h.Observe(10.0);  // bucket 1
  h.Observe(11.0);  // overflow
  const std::vector<std::uint64_t> buckets = h.BucketCounts();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 2u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_NEAR(h.Sum(), 24.0, 1e-6);
}

TEST(Metrics, HistogramSortsAndDedupsBounds) {
  telemetry::Histogram h({10.0, 1.0, 10.0});
  ASSERT_EQ(h.bounds().size(), 2u);
  EXPECT_EQ(h.bounds()[0], 1.0);
  EXPECT_EQ(h.bounds()[1], 10.0);
}

TEST(Metrics, RegistryReturnsStableReferences) {
  telemetry::MetricsRegistry reg;
  telemetry::Counter& a = reg.GetCounter("unit_total");
  telemetry::Counter& b = reg.GetCounter("unit_total");
  EXPECT_EQ(&a, &b);
  a.Add(7);
  EXPECT_EQ(b.Value(), 7u);
  reg.Reset();
  EXPECT_EQ(a.Value(), 0u);  // reset zeroes, registration survives
  EXPECT_EQ(&reg.GetCounter("unit_total"), &a);
}

TEST(Metrics, PrometheusDumpHasCumulativeBuckets) {
  telemetry::MetricsRegistry reg;
  reg.GetCounter("unit_jobs_total", "jobs").Add(3);
  reg.GetGauge("unit_depth").Set(2);
  telemetry::Histogram& h =
      reg.GetHistogram("unit_seconds", {0.1, 1.0}, "latency");
  h.Observe(0.05);
  h.Observe(0.5);
  h.Observe(5.0);
  const std::string text = reg.ToPrometheus();
  EXPECT_NE(text.find("# TYPE unit_jobs_total counter"), std::string::npos);
  EXPECT_NE(text.find("unit_jobs_total 3"), std::string::npos);
  EXPECT_NE(text.find("unit_depth 2"), std::string::npos);
  // Cumulative: le="1" covers both the 0.05 and the 0.5 observation.
  EXPECT_NE(text.find("unit_seconds_bucket{le=\"0.1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("unit_seconds_bucket{le=\"1\"} 2"), std::string::npos);
  EXPECT_NE(text.find("unit_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("unit_seconds_count 3"), std::string::npos);
}

TEST(Metrics, JsonSnapshotParsesAndRoundTrips) {
  telemetry::MetricsRegistry reg;
  reg.GetCounter("unit_total").Add(9);
  reg.GetGauge("unit_depth").Add(4);
  reg.GetHistogram("unit_seconds", {1.0}).Observe(0.5);
  const Result<Json> doc = Json::Parse(reg.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  EXPECT_EQ(doc->Find("counters")->Find("unit_total")->AsInt(), 9);
  EXPECT_EQ(doc->Find("gauges")->Find("unit_depth")->Find("value")->AsInt(),
            4);
  const Json* hist = doc->Find("histograms")->Find("unit_seconds");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->AsInt(), 1);
  EXPECT_EQ(hist->Find("buckets")->items().size(), 2u);
}

TEST_F(TracingTest, ChromeTraceExportIsBalancedAndParses) {
  {
    telemetry::Span outer("unit.outer", "top");
    telemetry::Span inner("unit.inner");
  }
  // A zero-duration span must still export a balanced B/E pair.
  telemetry::RecordSpan("unit.instant", "", 500, 500);
  const std::vector<SpanRecord> spans = TraceSink::Global().Drain();
  const std::string json = telemetry::ChromeTraceJson(spans, 2, 1234567);
  const Result<Json> doc = Json::Parse(json);
  ASSERT_TRUE(doc.ok()) << doc.error().message;

  const Json* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  int balance = 0;
  std::vector<std::string> open;
  std::map<std::string, int> begins;
  for (const Json& e : events->items()) {
    const std::string ph = e.Find("ph")->AsString();
    if (ph == "B") {
      ++balance;
      open.push_back(e.Find("name")->AsString());
      ++begins[open.back()];
    } else if (ph == "E") {
      --balance;
      ASSERT_FALSE(open.empty());
      open.pop_back();
    }
    ASSERT_GE(balance, 0);
  }
  EXPECT_EQ(balance, 0);
  EXPECT_TRUE(open.empty());
  EXPECT_EQ(begins["unit.outer"], 1);
  EXPECT_EQ(begins["unit.inner"], 1);
  EXPECT_EQ(begins["unit.instant"], 1);
  EXPECT_EQ(doc->Find("otherData")->Find("dropped_spans")->AsInt(), 2);
  EXPECT_EQ(doc->Find("otherData")->Find("wall_anchor_micros")->AsInt(),
            1234567);
}

TEST_F(TracingTest, ChromeTraceNestsInnerInsideOuter) {
  {
    telemetry::Span outer("unit.outer");
    telemetry::Span inner("unit.inner");
  }
  const std::string json = telemetry::ChromeTraceJson(
      TraceSink::Global().Drain(), 0, 0);
  const Result<Json> doc = Json::Parse(json);
  ASSERT_TRUE(doc.ok());
  // Expected track order: B outer, B inner, E inner, E outer.
  std::vector<std::string> order;
  for (const Json& e : doc->Find("traceEvents")->items()) {
    const std::string ph = e.Find("ph")->AsString();
    if (ph == "B" || ph == "E") {
      order.push_back(ph + ":" + e.Find("name")->AsString());
    }
  }
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], "B:unit.outer");
  EXPECT_EQ(order[1], "B:unit.inner");
  EXPECT_EQ(order[2], "E:unit.inner");
  EXPECT_EQ(order[3], "E:unit.outer");
}

}  // namespace
}  // namespace cgra
