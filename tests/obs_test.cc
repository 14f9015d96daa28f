/// Unit tests for the observability library (ISSUE 7): exact counter
/// summing under contention, gauge/histogram semantics, span nesting and
/// ordering, ring-buffer overflow (drops-oldest + dropped_events), the
/// Chrome trace_event JSON and metrics JSON exports (parsed back with the
/// repo's own JSON parser), snapshot deltas, and the site-counter cache.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "hdt/hdt.h"
#include "json/json_parser.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "test_util.h"

namespace mitra::obs {
namespace {

// Every test runs against the process-global registry/tracer, so each
// starts from a clean slate. Registrations persist (by design); values
// are zeroed.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ResetAllMetrics();
    Tracer::Global().SetEnabled(false);
    Tracer::Global().Clear();
    Tracer::Global().SetRingCapacityForTest(Tracer::kDefaultRingCapacity);
  }
  void TearDown() override { SetUp(); }
};

TEST_F(ObsTest, CounterSumsExactlyUnderEightThreadContention) {
  Counter* c = GetCounter("test/contended");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 100'000;

  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) c->Add();
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  // Sharded adds must be lossless: the sum over shards is exact.
  EXPECT_EQ(c->Value(), kThreads * kAddsPerThread);
}

TEST_F(ObsTest, CounterAddOfNAndReset) {
  Counter* c = GetCounter("test/add_n");
  c->Add(5);
  c->Add(37);
  EXPECT_EQ(c->Value(), 42u);
  c->Reset();
  EXPECT_EQ(c->Value(), 0u);
}

TEST_F(ObsTest, RegistryReturnsStablePointers) {
  Counter* a = GetCounter("test/stable");
  Counter* b = GetCounter("test/stable");
  EXPECT_EQ(a, b);
  EXPECT_NE(GetCounter("test/stable2"), a);
  EXPECT_EQ(Registry::Global().FindCounter("test/never_created"), nullptr);
  EXPECT_EQ(Registry::Global().FindCounter("test/stable"), a);
}

TEST_F(ObsTest, GaugeTracksLastAndMax) {
  Gauge* g = GetGauge("test/gauge");
  g->Set(7);
  g->Set(100);
  g->Set(3);
  EXPECT_EQ(g->last(), 3u);
  EXPECT_EQ(g->max(), 100u);
}

TEST_F(ObsTest, HistogramBucketsByLog2) {
  Histogram* h = GetHistogram("test/hist");
  h->Observe(0);   // bucket 0
  h->Observe(1);   // bucket 0
  h->Observe(2);   // bucket 1
  h->Observe(3);   // bucket 1
  h->Observe(8);   // bucket 3
  EXPECT_EQ(h->count(), 5u);
  EXPECT_EQ(h->sum(), 14u);
  EXPECT_EQ(h->BucketCount(0), 2u);
  EXPECT_EQ(h->BucketCount(1), 2u);
  EXPECT_EQ(h->BucketCount(3), 1u);
}

TEST_F(ObsTest, SnapshotNamesGaugesAndHistogramsWithSuffixes) {
  GetCounter("test/snap/c")->Add(2);
  GetGauge("test/snap/g")->Set(9);
  GetHistogram("test/snap/h")->Observe(4);
  MetricsSnapshot snap = SnapshotMetrics();
  EXPECT_EQ(snap.at("test/snap/c"), 2u);
  EXPECT_EQ(snap.at("test/snap/g/last"), 9u);
  EXPECT_EQ(snap.at("test/snap/g/max"), 9u);
  EXPECT_EQ(snap.at("test/snap/h/count"), 1u);
  EXPECT_EQ(snap.at("test/snap/h/sum"), 4u);
}

TEST_F(ObsTest, SnapshotDeltaDropsUnmovedKeysAndSubtracts) {
  Counter* moved = GetCounter("test/delta/moved");
  GetCounter("test/delta/still");
  moved->Add(10);
  MetricsSnapshot before = SnapshotMetrics();
  moved->Add(32);
  MetricsSnapshot delta = SnapshotDelta(before);
  EXPECT_EQ(delta.at("test/delta/moved"), 32u);
  EXPECT_EQ(delta.count("test/delta/still"), 0u);
}

TEST_F(ObsTest, MetricsJsonParsesBackWithRepoParser) {
  GetCounter("test/json/plain")->Add(3);
  GetCounter("test/json/quote\"backslash\\")->Add(1);
  std::string json = MetricsJson();

  // The repo's JSON parser builds an Hdt with each object key as a node
  // tag; a successful parse proves the export (keys escaped, values
  // numeric) is well-formed JSON.
  hdt::Hdt tree = test::ParseJsonOrDie(json);
  bool found_plain = false, found_escaped = false;
  for (hdt::NodeId id = 0; id < static_cast<hdt::NodeId>(tree.NumElements());
       ++id) {
    const std::string_view tag = tree.NodeTagName(id);
    if (tag == "test/json/plain") {
      found_plain = true;
      EXPECT_EQ(tree.Data(id), "3");
    }
    if (tag == "test/json/quote\"backslash\\") found_escaped = true;
  }
  EXPECT_TRUE(found_plain);
  EXPECT_TRUE(found_escaped);
}

TEST_F(ObsTest, SiteCounterCacheRoutesToPrefixedRegistryCounters) {
  static SiteCounterCache cache("test/site/");
  static const char* kSiteA = "alpha";
  static const char* kSiteB = "beta";
  cache.Add(kSiteA);
  cache.Add(kSiteA, 4);
  cache.Add(kSiteB, 2);
  EXPECT_EQ(GetCounter("test/site/alpha")->Value(), 5u);
  EXPECT_EQ(GetCounter("test/site/beta")->Value(), 2u);
}

TEST_F(ObsTest, DisabledSpanRecordsNothing) {
  ASSERT_FALSE(Tracer::Global().enabled());
  { MITRA_SPAN(span, "test/disabled"); }
  EXPECT_TRUE(Tracer::Global().Collect().empty());
}

TEST_F(ObsTest, SpanNestingDepthAndOrdering) {
  Tracer::Global().SetEnabled(true);
  {
    MITRA_SPAN(outer, "test/outer");
    {
      MITRA_SPAN(inner, "test/inner");
    }
    {
      MITRA_SPAN(inner2, "test/inner2");
    }
  }
  Tracer::Global().SetEnabled(false);

  std::vector<TraceEvent> events = Tracer::Global().Collect();
  ASSERT_EQ(events.size(), 3u);
  // Collect sorts by start time: outer began first, then inner, inner2.
  EXPECT_STREQ(events[0].name, "test/outer");
  EXPECT_STREQ(events[1].name, "test/inner");
  EXPECT_STREQ(events[2].name, "test/inner2");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].depth, 1u);
  // Children are contained in the parent interval.
  for (int i = 1; i <= 2; ++i) {
    EXPECT_GE(events[i].start_ns, events[0].start_ns);
    EXPECT_LE(events[i].start_ns + events[i].dur_ns,
              events[0].start_ns + events[0].dur_ns);
  }
  // inner2 starts after inner ends.
  EXPECT_GE(events[2].start_ns, events[1].start_ns + events[1].dur_ns);
}

TEST_F(ObsTest, RingOverflowDropsOldestAndCountsDropped) {
  Tracer::Global().SetRingCapacityForTest(8);
  Tracer::Global().SetEnabled(true);
  for (int i = 0; i < 20; ++i) {
    MITRA_SPAN(span, "test/overflow");
  }
  Tracer::Global().SetEnabled(false);

  std::vector<TraceEvent> events = Tracer::Global().Collect();
  EXPECT_EQ(events.size(), 8u);
  EXPECT_EQ(Tracer::Global().dropped_events(), 12u);
  // The retained events are the *newest* 8: strictly increasing start
  // times, and contiguous (each retained start >= the previous end).
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].start_ns, events[i - 1].start_ns + events[i - 1].dur_ns);
  }
}

TEST_F(ObsTest, ChromeTraceJsonIsValidAndCarriesEvents) {
  Tracer::Global().SetEnabled(true);
  {
    MITRA_SPAN(a, "test/chrome_a");
    MITRA_SPAN(b, "test/chrome_b");
  }
  Tracer::Global().SetEnabled(false);

  std::string json = Tracer::Global().ChromeTraceJson();
  hdt::Hdt tree = test::ParseJsonOrDie(json);

  // Shape: a traceEvents array whose entries carry name/ph/ts/dur/pid/tid,
  // plus displayTimeUnit and dropped_events at top level.
  int num_events = 0, num_ph = 0, num_ts = 0, num_dur = 0;
  bool saw_a = false, saw_b = false, saw_unit = false, saw_dropped = false;
  for (hdt::NodeId id = 0; id < static_cast<hdt::NodeId>(tree.NumElements());
       ++id) {
    const std::string_view tag = tree.NodeTagName(id);
    std::string_view text = tree.HasData(id) ? tree.Data(id) : "";
    if (tag == "name") {
      ++num_events;
      if (text == "test/chrome_a") saw_a = true;
      if (text == "test/chrome_b") saw_b = true;
    }
    if (tag == "ph") {
      ++num_ph;
      EXPECT_EQ(text, "X");  // complete events: ts + dur
    }
    if (tag == "ts") ++num_ts;
    if (tag == "dur") ++num_dur;
    if (tag == "displayTimeUnit") saw_unit = text == "ms";
    if (tag == "dropped_events") saw_dropped = text == "0";
  }
  EXPECT_EQ(num_events, 2);
  EXPECT_EQ(num_ph, 2);
  EXPECT_EQ(num_ts, 2);
  EXPECT_EQ(num_dur, 2);
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
  EXPECT_TRUE(saw_unit);
  EXPECT_TRUE(saw_dropped);
}

TEST_F(ObsTest, SpansFromMultipleThreadsGetDistinctTids) {
  Tracer::Global().SetEnabled(true);
  {
    MITRA_SPAN(main_span, "test/tid_main");
  }
  std::thread other([] { MITRA_SPAN(span, "test/tid_other"); });
  other.join();
  Tracer::Global().SetEnabled(false);

  std::vector<TraceEvent> events = Tracer::Global().Collect();
  std::uint32_t tid_main = 0, tid_other = 0;
  bool saw_main = false, saw_other = false;
  for (const TraceEvent& ev : events) {
    if (std::string(ev.name) == "test/tid_main") {
      tid_main = ev.tid;
      saw_main = true;
    }
    if (std::string(ev.name) == "test/tid_other") {
      tid_other = ev.tid;
      saw_other = true;
    }
  }
  ASSERT_TRUE(saw_main);
  ASSERT_TRUE(saw_other);
  EXPECT_NE(tid_main, tid_other);
}

TEST_F(ObsTest, MacrosCompileAndCount) {
  // MITRA_COUNT caches the Counter* in a function-local static; two
  // passes through the same site must hit the same counter.
  for (int i = 0; i < 3; ++i) {
    MITRA_COUNT("test/macro/count", 2);
  }
  MITRA_GAUGE_SET("test/macro/gauge", 11);
  MITRA_HISTOGRAM("test/macro/hist", 16);
  EXPECT_EQ(GetCounter("test/macro/count")->Value(), 6u);
  EXPECT_EQ(GetGauge("test/macro/gauge")->last(), 11u);
  EXPECT_EQ(GetHistogram("test/macro/hist")->count(), 1u);
}

}  // namespace
}  // namespace mitra::obs
