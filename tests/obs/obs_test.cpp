// Unit tests of the observability layer: metrics registry semantics
// (counters, gauges, histograms, timers, deterministic merges) and the
// golden JSONL schema of every trace event kind. The JSONL strings pinned
// here are the stable wire format bench_compare.py --validate checks; any
// intentional change must update both sides and bump the schema note in
// obs/trace.h.

#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace surfnet::obs {
namespace {

TEST(Metrics, CountersAccumulateAndDefaultToZero) {
  MetricsRegistry m;
  EXPECT_EQ(m.counter("missing"), 0);
  m.count("a");
  m.count("a", 4);
  m.count("b", -2);
  EXPECT_EQ(m.counter("a"), 5);
  EXPECT_EQ(m.counter("b"), -2);
  EXPECT_FALSE(m.empty());
}

TEST(Metrics, GaugesKeepLatestValue) {
  MetricsRegistry m;
  m.gauge("level", 3.0);
  m.gauge("level", 7.5);
  EXPECT_DOUBLE_EQ(m.gauge_value("level"), 7.5);
  EXPECT_DOUBLE_EQ(m.gauge_value("missing"), 0.0);
}

TEST(Metrics, HistogramBucketsIncludingOverflow) {
  MetricsRegistry m;
  const std::vector<double> bounds = {1.0, 10.0, 100.0};
  // Bounds are inclusive upper bounds; the 4th bucket is the overflow.
  for (const double v : {0.5, 1.0, 1.5, 10.0, 99.0, 100.5, 1e9})
    m.observe("h", v, bounds);
  const Histogram* h = m.histogram("h");
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->counts.size(), 4u);
  EXPECT_EQ(h->counts[0], 2);  // 0.5, 1.0 (bounds are inclusive)
  EXPECT_EQ(h->counts[1], 2);  // 1.5, 10.0
  EXPECT_EQ(h->counts[2], 1);  // 99.0
  EXPECT_EQ(h->counts[3], 2);  // 100.5, 1e9 land in the overflow bucket
  EXPECT_EQ(h->total, 7);
  EXPECT_DOUBLE_EQ(h->sum, 0.5 + 1.0 + 1.5 + 10.0 + 99.0 + 100.5 + 1e9);
}

TEST(Metrics, HistogramBoundsFixedByFirstCall) {
  MetricsRegistry m;
  m.observe("h", 5.0, {10.0});
  m.observe("h", 50.0, {1.0, 2.0, 3.0});  // later bounds ignored
  const Histogram* h = m.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->bounds, std::vector<double>({10.0}));
  EXPECT_EQ(h->counts[0], 1);
  EXPECT_EQ(h->counts[1], 1);
}

TEST(Metrics, ScopedTimerAccumulatesAndNullIsNoop) {
  MetricsRegistry m;
  {
    ScopedTimer t(&m, "t.outer");
    ScopedTimer inner(&m, "t.inner");
  }
  { ScopedTimer t(&m, "t.outer"); }
  EXPECT_GT(m.timer_seconds("t.outer"), 0.0);
  EXPECT_GT(m.timer_seconds("t.inner"), 0.0);
  // Null registry: constructing and destroying must be a no-op.
  { ScopedTimer t(nullptr, "t.null"); }
  EXPECT_DOUBLE_EQ(m.timer_seconds("t.null"), 0.0);
}

TEST(Metrics, MergeAddsCountersHistogramsTimers) {
  MetricsRegistry a, b;
  a.count("c", 3);
  b.count("c", 4);
  b.count("only_b", 1);
  a.gauge("g", 1.0);
  b.gauge("g", 2.0);
  a.time("t", 0.5);
  b.time("t", 0.25);
  const std::vector<double> bounds = {10.0, 20.0};
  a.observe("h", 5.0, bounds);
  b.observe("h", 15.0, bounds);
  b.observe("h", 25.0, bounds);

  a.merge(b);
  EXPECT_EQ(a.counter("c"), 7);
  EXPECT_EQ(a.counter("only_b"), 1);
  EXPECT_DOUBLE_EQ(a.gauge_value("g"), 2.0);  // gauges take other's latest
  EXPECT_DOUBLE_EQ(a.timer_seconds("t"), 0.75);
  const Histogram* h = a.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->counts, (std::vector<std::int64_t>{1, 1, 1}));
  EXPECT_EQ(h->total, 3);
}

TEST(Metrics, MergeRejectsMismatchedBuckets) {
  MetricsRegistry a, b;
  a.observe("h", 1.0, {10.0});
  b.observe("h", 1.0, {10.0, 20.0});
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Metrics, MergeOrderInvariantForIntegerAggregates) {
  // The thread-count-invariance contract: per-trial registries merged in
  // any grouping produce identical counters and histogram buckets.
  std::vector<MetricsRegistry> trials(6);
  for (int t = 0; t < 6; ++t) {
    trials[t].count("c", t + 1);
    trials[t].observe("h", 7.0 * t, {10.0, 30.0});
  }
  MetricsRegistry all_at_once;        // "1 thread": merge 0..5 in order
  for (const auto& r : trials) all_at_once.merge(r);
  MetricsRegistry grouped;            // "3 threads": pre-merge pairs
  for (int g = 0; g < 3; ++g) {
    MetricsRegistry pair;
    pair.merge(trials[2 * g]);
    pair.merge(trials[2 * g + 1]);
    grouped.merge(pair);
  }
  EXPECT_EQ(all_at_once.to_json(), grouped.to_json());
}

TEST(Metrics, JsonExportSchema) {
  MetricsRegistry m;
  m.count("z.count", 2);
  m.count("a.count", 1);
  m.gauge("g", 1.5);
  m.time("t", 0.5);
  m.observe("h", 5.0, {10.0});
  EXPECT_EQ(m.to_json(),
            "{\"schema_version\": 1, "
            "\"counters\": {\"a.count\": 1, \"z.count\": 2}, "
            "\"gauges\": {\"g\": 1.5}, "
            "\"timers\": {\"t\": 0.5}, "
            "\"histograms\": {\"h\": {\"bounds\": [10], "
            "\"counts\": [1, 0], \"total\": 1, \"sum\": 5}}}");
}

TEST(Metrics, EmptyRegistryExportsEmptySections) {
  MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.to_json(),
            "{\"schema_version\": 1, \"counters\": {}, \"gauges\": {}, "
            "\"timers\": {}, \"histograms\": {}}");
}

TEST(Sink, NullSinkIsDisabled) {
  Sink sink;
  EXPECT_FALSE(sink.enabled());
  EXPECT_FALSE(sink.tracing());
  MetricsRegistry m;
  sink.metrics = &m;
  EXPECT_TRUE(sink.enabled());
  EXPECT_FALSE(sink.tracing());
}

// --- Golden JSONL schema: the exact line for each event kind. ---

TEST(Trace, GoldenJsonlPool) {
  EXPECT_EQ(to_jsonl(Event::pool(3, 120, 4)),
            "{\"ev\":\"pool\",\"slot\":3,\"pairs_total\":120,"
            "\"pairs_min\":4}");
}

TEST(Trace, GoldenJsonlFiberDown) {
  EXPECT_EQ(to_jsonl(Event::fiber_down(7, 2, 27)),
            "{\"ev\":\"fiber_down\",\"slot\":7,\"fiber\":2,"
            "\"until_slot\":27}");
}

TEST(Trace, GoldenJsonlRecovery) {
  EXPECT_EQ(to_jsonl(Event::recovery(5, 1, /*core_channel=*/false)),
            "{\"ev\":\"recovery\",\"slot\":5,\"request\":1,"
            "\"channel\":\"support\"}");
  EXPECT_EQ(to_jsonl(Event::recovery(5, 1, /*core_channel=*/true)),
            "{\"ev\":\"recovery\",\"slot\":5,\"request\":1,"
            "\"channel\":\"core\"}");
}

TEST(Trace, GoldenJsonlSegmentJump) {
  EXPECT_EQ(to_jsonl(Event::segment_jump(9, 0, 4, 6, 2, true)),
            "{\"ev\":\"segment_jump\",\"slot\":9,\"request\":0,"
            "\"from_node\":4,\"to_node\":6,\"fibers\":2,\"success\":true}");
}

TEST(Trace, GoldenJsonlDecode) {
  EXPECT_EQ(to_jsonl(Event::decode(11, 2, 8, /*ec=*/true, 3, 5,
                                   /*logical_error=*/false)),
            "{\"ev\":\"decode\",\"slot\":11,\"request\":2,\"node\":8,"
            "\"ec\":true,\"erasures\":3,\"syndromes\":5,"
            "\"logical_error\":false}");
}

TEST(Trace, GoldenJsonlDelivered) {
  EXPECT_EQ(to_jsonl(Event::delivered(14, 2, 14, 3,
                                      /*logical_error=*/true)),
            "{\"ev\":\"delivered\",\"slot\":14,\"request\":2,\"slots\":14,"
            "\"corrections\":3,\"outcome\":\"logical_error\"}");
}

TEST(Trace, GoldenJsonlTimeout) {
  EXPECT_EQ(to_jsonl(Event::timeout(20000, 6, 19988)),
            "{\"ev\":\"timeout\",\"slot\":20000,\"request\":6,"
            "\"slots\":19988}");
}

TEST(Trace, GoldenJsonlNodeDown) {
  EXPECT_EQ(to_jsonl(Event::node_down(12, 5, 42)),
            "{\"ev\":\"node_down\",\"slot\":12,\"node\":5,"
            "\"until_slot\":42}");
}

TEST(Trace, GoldenJsonlDegraded) {
  EXPECT_EQ(to_jsonl(Event::degraded(8, 3, 48, 0.25)),
            "{\"ev\":\"degraded\",\"slot\":8,\"fiber\":3,"
            "\"until_slot\":48,\"factor\":0.25}");
}

TEST(Trace, GoldenJsonlLpSolve) {
  EXPECT_EQ(to_jsonl(Event::lp_solve(42, 3, /*warm=*/true, 0, 1.5)),
            "{\"ev\":\"lp_solve\",\"iterations\":42,"
            "\"refactorizations\":3,\"warm_start\":true,\"status\":0,"
            "\"objective\":1.5}");
}

TEST(Trace, GoldenJsonlArrival) {
  EXPECT_EQ(to_jsonl(Event::arrival(12, 7, 0, 4, 1)),
            "{\"ev\":\"arrival\",\"slot\":12,\"request\":7,"
            "\"src\":0,\"dst\":4,\"class\":1}");
}

TEST(Trace, GoldenJsonlAdmit) {
  EXPECT_EQ(to_jsonl(Event::admit(12, 7, 2, 4, 12, /*source=*/1,
                                  /*distance=*/0)),
            "{\"ev\":\"admit\",\"slot\":12,\"request\":7,\"codes\":2,"
            "\"hops\":4,\"est_slots\":12,\"source\":\"warm\","
            "\"distance\":0}");
  EXPECT_EQ(to_jsonl(Event::admit(0, 0, 1, 2, 8, /*source=*/0,
                                  /*distance=*/3)),
            "{\"ev\":\"admit\",\"slot\":0,\"request\":0,\"codes\":1,"
            "\"hops\":2,\"est_slots\":8,\"source\":\"greedy\","
            "\"distance\":3}");
  EXPECT_EQ(to_jsonl(Event::admit(3, 1, 1, 2, 8, /*source=*/2,
                                  /*distance=*/5)),
            "{\"ev\":\"admit\",\"slot\":3,\"request\":1,\"codes\":1,"
            "\"hops\":2,\"est_slots\":8,\"source\":\"cold\","
            "\"distance\":5}");
}

TEST(Trace, GoldenJsonlBlocked) {
  EXPECT_EQ(to_jsonl(Event::blocked(9, 5, /*reason=*/0)),
            "{\"ev\":\"blocked\",\"slot\":9,\"request\":5,"
            "\"reason\":\"load\"}");
  EXPECT_EQ(to_jsonl(Event::blocked(9, 5, /*reason=*/1)),
            "{\"ev\":\"blocked\",\"slot\":9,\"request\":5,"
            "\"reason\":\"capacity\"}");
  EXPECT_EQ(to_jsonl(Event::blocked(9, 5, /*reason=*/2)),
            "{\"ev\":\"blocked\",\"slot\":9,\"request\":5,"
            "\"reason\":\"fidelity\"}");
  EXPECT_EQ(to_jsonl(Event::blocked(9, 5, /*reason=*/3)),
            "{\"ev\":\"blocked\",\"slot\":9,\"request\":5,"
            "\"reason\":\"deadline\"}");
  // Out-of-range reasons clamp to "capacity" rather than indexing past
  // the reason table.
  EXPECT_EQ(to_jsonl(Event::blocked(9, 5, /*reason=*/99)),
            "{\"ev\":\"blocked\",\"slot\":9,\"request\":5,"
            "\"reason\":\"capacity\"}");
}

TEST(Trace, GoldenJsonlDepart) {
  EXPECT_EQ(to_jsonl(Event::depart(40, 7, 28)),
            "{\"ev\":\"depart\",\"slot\":40,\"request\":7,"
            "\"latency\":28}");
}

TEST(Trace, TrialStampAppearsAfterEv) {
  Event e = Event::pool(0, 1, 1);
  e.trial = 5;
  EXPECT_EQ(to_jsonl(e),
            "{\"ev\":\"pool\",\"trial\":5,\"slot\":0,\"pairs_total\":1,"
            "\"pairs_min\":1}");
}

TEST(Trace, FlushToStampsOnlyUnstampedEvents) {
  TraceBuffer buffer;
  buffer.record(Event::pool(0, 10, 2));
  Event prestamped = Event::pool(1, 20, 3);
  prestamped.trial = 9;
  buffer.record(prestamped);

  TraceBuffer out;
  buffer.flush_to(out, 4);
  ASSERT_EQ(out.events().size(), 2u);
  EXPECT_EQ(out.events()[0].trial, 4);
  EXPECT_EQ(out.events()[1].trial, 9);
  // The source buffer is unchanged (flush is const).
  EXPECT_EQ(buffer.events()[0].trial, -1);
}

TEST(Trace, EventKindNamesRoundTrip) {
  EXPECT_EQ(to_string(EventKind::PoolLevel), "pool");
  EXPECT_EQ(to_string(EventKind::FiberDown), "fiber_down");
  EXPECT_EQ(to_string(EventKind::Recovery), "recovery");
  EXPECT_EQ(to_string(EventKind::SegmentJump), "segment_jump");
  EXPECT_EQ(to_string(EventKind::Decode), "decode");
  EXPECT_EQ(to_string(EventKind::Delivered), "delivered");
  EXPECT_EQ(to_string(EventKind::Timeout), "timeout");
  EXPECT_EQ(to_string(EventKind::NodeDown), "node_down");
  EXPECT_EQ(to_string(EventKind::Degraded), "degraded");
  EXPECT_EQ(to_string(EventKind::LpSolve), "lp_solve");
}

}  // namespace
}  // namespace surfnet::obs
