// Tests for the trace subsystem: the thread-local span ring (record/drain
// ordering, overflow accounting, the disabled fast path), the counter/gauge
// registry, clock-offset rebasing at trace merge (the ±50 ms two-node skew
// case the PR's acceptance demands), and the Chrome trace_event exporter.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/messages.hpp"
#include "cluster/wire.hpp"
#include "trace/registry.hpp"
#include "trace/trace_event.hpp"
#include "trace/tracer.hpp"
#include "util/error.hpp"

namespace fs2::trace {
namespace {

/// Tests share one process-wide tracer; each starts from a clean slate.
struct TracerTest : ::testing::Test {
  void SetUp() override { Tracer::reset(); }
  void TearDown() override { Tracer::reset(); }
};

TEST_F(TracerTest, RecordsAndDrainsInOrder) {
  Tracer::set_enabled(true);
  Tracer::record("a", 1.0, 2.0);
  Tracer::record("b", 2.0, 3.0);
  Tracer::record("c", 3.0, 4.0);
  std::vector<SpanEvent> out;
  EXPECT_EQ(Tracer::drain(out), 3u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_STREQ(out[0].name, "a");
  EXPECT_STREQ(out[1].name, "b");
  EXPECT_STREQ(out[2].name, "c");
  EXPECT_DOUBLE_EQ(out[1].begin_s, 2.0);
  EXPECT_DOUBLE_EQ(out[1].end_s, 3.0);
  // Drained means gone: a second drain finds nothing.
  out.clear();
  EXPECT_EQ(Tracer::drain(out), 0u);
  EXPECT_EQ(Tracer::dropped(), 0u);
}

TEST_F(TracerTest, ScopedSpanRecordsOnlyWhenEnabled) {
  {
    TRACE_SPAN("disabled.scope");
  }
  std::vector<SpanEvent> out;
  EXPECT_EQ(Tracer::drain(out), 0u);

  Tracer::set_enabled(true);
  {
    TRACE_SPAN("enabled.scope");
  }
  EXPECT_EQ(Tracer::drain(out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_STREQ(out[0].name, "enabled.scope");
  EXPECT_GE(out[0].end_s, out[0].begin_s);
}

TEST_F(TracerTest, FullRingDropsNewAndCounts) {
  Tracer::set_enabled(true);
  const std::size_t overflow = 100;
  for (std::size_t i = 0; i < Tracer::kRingCapacity + overflow; ++i)
    Tracer::record("flood", 1.0, 2.0);
  EXPECT_EQ(Tracer::dropped(), overflow);
  std::vector<SpanEvent> out;
  EXPECT_EQ(Tracer::drain(out), Tracer::kRingCapacity);
  // Capacity freed: recording works again, and reset clears the count.
  Tracer::record("after", 1.0, 2.0);
  out.clear();
  EXPECT_EQ(Tracer::drain(out), 1u);
  Tracer::reset();
  EXPECT_EQ(Tracer::dropped(), 0u);
}

TEST_F(TracerTest, DrainCollectsSpansFromExitedThreads) {
  Tracer::set_enabled(true);
  std::thread worker([] { Tracer::record("from.worker", 5.0, 6.0); });
  worker.join();
  std::vector<SpanEvent> out;
  Tracer::drain(out);
  const bool found = std::any_of(out.begin(), out.end(), [](const SpanEvent& e) {
    return std::string(e.name) == "from.worker";
  });
  EXPECT_TRUE(found);
}

TEST(Registry, CounterAndGaugeCreateOrGet) {
  Registry& reg = Registry::instance();
  reg.reset();
  Counter& c = reg.counter("test.reg.counter");
  c.add();
  c.add(4);
  EXPECT_EQ(&reg.counter("test.reg.counter"), &c);  // same object on re-get
  Gauge& g = reg.gauge("test.reg.gauge");
  g.set(2.5);
  EXPECT_THROW(reg.gauge("test.reg.counter"), Error);   // kind mismatch
  EXPECT_THROW(reg.counter("test.reg.gauge"), Error);

  bool saw_counter = false, saw_gauge = false;
  for (const MetricSnapshot& m : reg.snapshot()) {
    if (m.name == "test.reg.counter") {
      saw_counter = true;
      EXPECT_TRUE(m.is_counter);
      EXPECT_DOUBLE_EQ(m.value, 5.0);
    }
    if (m.name == "test.reg.gauge") {
      saw_gauge = true;
      EXPECT_FALSE(m.is_counter);
      EXPECT_DOUBLE_EQ(m.value, 2.5);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);

  // reset() zeroes without unregistering (hot paths hold references).
  reg.reset();
  for (const MetricSnapshot& m : reg.snapshot())
    if (m.name == "test.reg.counter") {
      EXPECT_DOUBLE_EQ(m.value, 0.0);
    }
  c.add();  // the cached reference must still be live
}

// ---- clock-offset rebasing at trace merge ----------------------------------

/// The acceptance case: two nodes skewed ±50 ms against the coordinator.
/// Node "fast" runs 50 ms ahead (offset +0.05), node "slow" 50 ms behind.
/// An event both nodes observed "simultaneously" in coordinator time must
/// land at the same rebased timestamp; local timestamps alone would order
/// them 100 ms apart.
TEST(TraceCollector, RebasesTwoNodeSkewOntoOneTimeline) {
  TraceCollector collector;
  collector.add_node("coordinator", 0.0);
  collector.add_node("fast", +0.05);
  collector.add_node("slow", -0.05);

  // Coordinator time 10.0s: fast's clock reads 10.05, slow's reads 9.95.
  collector.add_span("fast", {"barrier", 10.05, 10.07});
  collector.add_span("slow", {"barrier", 9.95, 9.97});
  collector.add_span("coordinator", {"release", 10.06, 10.08});
  // Coordinator time 9.90s on slow only — must sort FIRST even though its
  // local stamp (9.85) is not the smallest local value involved... and a
  // fast-node span at coordinator time 10.10 must sort last.
  collector.add_span("slow", {"early", 9.85, 9.86});
  collector.add_span("fast", {"late", 10.15, 10.16});

  const std::vector<Span> merged = collector.merged_timeline();
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged.front().name, "early");
  EXPECT_DOUBLE_EQ(merged.front().begin_s, 9.90);
  EXPECT_EQ(merged.back().name, "late");
  EXPECT_DOUBLE_EQ(merged.back().begin_s, 10.10);
  // The two skewed "barrier" spans rebase to the identical instant.
  EXPECT_DOUBLE_EQ(merged[1].begin_s, 10.0);
  EXPECT_DOUBLE_EQ(merged[2].begin_s, 10.0);
  EXPECT_EQ(merged[1].name, "barrier");
  EXPECT_EQ(merged[2].name, "barrier");
  // And the coordinator's own release sits between barrier and "late".
  EXPECT_EQ(merged[3].name, "release");
  EXPECT_DOUBLE_EQ(merged[3].begin_s, 10.06);

  // Per-node view rebases too, preserving recording order.
  const std::vector<Span> slow = collector.spans_for_node("slow");
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_DOUBLE_EQ(slow[0].begin_s, 10.0);
  EXPECT_DOUBLE_EQ(slow[1].begin_s, 9.90);

  EXPECT_THROW(collector.add_span("unknown-node", {"x", 0.0, 1.0}), Error);
}

TEST(TraceCollector, WriteJsonRoundTripsThroughTraceEventFormat) {
  TraceCollector collector;
  collector.add_node("coordinator", 0.0);
  collector.add_node("agent", -0.05);  // 50 ms behind the coordinator
  collector.add_span("coordinator", {"phase \"one\"", 1.0, 1.5});
  collector.add_span("agent", {"work\n", 0.95, 1.45});  // rebased: 1.0..1.5
  collector.add_counters("agent", {{"agent.frames", 42.0, true}});

  std::ostringstream out;
  collector.write_json(out);
  const std::string json = out.str();

  // Structure: one traceEvents array, process_name metadata per node.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"process_name\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"coordinator\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"agent\""), std::string::npos) << json;
  // Special characters in span names are escaped, never raw.
  EXPECT_NE(json.find("phase \\\"one\\\""), std::string::npos) << json;
  EXPECT_NE(json.find("work\\n"), std::string::npos) << json;
  EXPECT_EQ(json.find("work\n\""), std::string::npos) << json;
  // Both spans rebase to the same begin; exported ts is shifted so the
  // earliest span sits at 0 µs and both carry dur 500000 µs.
  EXPECT_NE(json.find("\"ts\":0,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":500000"), std::string::npos) << json;
  // Counter snapshot becomes a "C" event.
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos) << json;
  EXPECT_NE(json.find("agent.frames"), std::string::npos) << json;
  // No unescaped control characters and balanced braces/brackets: the
  // minimal well-formedness a JSON consumer needs.
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      EXPECT_GE(static_cast<unsigned char>(ch), 0x20) << "raw control char in string";
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{') ++braces;
    if (ch == '}') --braces;
    if (ch == '[') ++brackets;
    if (ch == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

// ---- wire round trips for the new message types -----------------------------

TEST(TraceMessages, TraceSpansRoundTrip) {
  cluster::TraceSpansMsg msg;
  msg.spans = {{"phase:ramp", 1.25, 2.5}, {"agent.barrier_wait", 2.5, 2.625}};
  msg.dropped = 7;
  const cluster::Frame frame = msg.encode();
  EXPECT_EQ(frame.type, cluster::MessageType::kTraceSpans);
  cluster::WireReader reader(frame.payload);
  const cluster::TraceSpansMsg back = cluster::TraceSpansMsg::decode(reader);
  ASSERT_EQ(back.spans.size(), 2u);
  EXPECT_EQ(back.spans[0].name, "phase:ramp");
  EXPECT_DOUBLE_EQ(back.spans[0].begin_s, 1.25);
  EXPECT_DOUBLE_EQ(back.spans[1].end_s, 2.625);
  EXPECT_EQ(back.dropped, 7u);
}

TEST(TraceMessages, CounterSnapshotRoundTrip) {
  cluster::CounterSnapshotMsg msg;
  msg.counters = {{"reactor.poll_iterations", 1234.0, true},
                  {"cluster.bus.queued_samples", 17.0, false}};
  const cluster::Frame frame = msg.encode();
  cluster::WireReader reader(frame.payload);
  const cluster::CounterSnapshotMsg back = cluster::CounterSnapshotMsg::decode(reader);
  ASSERT_EQ(back.counters.size(), 2u);
  EXPECT_EQ(back.counters[0].name, "reactor.poll_iterations");
  EXPECT_TRUE(back.counters[0].is_counter);
  EXPECT_DOUBLE_EQ(back.counters[1].value, 17.0);
  EXPECT_FALSE(back.counters[1].is_counter);
}

TEST(TraceMessages, StatusRoundTrip) {
  cluster::StatusReplyMsg msg;
  msg.accepting = 0;
  msg.nodes_expected = 4;
  msg.phase_count = 3;
  msg.queued_samples = 99;
  msg.budget_w = 1000.0;
  msg.fleet_healthy = 0;
  msg.nodes = {{"n0", "zen2", 1, 3, 2, 0.002, 0.0001, 251.0, 250.0, 0.61, 1, 4.25}};
  msg.spreads = {{"ramp", "n0", "n1", 1.0, 1.002, 4}};
  msg.counters = {{"coordinator.frames", 512.0, true}};
  msg.alerts = {{"flatline", "n0", "no metric update for 4.2 s", 17.5}};
  const cluster::Frame frame = msg.encode();
  EXPECT_EQ(frame.type, cluster::MessageType::kStatusReply);
  cluster::WireReader reader(frame.payload);
  const cluster::StatusReplyMsg back = cluster::StatusReplyMsg::decode(reader);
  EXPECT_EQ(back.nodes_expected, 4u);
  EXPECT_EQ(back.queued_samples, 99u);
  ASSERT_EQ(back.nodes.size(), 1u);
  EXPECT_EQ(back.nodes[0].name, "n0");
  EXPECT_EQ(back.nodes[0].phases_begun, 3u);
  EXPECT_EQ(back.nodes[0].phases_ended, 2u);
  EXPECT_DOUBLE_EQ(back.nodes[0].achieved_w, 251.0);
  ASSERT_EQ(back.spreads.size(), 1u);
  EXPECT_EQ(back.spreads[0].phase, "ramp");
  EXPECT_EQ(back.spreads[0].max_node, "n1");
  EXPECT_EQ(back.spreads[0].nodes, 4u);
  ASSERT_EQ(back.counters.size(), 1u);
  EXPECT_EQ(back.counters[0].name, "coordinator.frames");
  EXPECT_EQ(back.fleet_healthy, 0);
  EXPECT_EQ(back.nodes[0].lost, 1);
  EXPECT_DOUBLE_EQ(back.nodes[0].last_metrics_age_s, 4.25);
  ASSERT_EQ(back.alerts.size(), 1u);
  EXPECT_EQ(back.alerts[0].kind, "flatline");
  EXPECT_EQ(back.alerts[0].node, "n0");
  EXPECT_EQ(back.alerts[0].detail, "no metric update for 4.2 s");
  EXPECT_DOUBLE_EQ(back.alerts[0].t_s, 17.5);

  const cluster::Frame request_frame = cluster::StatusRequestMsg{}.encode();
  cluster::WireReader request_reader(request_frame.payload);
  EXPECT_EQ(cluster::StatusRequestMsg::decode(request_reader).version,
            cluster::kProtocolVersion);
}

}  // namespace
}  // namespace fs2::trace
