// Tests of the live metrics plane: log-bucketed histograms and their merge
// algebra, the kMetricUpdate delta protocol (tracker -> wire -> coordinator
// fold), the anomaly detector's alert rules, the flight recorder's bounded
// rings, the Prometheus exposition renderer, and two end-to-end loopback
// campaigns — one scraped over live HTTP mid-run, one with a node that goes
// silent and then dies so the flat-line and node-lost paths fire for real.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "cluster/coordinator.hpp"
#include "cluster/exposition.hpp"
#include "cluster/messages.hpp"
#include "cluster/metrics_plane.hpp"
#include "cluster/transport.hpp"
#include "cluster/wire.hpp"
#include "firestarter/config.hpp"
#include "firestarter/firestarter.hpp"
#include "firestarter/sim_fleet.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/metric_delta.hpp"
#include "trace/registry.hpp"
#include "trace/tracer.hpp"
#include "util/error.hpp"

namespace {

using namespace fs2;
using namespace fs2::cluster;

// ---- histogram --------------------------------------------------------------

TEST(Histogram, BucketsAreMonotonicAndClampAtEdges) {
  // The grid must be monotone so cumulative quantile walks make sense.
  double prev = 0.0;
  for (std::size_t i = 0; i < trace::Histogram::kBuckets; ++i) {
    const double upper = trace::Histogram::bucket_upper(i);
    EXPECT_GT(upper, prev) << "bucket " << i;
    prev = upper;
  }
  // Non-positive and NaN land in bucket 0 instead of corrupting the array.
  EXPECT_EQ(trace::Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(trace::Histogram::bucket_index(-1.0), 0u);
  EXPECT_EQ(trace::Histogram::bucket_index(std::nan("")), 0u);
  // Out-of-range magnitudes clamp to the edge buckets.
  EXPECT_EQ(trace::Histogram::bucket_index(1e-300), 0u);
  EXPECT_EQ(trace::Histogram::bucket_index(1e300), trace::Histogram::kBuckets - 1);
  // A value is never above its bucket's upper bound.
  for (double v : {1e-9, 3.7e-6, 0.25, 0.74, 0.76, 1.0, 512.0, 1.5e9}) {
    const std::size_t b = trace::Histogram::bucket_index(v);
    EXPECT_LE(v, trace::Histogram::bucket_upper(b)) << v;
    if (b > 0) {
      EXPECT_GE(v, trace::Histogram::bucket_upper(b - 1)) << v;
    }
  }
}

TEST(Histogram, QuantilesBracketTheDataAndClampToMax) {
  trace::Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  const trace::HistogramSnapshot snap = h.snapshot("h");
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_DOUBLE_EQ(snap.max, 1000.0);
  EXPECT_NEAR(snap.sum, 500500.0, 1e-6);
  // Log buckets are coarse (2 per octave) — the p50 bucket's upper bound
  // sits within one bucket width of the true median.
  const double p50 = snap.quantile(0.5);
  EXPECT_GE(p50, 500.0);
  EXPECT_LE(p50, 1000.0);
  EXPECT_LE(snap.quantile(0.5), snap.quantile(0.95));
  EXPECT_LE(snap.quantile(0.95), snap.quantile(0.99));
  // The top quantile clamps to the observed max, not the bucket bound.
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 1000.0);
  EXPECT_DOUBLE_EQ(trace::HistogramSnapshot{}.quantile(0.5), 0.0);
}

void expect_hist_equal(const trace::HistogramSnapshot& a,
                       const trace::HistogramSnapshot& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.max, b.max);
  EXPECT_NEAR(a.sum, b.sum, 1e-9 * (1.0 + std::abs(a.sum)));
  const std::size_t n = std::max(a.buckets.size(), b.buckets.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t av = i < a.buckets.size() ? a.buckets[i] : 0;
    const std::uint64_t bv = i < b.buckets.size() ? b.buckets[i] : 0;
    EXPECT_EQ(av, bv) << "bucket " << i;
  }
}

TEST(Histogram, MergeIsCommutativeAssociativeAndSplitInvariant) {
  trace::Histogram ha, hb, hc, whole;
  int k = 0;
  for (double v : {1e-6, 3e-4, 0.02, 0.02, 1.5, 88.0, 1e4, 2.5e7, 0.7, 0.8}) {
    (k % 3 == 0 ? ha : k % 3 == 1 ? hb : hc).record(v);
    whole.record(v);
    ++k;
  }
  const trace::HistogramSnapshot a = ha.snapshot("h");
  const trace::HistogramSnapshot b = hb.snapshot("h");
  const trace::HistogramSnapshot c = hc.snapshot("h");

  trace::HistogramSnapshot ab = a;
  ab.merge(b);
  trace::HistogramSnapshot ba = b;
  ba.merge(a);
  expect_hist_equal(ab, ba);  // merge(a,b) == merge(b,a)

  trace::HistogramSnapshot ab_c = ab;
  ab_c.merge(c);
  trace::HistogramSnapshot bc = b;
  bc.merge(c);
  trace::HistogramSnapshot a_bc = a;
  a_bc.merge(bc);
  expect_hist_equal(ab_c, a_bc);  // (a+b)+c == a+(b+c)

  // Splitting a stream across histograms and merging reproduces the whole.
  expect_hist_equal(ab_c, whole.snapshot("h"));
}

TEST(Registry, KindMismatchThrows) {
  trace::Registry reg;
  reg.counter("x");
  reg.gauge("g");
  reg.histogram("h");
  EXPECT_THROW(reg.histogram("x"), Error);
  EXPECT_THROW(reg.counter("g"), Error);
  EXPECT_THROW(reg.gauge("h"), Error);
  // Create-or-get returns the same instance.
  EXPECT_EQ(&reg.counter("x"), &reg.counter("x"));
  EXPECT_EQ(&reg.histogram("h"), &reg.histogram("h"));
}

// ---- kMetricUpdate wire + folding -------------------------------------------

TEST(MetricsPlane, MetricUpdateRoundTripsOnTheWire) {
  MetricUpdateMsg msg;
  msg.seq = 41;
  msg.t_agent_s = 12.75;
  msg.delta.defs = {{0, "a.count", trace::MetricKind::kCounter},
                    {1, "a.gauge", trace::MetricKind::kGauge},
                    {2, "a.hist", trace::MetricKind::kHistogram}};
  msg.delta.counters = {{0, 17}};
  msg.delta.gauges = {{1, -3.5}};
  trace::HistogramDeltaRec h;
  h.id = 2;
  h.count_delta = 3;
  h.sum_delta = 6.25;
  h.max = 4.0;
  h.buckets = {{63, 2}, {64, 1}};
  msg.delta.hists = {h};

  const Frame frame = msg.encode();
  EXPECT_EQ(frame.type, MessageType::kMetricUpdate);
  WireReader reader(frame.payload);
  const MetricUpdateMsg back = MetricUpdateMsg::decode(reader);
  EXPECT_EQ(back.seq, 41u);
  EXPECT_DOUBLE_EQ(back.t_agent_s, 12.75);
  ASSERT_EQ(back.delta.defs.size(), 3u);
  EXPECT_EQ(back.delta.defs[1].name, "a.gauge");
  EXPECT_EQ(back.delta.defs[2].kind, trace::MetricKind::kHistogram);
  ASSERT_EQ(back.delta.counters.size(), 1u);
  EXPECT_EQ(back.delta.counters[0].delta, 17u);
  ASSERT_EQ(back.delta.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(back.delta.gauges[0].value, -3.5);
  ASSERT_EQ(back.delta.hists.size(), 1u);
  EXPECT_EQ(back.delta.hists[0].count_delta, 3u);
  EXPECT_DOUBLE_EQ(back.delta.hists[0].max, 4.0);
  ASSERT_EQ(back.delta.hists[0].buckets.size(), 2u);
  EXPECT_EQ(back.delta.hists[0].buckets[0].first, 63u);
  EXPECT_EQ(back.delta.hists[0].buckets[1].second, 1u);
}

TEST(MetricsPlane, FlightRecordRoundTripsOnTheWire) {
  FlightRecordMsg msg;
  msg.reason = "n0: watchdog trip";
  msg.dump = "# fs2 flight recorder\n## alerts (1)\nflatline n0\n";
  const Frame frame = msg.encode();
  EXPECT_EQ(frame.type, MessageType::kFlightRecord);
  WireReader reader(frame.payload);
  const FlightRecordMsg back = FlightRecordMsg::decode(reader);
  EXPECT_EQ(back.reason, msg.reason);
  EXPECT_EQ(back.dump, msg.dump);
}

TEST(MetricsPlane, DeltaStreamFoldsBackToRegistryTotalsOverALongRun) {
  // A long run of small movements, collected every iteration, each delta
  // round-tripped through the wire and folded coordinator-side: the folded
  // series must equal the registry's final totals exactly.
  trace::Registry reg;
  trace::MetricDeltaTracker tracker(reg);
  MetricStore store;
  store.resize(1);
  std::uint32_t seq = 0;
  std::size_t defs_shipped = 0;

  trace::Counter& events = reg.counter("n.events");
  trace::Gauge& depth = reg.gauge("n.depth");
  trace::Histogram& lat = reg.histogram("n.latency_s");
  for (int i = 0; i < 200; ++i) {
    events.add(static_cast<std::uint64_t>(i % 7));
    depth.set(static_cast<double>(i));
    lat.record(1e-6 * static_cast<double>(1 + (i * 37) % 5000));
    if (i == 120) reg.counter("n.late_metric").add(9);  // def ships mid-stream

    trace::MetricDelta delta = tracker.collect();
    defs_shipped += delta.defs.size();
    if (delta.empty()) continue;
    MetricUpdateMsg msg;
    msg.seq = seq++;
    msg.t_agent_s = 0.1 * i;
    msg.delta = std::move(delta);
    const Frame frame = msg.encode();  // through the wire, like the real path
    WireReader reader(frame.payload);
    store.fold(0, MetricUpdateMsg::decode(reader), /*now_s=*/0.1 * i);
  }
  // An idle interval ships no defs, counter deltas, or histogram deltas —
  // only the (always re-shipped) gauge values.
  const trace::MetricDelta idle = tracker.collect();
  EXPECT_TRUE(idle.defs.empty());
  EXPECT_TRUE(idle.counters.empty());
  EXPECT_TRUE(idle.hists.empty());
  EXPECT_EQ(idle.gauges.size(), 1u);
  // Each metric's definition crossed the wire exactly once.
  EXPECT_EQ(defs_shipped, 4u);

  ASSERT_EQ(store.nodes().size(), 1u);
  const MetricStore::NodeSeries& series = store.nodes()[0];
  for (const trace::IndexedMetric& m : reg.indexed_snapshot()) {
    ASSERT_LT(m.id, series.defs.size());
    EXPECT_EQ(series.defs[m.id].name, m.name);
    switch (m.kind) {
      case trace::MetricKind::kCounter:
        EXPECT_EQ(series.counters[m.id], m.counter) << m.name;
        break;
      case trace::MetricKind::kGauge:
        EXPECT_DOUBLE_EQ(series.gauges[m.id], m.gauge) << m.name;
        break;
      case trace::MetricKind::kHistogram:
        expect_hist_equal(series.hists[m.id], m.hist);
        break;
    }
  }
  EXPECT_EQ(series.updates, 200u);
}

TEST(MetricsPlane, RollupSumsCountersAndMergesHistogramsAcrossNodes) {
  MetricStore store;
  store.resize(2);
  // Two nodes with the same metric NAMES but different local ids — the
  // rollup must key on names, not ids.
  for (std::size_t node = 0; node < 2; ++node) {
    trace::Registry reg;
    if (node == 1) reg.gauge("pad");  // shifts ids on node 1
    reg.counter("frames").add(10 * (node + 1));
    reg.gauge("phase").set(static_cast<double>(node));
    reg.histogram("drain_s").record(0.001 * (node + 1));
    trace::MetricDeltaTracker tracker(reg);
    MetricUpdateMsg msg;
    msg.delta = tracker.collect();
    store.fold(node, msg, /*now_s=*/1.0);
  }
  const MetricStore::Rollup rollup = store.rollup();
  auto frames = std::find_if(rollup.counters.begin(), rollup.counters.end(),
                             [](const auto& p) { return p.first == "frames"; });
  ASSERT_NE(frames, rollup.counters.end());
  EXPECT_EQ(frames->second, 30u);
  ASSERT_EQ(rollup.hists.size(), 1u);
  EXPECT_EQ(rollup.hists[0].name, "drain_s");
  EXPECT_EQ(rollup.hists[0].count, 2u);
  EXPECT_DOUBLE_EQ(rollup.hists[0].max, 0.002);
  // Gauges stay per-node; they never appear in a fleet rollup.
  for (const auto& [name, value] : rollup.counters) EXPECT_NE(name, "phase");
  EXPECT_DOUBLE_EQ(store.age_s(0, 3.5), 2.5);
  EXPECT_DOUBLE_EQ(store.age_s(7, 3.5), -1.0);
}

// ---- anomaly detector -------------------------------------------------------

TEST(AnomalyDetector, FlatlineIsEdgeTriggeredAndClearsOnResume) {
  AnomalyDetector::Options opt;
  opt.metrics_interval_s = 1.0;
  opt.flatline_intervals = 3.0;
  AnomalyDetector det(opt, 2);
  det.set_node_name(0, "n0");
  det.set_node_name(1, "n1");

  det.on_metric_update(0, 0.0);
  det.sweep(2.0);  // within 3 intervals — quiet
  EXPECT_TRUE(det.alerts().empty());
  det.sweep(4.0);  // n0 silent for 4 s; n1 never shipped — only n0 flagged
  ASSERT_EQ(det.alerts().size(), 1u);
  EXPECT_EQ(det.alerts()[0].kind, "flatline");
  EXPECT_EQ(det.alerts()[0].node, "n0");
  EXPECT_FALSE(det.node_healthy(0));
  EXPECT_FALSE(det.fleet_healthy());
  det.sweep(5.0);  // edge-triggered: no duplicate while still flat
  EXPECT_EQ(det.alerts().size(), 1u);

  det.on_metric_update(0, 6.0);  // resumed — healthy again, history kept
  EXPECT_TRUE(det.node_healthy(0));
  EXPECT_TRUE(det.fleet_healthy());
  det.sweep(10.5);  // a second excursion raises a second alert
  EXPECT_EQ(det.alerts().size(), 2u);
}

TEST(AnomalyDetector, DoneNodesAreExemptFromTheFlatlineSweep) {
  AnomalyDetector::Options opt;
  opt.metrics_interval_s = 1.0;
  AnomalyDetector det(opt, 1);
  det.set_node_name(0, "n0");
  det.on_metric_update(0, 0.0);
  det.on_node_done(0);  // verdict delivered — silence is expected now
  det.sweep(100.0);
  EXPECT_TRUE(det.alerts().empty());
  EXPECT_TRUE(det.node_healthy(0));
}

TEST(AnomalyDetector, DivergenceNeedsConsecutiveWindowsAndRecovers) {
  AnomalyDetector::Options opt;
  opt.divergence_band = 0.1;
  opt.divergence_windows = 4;
  AnomalyDetector det(opt, 1);
  det.set_node_name(0, "n0");

  for (int i = 0; i < 3; ++i) det.on_budget_report(0, 50.0, 100.0, i);
  det.on_budget_report(0, 99.0, 100.0, 3.0);  // back in band — streak resets
  for (int i = 0; i < 3; ++i) det.on_budget_report(0, 50.0, 100.0, 4.0 + i);
  EXPECT_TRUE(det.alerts().empty());
  det.on_budget_report(0, 50.0, 100.0, 7.0);  // 4th consecutive — alert
  ASSERT_EQ(det.alerts().size(), 1u);
  EXPECT_EQ(det.alerts()[0].kind, "divergence");
  EXPECT_FALSE(det.node_healthy(0));
  det.on_budget_report(0, 101.0, 100.0, 8.0);  // recovery is level-triggered
  EXPECT_TRUE(det.node_healthy(0));
  EXPECT_EQ(det.alerts().size(), 1u);
}

TEST(AnomalyDetector, StragglerAndNodeLostAlerts) {
  AnomalyDetector::Options opt;
  opt.sync_tolerance_s = 0.25;
  AnomalyDetector det(opt, 2);
  det.set_node_name(0, "n0");
  det.set_node_name(1, "n1");

  det.on_phase_spread("ramp", "n1", 0.1, 1.0);  // within tolerance
  EXPECT_TRUE(det.alerts().empty());
  det.on_phase_spread("hold", "n1", 0.6, 2.0);
  ASSERT_EQ(det.alerts().size(), 1u);
  EXPECT_EQ(det.alerts()[0].kind, "straggler");
  EXPECT_EQ(det.alerts()[0].node, "n1");

  det.on_node_lost(0, "read EOF", 3.0);
  det.on_node_lost(0, "again", 4.0);  // idempotent — one alert per loss
  ASSERT_EQ(det.alerts().size(), 2u);
  EXPECT_EQ(det.alerts()[1].kind, "node-lost");
  EXPECT_FALSE(det.node_healthy(0));
  EXPECT_FALSE(det.fleet_healthy());

  // take_new() is a watermark, not a drain of the history.
  EXPECT_EQ(det.take_new().size(), 2u);
  EXPECT_TRUE(det.take_new().empty());
  EXPECT_EQ(det.alerts().size(), 2u);
  det.on_phase_spread("cool", "n0", 0.9, 5.0);
  EXPECT_EQ(det.take_new().size(), 1u);
}

// ---- flight recorder --------------------------------------------------------

TEST(FlightRecorder, RingsAreBoundedAndDumpWritesTheFile) {
  trace::FlightRecorder& rec = trace::FlightRecorder::instance();
  rec.reset();
  for (int i = 0; i < 100; ++i)
    rec.note_alert("alert-" + std::to_string(i));
  rec.note_event("event-line");
  rec.note_metrics("metrics-line");

  const std::string text = rec.serialize();
  EXPECT_NE(text.find("# fs2 flight recorder"), std::string::npos);
  EXPECT_NE(text.find("## alerts (64)"), std::string::npos);
  // Oldest entries were evicted; the newest survive.
  EXPECT_EQ(text.find("alert-35\n"), std::string::npos);
  EXPECT_NE(text.find("alert-36"), std::string::npos);
  EXPECT_NE(text.find("alert-99"), std::string::npos);
  EXPECT_NE(text.find("event-line"), std::string::npos);
  EXPECT_NE(text.find("metrics-line"), std::string::npos);

  const std::string path = "fs2_test_flight_dump.txt";
  rec.configure(path);
  rec.dump("unit-test reason");
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("# reason: unit-test reason"), std::string::npos);
  EXPECT_NE(buffer.str().find("alert-99"), std::string::npos);
  rec.reset();
  std::remove(path.c_str());
}

// ---- exposition -------------------------------------------------------------

TEST(Exposition, SanitizesNamesAndRendersAllSections) {
  EXPECT_EQ(exposition_name("cluster.bus.drain_s"), "fs2_cluster_bus_drain_s");
  EXPECT_EQ(exposition_name("rx/frames-total"), "fs2_rx_frames_total");

  std::vector<trace::MetricSnapshot> local;
  local.push_back(trace::MetricSnapshot{"coordinator.http_requests", 3.0, true});
  trace::Histogram rx;
  rx.record(128.0);
  rx.record(1024.0);
  std::vector<trace::HistogramSnapshot> local_hists{rx.snapshot("rx.frame_bytes")};

  MetricStore store;
  store.resize(1);
  trace::Registry reg;
  reg.counter("agent.budget_exchanges").add(12);
  reg.gauge("agent.achieved_w").set(251.5);
  reg.histogram("agent.ctl_error_w").record(0.6);
  trace::MetricDeltaTracker tracker(reg);
  MetricUpdateMsg msg;
  msg.delta = tracker.collect();
  store.fold(0, msg, 1.0);

  std::vector<ExpositionNode> nodes(1);
  nodes[0].name = "n0-zen2";
  nodes[0].phases_begun = 2;
  nodes[0].phases_ended = 1;
  nodes[0].metrics_age_s = 0.4;

  const std::string out =
      render_metrics(local, local_hists, store, nodes, /*alert_count=*/2,
                     /*fleet_healthy=*/false);
  EXPECT_NE(out.find("# TYPE fs2_fleet_nodes gauge\nfs2_fleet_nodes 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("fs2_fleet_healthy 0"), std::string::npos);
  EXPECT_NE(out.find("fs2_fleet_alerts_total 2"), std::string::npos);
  // Coordinator-local counter and histogram summary.
  EXPECT_NE(out.find("# TYPE fs2_coordinator_http_requests counter"),
            std::string::npos);
  EXPECT_NE(out.find("fs2_rx_frame_bytes{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(out.find("fs2_rx_frame_bytes_count 2"), std::string::npos);
  // Fleet rollups from the folded stream.
  EXPECT_NE(out.find("fs2_fleet_agent_budget_exchanges 12"), std::string::npos);
  EXPECT_NE(out.find("fs2_fleet_agent_ctl_error_w{quantile=\"0.99\"}"),
            std::string::npos);
  // Per-node gauges with {node=...} labels, both built-in and plane-shipped.
  EXPECT_NE(out.find("fs2_node_up{node=\"n0-zen2\"} 1"), std::string::npos);
  EXPECT_NE(out.find("fs2_node_phases_begun{node=\"n0-zen2\"} 2"),
            std::string::npos);
  EXPECT_NE(out.find("fs2_agent_achieved_w{node=\"n0-zen2\"} 251.5"),
            std::string::npos);
}

// ---- end-to-end -------------------------------------------------------------

/// One raw HTTP/1.1 request against the coordinator port. The framed
/// Connection class can't speak HTTP, so this goes straight to the socket —
/// exactly what curl or a Prometheus scraper would do.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  // The listener fd outlives run() (the Coordinator object owns it), so a
  // probe that lands after the event loop exits connects but is never
  // accepted — timeouts turn that into an empty reply instead of a hang.
  timeval tv{};
  tv.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(Exposition, ServesMetricsAndHealthzOverHttpMidRun) {
  Coordinator::Options options;
  options.port = 0;
  options.loopback_only = true;
  options.nodes = 1;
  options.campaign_text = "phase name=p duration=6 profile=constant:50\n";
  options.phase_count = 1;
  // The epoch delay parks the fleet inside the event loop long enough for
  // the scrapes to land mid-run.
  options.start_delay_s = 1.5;
  options.metrics_interval_s = 0.25;
  Coordinator coordinator(options);
  const std::uint16_t port = coordinator.port();
  Coordinator::Result result;
  std::ostringstream out;
  std::thread run_thread([&] { result = coordinator.run(out); });

  firestarter::Config cfg;
  cfg.log_level = "error";
  const auto specs = firestarter::parse_loopback_specs("zen2@1500");
  std::unique_ptr<firestarter::SimFleet> fleet;
  std::thread fleet_thread([&] {
    fleet = std::make_unique<firestarter::SimFleet>(cfg, specs, port);
    fleet->run();
  });

  std::string metrics;
  std::string healthz;
  for (int attempt = 0; attempt < 300; ++attempt) {
    const std::string body = http_get(port, "/metrics");
    if (body.find("HTTP/1.1 200") != std::string::npos &&
        body.find("fs2_node_up{node=\"n0-zen2\"} 1") != std::string::npos) {
      metrics = body;
      healthz = http_get(port, "/healthz");
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  run_thread.join();
  fleet_thread.join();

  ASSERT_FALSE(metrics.empty()) << "no live /metrics scrape landed mid-run";
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(metrics.find("# TYPE fs2_fleet_nodes gauge"), std::string::npos);
  EXPECT_NE(metrics.find("fs2_fleet_healthy 1"), std::string::npos);
  // The in-process reactor records its poll-wait histogram into the global
  // registry, so quantile summaries are live on the scrape.
  EXPECT_NE(metrics.find("quantile=\"0.5\""), std::string::npos);
  EXPECT_NE(healthz.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(healthz.find("ok"), std::string::npos);
  ASSERT_TRUE(fleet != nullptr);
  EXPECT_TRUE(fleet->all_ok());
  EXPECT_TRUE(result.nodes_converged);
}

/// A protocol-correct agent that handshakes, begins phase 0, ships one
/// metric update, then goes silent (flat-line) and finally drops the
/// connection (node-lost). Drives the full anomaly path without any
/// dependence on timing inside a real workload.
class SilentAgent {
 public:
  explicit SilentAgent(std::uint16_t port)
      : conn_(Connection::connect("127.0.0.1:" + std::to_string(port),
                                  /*retry_for_s=*/5.0)) {
    HelloMsg hello;
    hello.node_name = "ghost";
    hello.sku = "test";
    conn_.send(hello.encode());
    bool have_campaign = false;
    bool have_epoch = false;
    while (!have_campaign || !have_epoch) {
      const auto frame = conn_.recv(/*timeout_s=*/10.0);
      if (!frame) throw Error("ghost: coordinator silent during handshake");
      WireReader reader(frame->payload);
      switch (frame->type) {
        case MessageType::kSyncProbe: {
          const SyncProbeMsg probe = SyncProbeMsg::decode(reader);
          SyncReplyMsg reply;
          reply.seq = probe.seq;
          reply.t_coord_s = probe.t_coord_s;
          reply.t_agent_s =
              std::chrono::duration<double>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count();
          conn_.send(reply.encode());
          break;
        }
        case MessageType::kCampaign:
          campaign_ = CampaignMsg::decode(reader);
          have_campaign = true;
          break;
        case MessageType::kEpoch:
          (void)EpochMsg::decode(reader);
          have_epoch = true;
          break;
        default:
          throw Error(std::string("ghost: unexpected ") + to_string(frame->type) +
                      " in handshake");
      }
    }
  }

  void begin_phase_and_ship_one_update() {
    PhaseBracketMsg bracket;
    bracket.is_begin = 1;
    bracket.phase_index = 0;
    bracket.phase_name = "p";
    bracket.duration_s = 6.0;
    bracket.epoch_elapsed_s = 0.01;
    conn_.send(bracket.encode());

    trace::Registry reg;
    reg.counter("ghost.heartbeats").add(1);
    trace::MetricDeltaTracker tracker(reg);
    MetricUpdateMsg msg;
    msg.seq = 0;
    msg.t_agent_s = 0.02;
    msg.delta = tracker.collect();
    conn_.send(msg.encode());
  }

  void drop() { conn_.close(); }

  double metrics_interval_s() const { return campaign_.metrics_interval_s; }

 private:
  Connection conn_;
  CampaignMsg campaign_;
};

TEST(AnomalyDetector, SilentNodeRaisesFlatlineThenNodeLostEndToEnd) {
  trace::FlightRecorder::instance().reset();
  const std::string flight_path = "fs2_test_flight_e2e.txt";
  trace::FlightRecorder::instance().configure(flight_path);

  Coordinator::Options options;
  options.port = 0;
  options.loopback_only = true;
  options.nodes = 2;
  options.campaign_text = "phase name=p duration=6 profile=constant:50\n";
  options.phase_count = 1;
  options.start_delay_s = 1.0;
  options.metrics_interval_s = 0.25;  // flat-line limit = 0.75 s
  Coordinator coordinator(options);
  const std::uint16_t port = coordinator.port();
  const std::string endpoint = "127.0.0.1:" + std::to_string(port);
  Coordinator::Result result;
  std::ostringstream out;
  std::thread run_thread([&] { result = coordinator.run(out); });

  firestarter::Config cfg;
  cfg.log_level = "error";
  const auto specs = firestarter::parse_loopback_specs("zen2@1500");
  std::unique_ptr<firestarter::SimFleet> fleet;
  std::thread fleet_thread([&] {
    fleet = std::make_unique<firestarter::SimFleet>(cfg, specs, port);
    fleet->run();
  });

  std::atomic<bool> release{false};
  std::thread ghost_thread([&] {
    SilentAgent ghost(port);
    EXPECT_DOUBLE_EQ(ghost.metrics_interval_s(), 0.25);
    ghost.begin_phase_and_ship_one_update();
    // Stay connected but silent until the main thread has observed the
    // flat-line, then hang up to trigger the node-lost path.
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ghost.drop();
  });

  // Probe the status plane until the ghost's silence trips the detector.
  bool saw_unhealthy = false;
  bool saw_flatline_row = false;
  for (int attempt = 0; attempt < 500 && !saw_unhealthy; ++attempt) {
    try {
      Connection probe = Connection::connect(endpoint, /*retry_for_s=*/0.2);
      probe.send(StatusRequestMsg{}.encode());
      const auto frame = probe.recv(/*timeout_s=*/2.0);
      if (!frame || frame->type != MessageType::kStatusReply) break;
      WireReader reader(frame->payload);
      const StatusReplyMsg reply = StatusReplyMsg::decode(reader);
      if (reply.fleet_healthy == 0) {
        saw_unhealthy = true;
        for (const StatusAlertRec& alert : reply.alerts)
          if (alert.kind == "flatline" && alert.node == "ghost")
            saw_flatline_row = true;
      }
    } catch (const Error&) {
      break;  // run ended before we caught it — the assertions below will say
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(saw_unhealthy);
  EXPECT_TRUE(saw_flatline_row);

  // Satellite contract: `fs2 --status` exits nonzero against an unhealthy
  // fleet, and says so.
  if (saw_unhealthy) {
    firestarter::Config status_cfg;
    status_cfg.status_endpoint = endpoint;
    status_cfg.log_level = "error";
    std::ostringstream status_out;
    firestarter::Firestarter status_app(status_cfg, status_out);
    EXPECT_NE(status_app.run(), 0) << status_out.str();
    EXPECT_NE(status_out.str().find("UNHEALTHY"), std::string::npos)
        << status_out.str();
    EXPECT_NE(status_out.str().find("flatline"), std::string::npos)
        << status_out.str();
  }

  release.store(true);
  ghost_thread.join();
  run_thread.join();
  fleet_thread.join();

  // The run survived the loss: the healthy node converged, the ghost is
  // recorded as lost, and the alert log tells the whole story in order.
  EXPECT_FALSE(result.nodes_converged);
  bool flatline_alert = false;
  bool lost_alert = false;
  for (const Alert& alert : result.alerts) {
    if (alert.kind == "flatline" && alert.node == "ghost") flatline_alert = true;
    if (alert.kind == "node-lost" && alert.node == "ghost") lost_alert = true;
  }
  EXPECT_TRUE(flatline_alert);
  EXPECT_TRUE(lost_alert);
  ASSERT_TRUE(fleet != nullptr);
  EXPECT_TRUE(fleet->all_ok());

  // The flight recorder dumped to --flight-out (the node loss writes one,
  // and the end-of-run dump rewrites it with the full alert ring).
  std::ifstream in(flight_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("# reason:"), std::string::npos) << buffer.str();
  EXPECT_NE(buffer.str().find("[node-lost] node=ghost"), std::string::npos)
      << buffer.str();
  EXPECT_NE(buffer.str().find("[flatline] node=ghost"), std::string::npos)
      << buffer.str();
  trace::FlightRecorder::instance().reset();
  std::remove(flight_path.c_str());
}

}  // namespace
