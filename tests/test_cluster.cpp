// Tests of the cluster orchestration subsystem: wire encoding, framed TCP
// transport, RTT-compensated clock sync, budget apportioning, the
// coordinator-side telemetry merge, and the full loopback fleet —
// coordinator plus heterogeneous in-process sim agents exercising the
// whole protocol over real localhost sockets, deterministically.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <thread>

#include "cluster/agent.hpp"
#include "cluster/clock_sync.hpp"
#include "cluster/cluster_bus.hpp"
#include "cluster/coordinator.hpp"
#include "cluster/messages.hpp"
#include "cluster/remote_sink.hpp"
#include "cluster/transport.hpp"
#include "cluster/wire.hpp"
#include "control/budget.hpp"
#include "firestarter/config.hpp"
#include "firestarter/firestarter.hpp"
#include "firestarter/sim_fleet.hpp"
#include "sim/machine_config.hpp"
#include "trace/tracer.hpp"

namespace {

using namespace fs2;
using namespace fs2::cluster;

// ---- wire -------------------------------------------------------------------

TEST(Wire, RoundTripsPrimitives) {
  WireWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-273.15);
  w.str("fs2");
  w.str("");
  WireReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(r.f64(), -273.15);
  EXPECT_EQ(r.str(), "fs2");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(Wire, TruncatedReadThrows) {
  WireWriter w;
  w.u32(7);
  WireReader r(w.bytes());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_THROW(r.u8(), WireError);
  // A string length pointing past the end must not read out of bounds.
  WireWriter bad;
  bad.u32(1000);  // claims a 1000-byte string with no bytes following
  WireReader r2(bad.bytes());
  EXPECT_THROW(r2.str(), WireError);
}

// ---- messages ---------------------------------------------------------------

TEST(Messages, CampaignRoundTrip) {
  CampaignMsg msg;
  msg.campaign_text = "phase name=x duration=5\n";
  msg.has_budget = 1;
  msg.initial_setpoint_w = 250.0;
  msg.ctl_interval_s = 0.25;
  msg.budget_interval_s = 0.5;
  msg.budget_band = 0.02;
  const Frame frame = msg.encode();
  EXPECT_EQ(frame.type, MessageType::kCampaign);
  WireReader r(frame.payload);
  const CampaignMsg back = CampaignMsg::decode(r);
  EXPECT_EQ(back.campaign_text, msg.campaign_text);
  EXPECT_EQ(back.has_budget, 1);
  EXPECT_DOUBLE_EQ(back.initial_setpoint_w, 250.0);
  EXPECT_DOUBLE_EQ(back.budget_interval_s, 0.5);
}

TEST(Messages, SampleBatchRoundTrip) {
  SampleBatchMsg msg;
  msg.channel_id = 3;
  for (int i = 0; i < 300; ++i)
    msg.samples.push_back(telemetry::Sample{i * 0.05, 100.0 + i});
  const Frame frame = msg.encode();
  WireReader r(frame.payload);
  const SampleBatchMsg back = SampleBatchMsg::decode(r);
  ASSERT_EQ(back.samples.size(), 300u);
  EXPECT_DOUBLE_EQ(back.samples[299].time_s, 299 * 0.05);
  EXPECT_DOUBLE_EQ(back.samples[0].value, 100.0);
}

TEST(Messages, SampleBatchScratchReuseMatchesFreshDecode) {
  // The hot path encodes from a reused writer and decodes into a reused
  // message; both must agree with the allocating round trip bit for bit.
  std::vector<telemetry::Sample> samples;
  for (int i = 0; i < 100; ++i)
    samples.push_back(telemetry::Sample{i * 0.25, 300.0 - i});
  WireWriter scratch;
  scratch.u32(999);  // stale content the clear() must discard
  SampleBatchMsg::encode_into(scratch, 7, samples.data(), samples.size());

  SampleBatchMsg reused;
  reused.samples.assign(512, telemetry::Sample{9.0, 9.0});  // stale capacity
  WireReader r1(scratch.bytes());
  SampleBatchMsg::decode_into(r1, reused);
  EXPECT_EQ(reused.channel_id, 7u);
  ASSERT_EQ(reused.samples.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(reused.samples[i].time_s, samples[i].time_s);
    EXPECT_DOUBLE_EQ(reused.samples[i].value, samples[i].value);
  }
}

TEST(Messages, SampleBatchRejectsHostileCount) {
  // A batch claiming 2^31 samples with a tiny payload must throw, not
  // allocate gigabytes.
  WireWriter w;
  w.u32(1);            // channel
  w.u32(0x80000000u);  // sample count
  WireReader r(w.bytes());
  EXPECT_THROW(SampleBatchMsg::decode(r), WireError);
}

TEST(Messages, PhaseBracketRoundTrip) {
  PhaseBracketMsg msg;
  msg.is_begin = 1;
  msg.phase_index = 2;
  msg.phase_name = "swing";
  msg.duration_s = 30.0;
  msg.time_offset_s = 40.0;
  msg.start_delta_s = 5.0;
  msg.stop_delta_s = 2.0;
  msg.epoch_elapsed_s = 40.123;
  const Frame frame = msg.encode();
  WireReader r(frame.payload);
  const PhaseBracketMsg back = PhaseBracketMsg::decode(r);
  EXPECT_EQ(back.phase_index, 2u);
  EXPECT_EQ(back.phase_name, "swing");
  EXPECT_DOUBLE_EQ(back.epoch_elapsed_s, 40.123);
}

// ---- transport --------------------------------------------------------------

TEST(Transport, FramesRoundTripOverLoopback) {
  Listener listener(0, /*loopback_only=*/true);
  ASSERT_GT(listener.port(), 0);

  std::thread client([port = listener.port()] {
    Connection conn = Connection::connect("127.0.0.1:" + std::to_string(port));
    HelloMsg hello;
    hello.node_name = "tester";
    hello.sku = "sim-zen2";
    conn.send(hello.encode());
    const auto reply = conn.recv(5.0);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, MessageType::kShutdown);
  });

  Connection server = listener.accept(5.0);
  const auto frame = server.recv(5.0);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, MessageType::kHello);
  WireReader r(frame->payload);
  EXPECT_EQ(HelloMsg::decode(r).node_name, "tester");
  ShutdownMsg shutdown;
  server.send(shutdown.encode());
  client.join();
}

TEST(Transport, PeerDisconnectThrowsWireError) {
  Listener listener(0, /*loopback_only=*/true);
  std::thread client([port = listener.port()] {
    Connection conn = Connection::connect("127.0.0.1:" + std::to_string(port));
    // Close immediately without sending a frame.
  });
  Connection server = listener.accept(5.0);
  client.join();
  EXPECT_THROW(server.recv(5.0), WireError);
}

TEST(Transport, AcceptTimesOutWithClearError) {
  Listener listener(0, /*loopback_only=*/true);
  try {
    listener.accept(0.05);
    FAIL() << "expected a timeout error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no agent connected"), std::string::npos);
  }
}

// ---- clock sync -------------------------------------------------------------

TEST(ClockSync, LoopbackOffsetIsTiny) {
  Listener listener(0, /*loopback_only=*/true);
  std::thread agent([port = listener.port()] {
    Connection conn = Connection::connect("127.0.0.1:" + std::to_string(port));
    // Answer probes until the coordinator side closes.
    for (;;) {
      std::optional<Frame> frame;
      try {
        frame = conn.recv(5.0);
      } catch (const WireError&) {
        return;
      }
      if (!frame || frame->type != MessageType::kSyncProbe) return;
      WireReader r(frame->payload);
      const SyncProbeMsg probe = SyncProbeMsg::decode(r);
      SyncReplyMsg reply;
      reply.seq = probe.seq;
      reply.t_coord_s = probe.t_coord_s;
      reply.t_agent_s = local_clock_s();
      conn.send(reply.encode());
    }
  });
  {
    Connection conn = listener.accept(5.0);
    const ClockSyncResult sync = run_clock_sync(conn, 8);
    EXPECT_EQ(sync.rounds, 8);
    EXPECT_GT(sync.rtt_s, 0.0);
    EXPECT_LT(sync.rtt_s, 0.1);
    // Same process, same steady clock: the estimated offset must be
    // bounded by the round trip.
    EXPECT_LT(std::abs(sync.offset_s), sync.rtt_s);
  }
  agent.join();
}

// ---- budget apportioner -----------------------------------------------------

TEST(Budget, AssignmentsSumToBudgetAndFollowAchieved) {
  control::BudgetApportioner budget(600.0, 2);
  EXPECT_DOUBLE_EQ(budget.initial_share_w(), 300.0);
  // Node 0 delivers more than node 1: its share grows proportionally.
  const double w0 = budget.on_report(0, 400.0);
  // total = 400 + 300 (node 1 assumed at initial share) = 700
  EXPECT_NEAR(w0, 400.0 * 600.0 / 700.0, 1e-9);
  const double w1 = budget.on_report(1, 200.0);
  EXPECT_NEAR(w1, 200.0 * 600.0 / 600.0, 1e-9);
  EXPECT_NEAR(budget.total_achieved_w(), 600.0, 1e-9);
}

TEST(Budget, AllIdleFleetFallsBackToEqualShares) {
  control::BudgetApportioner budget(500.0, 4);
  EXPECT_DOUBLE_EQ(budget.on_report(2, 0.0), 125.0);
}

TEST(Budget, ConvergenceJudgesTrailingWindow) {
  control::BudgetApportioner budget(500.0, 2);
  budget.begin_window();
  EXPECT_FALSE(budget.converged(0.02));  // no data yet
  // Ramp far from target, then settle on it: trailing window forgives the
  // ramp.
  for (int i = 0; i < 10; ++i) {
    budget.on_report(0, 100.0);
    budget.on_report(1, 100.0);
  }
  EXPECT_FALSE(budget.converged(0.02));
  for (int i = 0; i < 60; ++i) {
    budget.on_report(0, 251.0);
    budget.on_report(1, 250.0);
  }
  EXPECT_TRUE(budget.converged(0.02));
  EXPECT_NEAR(budget.trailing_total_w(), 501.0, 1.0);
  // A fresh window forgets the settled history.
  budget.begin_window();
  EXPECT_FALSE(budget.converged(0.02));
}

TEST(Budget, SetpointParsesClusterPower) {
  const control::Setpoint sp = control::Setpoint::parse("cluster-power=2000W,band=5");
  EXPECT_EQ(sp.variable, control::ControlVariable::kClusterPower);
  EXPECT_DOUBLE_EQ(sp.value, 2000.0);
  EXPECT_DOUBLE_EQ(sp.band, 0.05);
  EXPECT_DOUBLE_EQ(sp.interval_s, 0.5);  // cluster default cadence
  EXPECT_THROW(control::Setpoint::parse("cluster-power=0W"), ConfigError);
}

// ---- cluster bus ------------------------------------------------------------

ChannelMsg make_channel(std::uint32_t id, const std::string& name, const std::string& unit) {
  ChannelMsg msg;
  msg.channel_id = id;
  msg.name = name;
  msg.unit = unit;
  return msg;
}

PhaseBracketMsg make_bracket(bool begin, std::uint32_t index, const std::string& name,
                             double epoch_elapsed_s) {
  PhaseBracketMsg msg;
  msg.is_begin = begin ? 1 : 0;
  msg.phase_index = index;
  msg.phase_name = name;
  msg.duration_s = 10.0;
  msg.epoch_elapsed_s = epoch_elapsed_s;
  return msg;
}

SampleBatchMsg make_batch(std::uint32_t id, std::initializer_list<double> values) {
  SampleBatchMsg msg;
  msg.channel_id = id;
  double t = 0.0;
  for (double v : values) msg.samples.push_back(telemetry::Sample{t += 1.0, v});
  return msg;
}

/// Edge-summarized row the v2 protocol ships at phase end (mean is all the
/// merge tests check; the other statistics travel verbatim anyway).
NodeSummaryMsg make_summary(std::uint32_t phase_index, const std::string& name,
                            const std::string& unit, double mean) {
  NodeSummaryMsg msg;
  msg.phase_index = phase_index;
  msg.name = name;
  msg.unit = unit;
  msg.samples = 3;
  msg.mean = mean;
  return msg;
}

TEST(ClusterBusTest, MergesPerNodeRowsAndAggregates) {
  ClusterBus bus({"alpha", "beta"});
  for (std::size_t node = 0; node < 2; ++node) {
    bus.on_channel(node, make_channel(0, "sim-wall-power", "W"));
    bus.on_channel(node, make_channel(1, "sim-package-temp", "degC"));
  }
  bus.on_bracket(0, make_bracket(true, 0, "hold", 1.001));
  bus.on_bracket(1, make_bracket(true, 0, "hold", 1.004));
  bus.on_samples(0, make_batch(0, {100.0, 110.0, 120.0}));
  bus.on_samples(1, make_batch(0, {200.0, 210.0, 220.0}));
  bus.on_samples(0, make_batch(1, {50.0, 55.0, 60.0}));
  bus.on_samples(1, make_batch(1, {70.0, 65.0, 40.0}));
  // Per-node rows arrive pre-aggregated from the edge, before the end
  // bracket (the agent's RemoteSink sends them at phase end).
  bus.on_summary(0, make_summary(0, "sim-wall-power", "W", 110.0));
  bus.on_summary(1, make_summary(0, "sim-wall-power", "W", 210.0));
  bus.on_bracket(0, make_bracket(false, 0, "hold", 11.0));
  bus.on_bracket(1, make_bracket(false, 0, "hold", 11.0));
  bus.finish();

  const auto rows = bus.merged_rows();
  auto find = [&rows](const std::string& name, const std::string& node) {
    for (const ClusterBus::Row& row : rows)
      if (row.summary.name == name && row.node == node) return row.summary;
    ADD_FAILURE() << "missing row " << name << " / " << node;
    return metrics::Summary{};
  };
  EXPECT_NEAR(find("sim-wall-power", "alpha").mean, 110.0, 1e-9);
  EXPECT_NEAR(find("sim-wall-power", "beta").mean, 210.0, 1e-9);
  // Cluster power: per-index sums 300/320/340.
  const metrics::Summary power = find("cluster-power", "cluster");
  EXPECT_EQ(power.samples, 3u);
  EXPECT_NEAR(power.mean, 320.0, 1e-9);
  EXPECT_NEAR(power.max, 340.0, 1e-9);
  // Cluster temp: per-index maxes 70/65/60.
  const metrics::Summary temp = find("cluster-temp-max", "cluster");
  EXPECT_NEAR(temp.mean, 65.0, 1e-9);
  EXPECT_NEAR(temp.min, 60.0, 1e-9);

  ASSERT_EQ(bus.phase_sync().size(), 1u);
  EXPECT_EQ(bus.phase_sync()[0].name, "hold");
  EXPECT_NEAR(bus.phase_sync()[0].spread_s(), 0.003, 1e-9);
}

TEST(ClusterBusTest, NonParticipantDoesNotStallAggregates) {
  // Node beta has no power channel: cluster-power is alpha alone.
  ClusterBus bus({"alpha", "beta"});
  bus.on_channel(0, make_channel(0, "sim-wall-power", "W"));
  bus.on_channel(1, make_channel(0, "load-level", "fraction"));
  bus.on_bracket(0, make_bracket(true, 0, "p", 0.0));
  bus.on_bracket(1, make_bracket(true, 0, "p", 0.0));
  bus.on_samples(0, make_batch(0, {100.0, 120.0}));
  bus.on_samples(1, make_batch(0, {0.5, 0.5}));
  bus.on_bracket(0, make_bracket(false, 0, "p", 2.0));
  bus.on_bracket(1, make_bracket(false, 0, "p", 2.0));
  bus.finish();
  for (const ClusterBus::Row& row : bus.merged_rows())
    if (row.summary.name == "cluster-power") {
      EXPECT_NEAR(row.summary.mean, 110.0, 1e-9);
      return;
    }
  FAIL() << "cluster-power row missing";
}

TEST(ClusterBusTest, ChannelRegisteredMidPhaseStillAggregates) {
  // Host agents register sensor channels from inside the first phase (the
  // begin bracket is on the wire before the metric set spins up). The
  // stream must still aggregate that phase and must not leak its samples
  // into the next one.
  ClusterBus bus({"alpha"});
  bus.on_bracket(0, make_bracket(true, 0, "p1", 0.0));
  bus.on_channel(0, make_channel(0, "sysfs-powercap-rapl", "W"));
  bus.on_samples(0, make_batch(0, {100.0, 120.0}));
  bus.on_bracket(0, make_bracket(false, 0, "p1", 2.0));
  bus.on_bracket(0, make_bracket(true, 1, "p2", 3.0));
  bus.on_samples(0, make_batch(0, {200.0, 200.0}));
  bus.on_bracket(0, make_bracket(false, 1, "p2", 5.0));
  bus.finish();
  const auto rows = bus.merged_rows();
  double p1 = -1.0, p2 = -1.0;
  for (const ClusterBus::Row& row : rows) {
    if (row.summary.name != "cluster-power") continue;
    if (row.summary.phase == "p1") p1 = row.summary.mean;
    if (row.summary.phase == "p2") p2 = row.summary.mean;
    EXPECT_EQ(row.summary.samples, 2u);  // no cross-phase contamination
  }
  EXPECT_NEAR(p1, 110.0, 1e-9);
  EXPECT_NEAR(p2, 200.0, 1e-9);
}

TEST(ClusterBusTest, OutOfOrderBracketThrows) {
  ClusterBus bus({"alpha"});
  EXPECT_THROW(bus.on_bracket(0, make_bracket(true, 1, "p", 0.0)), WireError);
  EXPECT_THROW(bus.on_samples(0, make_batch(7, {1.0})), WireError);
}

// ---- per-node machine configs -----------------------------------------------

TEST(NodeConfigs, NamedSkusAreGenuinelyHeterogeneous) {
  // The loopback acceptance fleet mixes these two: they must model
  // different machines, or "heterogeneous SKUs" tests nothing.
  const sim::MachineConfig zen2 = sim::MachineConfig::named("zen2");
  const sim::MachineConfig haswell = sim::MachineConfig::named("haswell");
  EXPECT_NE(zen2.total_cores(), haswell.total_cores());
  EXPECT_NE(zen2.power.active_cycle_nj, haswell.power.active_cycle_nj);
  EXPECT_EQ(sim::MachineConfig::named("haswell-gpu").gpu.count, 4);
  EXPECT_THROW(sim::MachineConfig::named("epyc9754"), ConfigError);
}

// ---- loopback fleet (end to end) --------------------------------------------

std::string write_campaign(const char* path, const char* text) {
  std::ofstream out(path);
  out << text;
  return path;
}

/// Mean value of the merged-CSV row for (metric, phase, node).
double csv_mean(const std::string& output, const std::string& metric,
                const std::string& phase, const std::string& node) {
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(metric + ",", 0) != 0) continue;
    if (line.find("," + phase + "," + node) == std::string::npos) continue;
    // metric,unit,samples,mean,...
    std::size_t pos = 0;
    for (int commas = 0; commas < 3; ++commas) pos = line.find(',', pos) + 1;
    return std::stod(line.substr(pos));
  }
  return -1.0;
}

TEST(LoopbackFleet, HeterogeneousBudgetCampaignConvergesInLockstep) {
  const std::string campaign = write_campaign("/tmp/fs2_cluster_accept.campaign",
                                              "phase name=ramp duration=12\n"
                                              "phase name=hold duration=16\n"
                                              "phase name=cool duration=12\n");
  firestarter::Config cfg;
  cfg.loopback_nodes = "zen2@1500,haswell@2000";
  cfg.coordinator = true;
  cfg.campaign_file = campaign;
  cfg.target_spec = "cluster-power=500W";
  cfg.require_convergence = true;
  cfg.log_level = "warn";
  std::ostringstream out;
  firestarter::Firestarter app(cfg, out);
  const int code = app.run();
  const std::string output = out.str();
  EXPECT_EQ(code, 0) << output;

  // Merged CSV: per-node and cluster-aggregate rows for every phase.
  for (const char* phase : {"ramp", "hold", "cool"}) {
    EXPECT_GT(csv_mean(output, "sim-wall-power", phase, "n0-zen2"), 0.0) << output;
    EXPECT_GT(csv_mean(output, "sim-wall-power", phase, "n1-haswell"), 0.0) << output;
    const double cluster = csv_mean(output, "cluster-power", phase, "cluster");
    // The global budget holds on every phase: the cluster sum within the
    // 2 % band of 500 W (plus a little slack for the whole-phase mean,
    // which includes the ramp-in the trailing-window verdict excludes).
    EXPECT_NEAR(cluster, 500.0, 0.04 * 500.0) << output;
    // The aggregate is consistent with its parts.
    const double parts = csv_mean(output, "sim-wall-power", phase, "n0-zen2") +
                         csv_mean(output, "sim-wall-power", phase, "n1-haswell");
    EXPECT_NEAR(cluster, parts, 0.02 * parts) << output;
  }

  // Lockstep: the run reports per-phase start spreads and none exceeded the
  // tolerance (which would both flag the line and fail the exit code).
  EXPECT_NE(output.find("start spread"), std::string::npos) << output;
  EXPECT_EQ(output.find("exceeds tolerance"), std::string::npos) << output;
  EXPECT_NE(output.find("cluster power"), std::string::npos) << output;
  EXPECT_EQ(output.find("NOT converged"), std::string::npos) << output;
}

TEST(LoopbackFleet, OpenLoopCampaignMergesWithoutBudget) {
  const std::string campaign = write_campaign("/tmp/fs2_cluster_open.campaign",
                                              "phase name=half duration=10 "
                                              "profile=constant:50\n");
  firestarter::Config cfg;
  cfg.loopback_nodes = "zen2@1500,haswell@2000";
  cfg.coordinator = true;
  cfg.campaign_file = campaign;
  cfg.log_level = "warn";
  std::ostringstream out;
  firestarter::Firestarter app(cfg, out);
  EXPECT_EQ(app.run(), 0) << out.str();
  const std::string output = out.str();
  // Both nodes ran the same 50 % schedule; the cluster row sums their power.
  EXPECT_NEAR(csv_mean(output, "load-level", "half", "n0-zen2"), 0.5, 1e-6) << output;
  EXPECT_NEAR(csv_mean(output, "load-level", "half", "n1-haswell"), 0.5, 1e-6) << output;
  const double parts = csv_mean(output, "sim-wall-power", "half", "n0-zen2") +
                       csv_mean(output, "sim-wall-power", "half", "n1-haswell");
  EXPECT_NEAR(csv_mean(output, "cluster-power", "half", "cluster"), parts, 0.02 * parts)
      << output;
}

TEST(LoopbackFleet, UnreachableBudgetFailsRequireConvergence) {
  const std::string campaign = write_campaign("/tmp/fs2_cluster_unreach.campaign",
                                              "phase name=hold duration=10\n");
  firestarter::Config cfg;
  cfg.loopback_nodes = "zen2@1500,haswell@2000";
  cfg.coordinator = true;
  cfg.campaign_file = campaign;
  // Both SKUs flat out cannot reach 5 kW.
  cfg.target_spec = "cluster-power=5000W";
  cfg.require_convergence = true;
  cfg.log_level = "error";
  std::ostringstream out;
  firestarter::Firestarter app(cfg, out);
  EXPECT_EQ(app.run(), 1) << out.str();
}

TEST(LoopbackFleet, SixtyFourNodeFleetMergesCorrectly) {
  // Fleet-scale stress: 64 heterogeneous in-process agents under a global
  // budget, driven by the shared event loop. Asserts the cluster
  // aggregates against their per-node parts and that the coordinator's
  // alignment queues stayed bounded (the run completing with converged
  // budget implies drained queues; kMaxLagSamples caps them throughout).
  const std::string campaign = write_campaign("/tmp/fs2_cluster_64.campaign",
                                              "phase name=hold duration=10\n");
  firestarter::Config cfg;
  cfg.loopback_nodes = "zen2@1500x32,haswell@2000x32";
  cfg.coordinator = true;
  cfg.campaign_file = campaign;
  cfg.target_spec = "cluster-power=16000W";  // 250 W/node, as the pair test
  cfg.require_convergence = true;
  cfg.log_level = "error";
  std::ostringstream out;
  firestarter::Firestarter app(cfg, out);
  const int code = app.run();
  const std::string output = out.str();
  EXPECT_EQ(code, 0) << output;

  // Every node contributed a power row, and the cluster-power aggregate is
  // consistent with the sum of its 64 parts.
  double parts = 0.0;
  for (int i = 0; i < 64; ++i) {
    const std::string node =
        std::string("n") + std::to_string(i) + (i < 32 ? "-zen2" : "-haswell");
    const double mean = csv_mean(output, "sim-wall-power", "hold", node);
    EXPECT_GT(mean, 0.0) << "missing power row for " << node;
    parts += mean;
  }
  const double cluster = csv_mean(output, "cluster-power", "hold", "cluster");
  EXPECT_NEAR(cluster, 16000.0, 0.04 * 16000.0) << output;
  EXPECT_NEAR(cluster, parts, 0.02 * parts) << output;

  // The hottest-package aggregate must sit at or above every node's own
  // mean temperature and below the hottest node's max.
  const double temp_max = csv_mean(output, "cluster-temp-max", "hold", "cluster");
  EXPECT_GT(temp_max, 0.0) << output;
  for (int i = 0; i < 64; i += 16) {
    const std::string node =
        std::string("n") + std::to_string(i) + (i < 32 ? "-zen2" : "-haswell");
    EXPECT_GE(temp_max + 1e-9, csv_mean(output, "sim-package-temp", "hold", node));
  }
}

/// The CSV rows after the header line; with `node` set, only that node's
/// rows of a merged fleet CSV, its node column stripped.
std::vector<std::string> csv_rows(const std::string& output, const std::string& node = "") {
  std::istringstream lines(output);
  std::vector<std::string> rows;
  std::string line;
  bool header_seen = false;
  const std::string suffix = "," + node;
  while (std::getline(lines, line)) {
    if (line.rfind("metric,unit,", 0) == 0) {
      header_seen = true;
    } else if (header_seen && node.empty()) {
      rows.push_back(line);
    } else if (header_seen && line.size() > suffix.size() &&
               line.compare(line.size() - suffix.size(), suffix.size(), suffix) == 0) {
      rows.push_back(line.substr(0, line.size() - suffix.size()));
    }
  }
  return rows;
}

TEST(LoopbackFleet, OneNodeFleetMatchesLocalCampaignRows) {
  // The loopback agent and the local campaign runner drive the same phase
  // stepper, so a one-node fleet reproduces a local run row for row. SimFleet
  // seeds node i with base + i + 1, hence the local run's seed S + 1.
  const char* campaigns[] = {
      // examples/cluster_acceptance.campaign: open-loop phases.
      "phase name=ramp duration=20 profile=constant:60\n"
      "phase name=hold duration=30 profile=constant:80\n"
      "phase name=cool duration=20 profile=constant:40\n",
      // examples/setpoint_steps.campaign: target= phases, power and temp.
      "phase name=low-hold   duration=30 target=power=200W\n"
      "phase name=high-hold  duration=30 target=power=320W\n"
      "phase name=low-again  duration=30 target=power=200W\n"
      "phase name=warm-hold  duration=60 target=temp=55C\n"};
  constexpr std::uint64_t kSeed = 40;
  for (const char* text : campaigns) {
    const std::string campaign = write_campaign("/tmp/fs2_cluster_parity.campaign", text);
    firestarter::Config fleet_cfg;
    fleet_cfg.loopback_nodes = "zen2";
    fleet_cfg.coordinator = true;
    fleet_cfg.campaign_file = campaign;
    fleet_cfg.seed = kSeed;
    fleet_cfg.cluster_start_delay_s = 0.1;
    fleet_cfg.log_level = "error";
    std::ostringstream fleet_out;
    ASSERT_EQ(firestarter::Firestarter(fleet_cfg, fleet_out).run(), 0) << fleet_out.str();

    firestarter::Config local_cfg;
    local_cfg.target = firestarter::TargetSystem::kSimZen2;
    local_cfg.campaign_file = campaign;
    local_cfg.seed = kSeed + 1;
    local_cfg.log_level = "error";
    std::ostringstream local_out;
    ASSERT_EQ(firestarter::Firestarter(local_cfg, local_out).run(), 0) << local_out.str();

    const std::vector<std::string> local = csv_rows(local_out.str());
    EXPECT_FALSE(local.empty()) << local_out.str();
    EXPECT_EQ(csv_rows(fleet_out.str(), "n0-zen2"), local) << text;
  }
}

TEST(MultiProcessFleet, RealAgentSessionsConvergeOverTcp) {
  // The production --agent path (run_agent -> AgentSession -> run_campaign's
  // session branches) must stay covered now that --loopback drives SimFleet
  // instead: this is the exact code real multi-machine deployments run,
  // exercised here as separate Firestarter instances over real TCP.
  const std::string campaign = write_campaign("/tmp/fs2_cluster_agents.campaign",
                                              "phase name=ramp duration=8\n"
                                              "phase name=hold duration=8\n");
  const std::uint16_t port = [] {
    Listener probe(0, /*loopback_only=*/true);  // freed on destruction
    return probe.port();
  }();

  firestarter::Config coord_cfg;
  coord_cfg.coordinator = true;
  coord_cfg.listen_port = port;
  coord_cfg.cluster_nodes = 2;
  coord_cfg.campaign_file = campaign;
  coord_cfg.target_spec = "cluster-power=500W";
  coord_cfg.require_convergence = true;
  coord_cfg.log_level = "error";
  std::ostringstream coord_out;
  int coord_code = -1;
  std::thread coordinator([&] {
    try {
      firestarter::Firestarter app(coord_cfg, coord_out);
      coord_code = app.run();
    } catch (const std::exception& e) {
      coord_out << "coordinator error: " << e.what() << "\n";
    }
  });

  auto run_agent = [port](firestarter::TargetSystem target, double freq_mhz,
                          const char* name, int* code) {
    firestarter::Config cfg;
    cfg.agent_endpoint = "127.0.0.1:" + std::to_string(port);
    cfg.target = target;
    cfg.sim_freq_mhz = freq_mhz;
    cfg.node_name = name;
    cfg.log_level = "error";
    try {
      std::ostringstream out;
      firestarter::Firestarter app(cfg, out);
      *code = app.run();
    } catch (const std::exception&) {
      *code = -2;
    }
  };
  int zen2_code = -1;
  int haswell_code = -1;
  std::thread zen2(run_agent, firestarter::TargetSystem::kSimZen2, 1500.0, "alpha",
                   &zen2_code);
  std::thread haswell(run_agent, firestarter::TargetSystem::kSimHaswell, 2000.0, "beta",
                      &haswell_code);
  zen2.join();
  haswell.join();
  coordinator.join();

  const std::string output = coord_out.str();
  EXPECT_EQ(coord_code, 0) << output;
  EXPECT_EQ(zen2_code, 0);
  EXPECT_EQ(haswell_code, 0);
  const double cluster = csv_mean(output, "cluster-power", "hold", "cluster");
  EXPECT_NEAR(cluster, 500.0, 0.04 * 500.0) << output;
  EXPECT_GT(csv_mean(output, "sim-wall-power", "ramp", "alpha"), 0.0) << output;
  EXPECT_GT(csv_mean(output, "sim-wall-power", "hold", "beta"), 0.0) << output;
}

TEST(LoopbackFleet, RejectsHostSpecs) {
  firestarter::Config cfg;
  cfg.loopback_nodes = "host,zen2";
  cfg.coordinator = true;
  cfg.campaign_file = write_campaign("/tmp/fs2_cluster_host.campaign",
                                     "phase name=p duration=5\n");
  std::ostringstream out;
  firestarter::Firestarter app(cfg, out);
  EXPECT_THROW(app.run(), ConfigError);
}

TEST(ClusterBusTest, LagQueuesStayBounded) {
  // Node alpha streams far ahead while beta stays silent: the per-node
  // alignment queue must cap at kMaxLagSamples (dropping oldest), never
  // grow with the skew.
  ClusterBus bus({"alpha", "beta"});
  bus.on_channel(0, make_channel(0, "sim-wall-power", "W"));
  bus.on_channel(1, make_channel(0, "sim-wall-power", "W"));
  bus.on_bracket(0, make_bracket(true, 0, "p", 0.0));
  bus.on_bracket(1, make_bracket(true, 0, "p", 0.0));
  SampleBatchMsg batch;
  batch.channel_id = 0;
  for (int i = 0; i < 1000; ++i)
    batch.samples.push_back(telemetry::Sample{i * 0.05, 100.0});
  const std::size_t rounds = 3 * ClusterBus::kMaxLagSamples / 1000;
  for (std::size_t r = 0; r <= rounds; ++r) bus.on_samples(0, batch);
  EXPECT_LE(bus.queued_samples(), ClusterBus::kMaxLagSamples);
  EXPECT_GT(bus.queued_samples(), 0u);
}

TEST(RemoteSinkTest, EdgeSummarizesAndShipsOnlyAggregateSamples) {
  Listener listener(0, /*loopback_only=*/true);
  Connection agent = Connection::connect(
      "127.0.0.1:" + std::to_string(listener.port()));
  Connection coordinator = listener.accept(/*timeout_s=*/5.0);

  telemetry::TelemetryBus bus;
  RemoteSink sink(&agent, std::chrono::steady_clock::now());
  bus.attach(&sink);
  const telemetry::ChannelId power = bus.channel("sim-wall-power", "W");
  const telemetry::ChannelId load = bus.channel("load-level", "fraction");
  EXPECT_TRUE(sink.ships_samples(power));
  EXPECT_FALSE(sink.ships_samples(load));

  bus.begin_phase("hold", 10.0, 0.0, 0.0);
  for (int i = 0; i < 50; ++i) {
    bus.publish(power, i * 0.1, 200.0 + i);
    bus.publish(load, i * 0.1, 0.5);
  }
  bus.end_phase();
  bus.finish();

  // Expected wire order: channel registrations, begin bracket, the power
  // samples, then the edge summary rows (power AND load), then the end
  // bracket — never a raw load-level batch.
  std::size_t sample_batches = 0;
  std::vector<NodeSummaryMsg> summaries;
  bool end_bracket_seen = false;
  for (int i = 0; i < 20; ++i) {
    const auto frame = coordinator.recv(/*timeout_s=*/2.0);
    ASSERT_TRUE(frame.has_value());
    WireReader reader(frame->payload);
    if (frame->type == MessageType::kSampleBatch) {
      const SampleBatchMsg batch = SampleBatchMsg::decode(reader);
      EXPECT_EQ(batch.channel_id, static_cast<std::uint32_t>(power));
      EXPECT_FALSE(end_bracket_seen);
      sample_batches += batch.samples.size();
    } else if (frame->type == MessageType::kNodeSummary) {
      EXPECT_FALSE(end_bracket_seen);  // rows precede the barrier signal
      summaries.push_back(NodeSummaryMsg::decode(reader));
    } else if (frame->type == MessageType::kPhaseBracket) {
      const PhaseBracketMsg bracket = PhaseBracketMsg::decode(reader);
      if (!bracket.is_begin) {
        end_bracket_seen = true;
        break;
      }
    }
  }
  EXPECT_TRUE(end_bracket_seen);
  EXPECT_EQ(sample_batches, 50u);
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_EQ(summaries[0].name, "sim-wall-power");
  EXPECT_NEAR(summaries[0].mean, 224.5, 1e-9);  // mean of 200..249
  EXPECT_EQ(summaries[1].name, "load-level");
  EXPECT_NEAR(summaries[1].mean, 0.5, 1e-12);
}

TEST(RemoteSinkTest, BatchThresholdAdaptsToSampleRate) {
  Listener listener(0, /*loopback_only=*/true);
  Connection agent = Connection::connect(
      "127.0.0.1:" + std::to_string(listener.port()));
  Connection coordinator = listener.accept(/*timeout_s=*/5.0);

  std::atomic<bool> done{false};
  std::thread drain([&] {
    Frame frame;
    while (!done.load())
      if (!coordinator.recv_into(frame, /*timeout_s=*/0.05)) continue;
  });

  telemetry::TelemetryBus bus;
  RemoteSink sink(&agent, std::chrono::steady_clock::now());
  bus.attach(&sink);
  const telemetry::ChannelId power = bus.channel("sim-wall-power", "W");
  EXPECT_EQ(sink.batch_threshold(power), RemoteSink::kBatchSamples);

  bus.begin_phase("p", 1000.0, 0.0, 0.0);
  // 500 Sa/s: after the first full flush the threshold re-targets
  // kTargetBatchSeconds' worth of stream (1000 samples).
  for (int i = 0; i < 300; ++i) bus.publish(power, i / 500.0, 100.0);
  EXPECT_EQ(sink.batch_threshold(power),
            static_cast<std::size_t>(500.0 * RemoteSink::kTargetBatchSeconds));
  // 2 Sa/s: a slow channel adapts down to the floor instead of buffering
  // minutes of latency.
  const telemetry::ChannelId slow = bus.channel("sysfs-powercap-rapl", "W");
  for (int i = 0; i < 1100; ++i) bus.publish(slow, i / 2.0, 50.0);
  EXPECT_EQ(sink.batch_threshold(slow), RemoteSink::kMinBatchSamples);
  bus.finish();
  done.store(true);
  drain.join();
}

TEST(AgentSessionTest, RejoinReannouncesChannelsBeforeSamples) {
  // A real agent's link can drop before its channel registrations reach the
  // coordinator; the rejoined session must register them again on the new
  // socket, or the coordinator drops the node for samples on unknown ids.
  Listener listener(0, /*loopback_only=*/true);
  auto admit = [](Connection& conn) {
    CampaignMsg campaign;
    campaign.campaign_text = "phase name=hold duration=10\n";
    campaign.campaign_id = 7;
    conn.send(campaign.encode());
    EpochMsg epoch;
    epoch.t0_agent_s = local_clock_s();
    conn.send(epoch.encode());
  };
  std::vector<Frame> rejoined;  // every frame the second link carried
  std::string coordinator_error;
  std::promise<void> registered;
  std::thread coordinator([&] {
    try {
      Connection first = listener.accept(/*timeout_s=*/10.0);
      if (!first.recv(/*timeout_s=*/10.0)) throw WireError("expected hello");
      admit(first);
      registered.get_future().wait();
      first.close();  // the link dies before any registration is read
      Connection second = listener.accept(/*timeout_s=*/10.0);
      const auto rejoin = second.recv(/*timeout_s=*/10.0);
      if (!rejoin || rejoin->type != MessageType::kRejoin) throw WireError("expected rejoin");
      RejoinAckMsg ack;
      ack.accepted = 1;
      ack.resume_phase = 0;
      second.send(ack.encode());
      admit(second);
      while (const auto frame = second.recv(/*timeout_s=*/5.0)) {
        rejoined.push_back(*frame);
        WireReader reader(frame->payload);
        if (frame->type == MessageType::kPhaseBracket &&
            PhaseBracketMsg::decode(reader).is_begin == 0)
          break;
      }
    } catch (const std::exception& e) {
      coordinator_error = e.what();
    }
  });

  AgentSession::Options options;
  options.endpoint = "127.0.0.1:" + std::to_string(listener.port());
  options.node_name = "alpha";
  options.sku = "sim-zen2";
  {
    AgentSession session(options);
    telemetry::TelemetryBus bus;
    bus.attach(&session.sink());
    const telemetry::ChannelId power = bus.channel("sim-wall-power", "W");
    const telemetry::ChannelId load = bus.channel("load-level", "fraction");
    registered.set_value();
    EXPECT_EQ(session.rejoin(), 0u);
    bus.begin_phase("hold", 10.0, 0.0, 0.0);
    for (int i = 0; i < 20; ++i) {
      bus.publish(power, i * 0.5, 200.0);
      bus.publish(load, i * 0.5, 1.0);
    }
    bus.end_phase();
    coordinator.join();
    ASSERT_TRUE(coordinator_error.empty()) << coordinator_error;

    std::vector<std::uint32_t> announced;
    bool samples_seen = false;
    for (const Frame& frame : rejoined) {
      WireReader reader(frame.payload);
      if (frame.type == MessageType::kChannel) {
        EXPECT_FALSE(samples_seen) << "channel registered after its samples";
        announced.push_back(ChannelMsg::decode(reader).channel_id);
      } else if (frame.type == MessageType::kSampleBatch) {
        samples_seen = true;
        const std::uint32_t id = SampleBatchMsg::decode(reader).channel_id;
        EXPECT_NE(std::find(announced.begin(), announced.end(), id), announced.end())
            << "samples on unannounced channel " << id;
      }
    }
    EXPECT_TRUE(samples_seen);
    EXPECT_EQ(announced, (std::vector<std::uint32_t>{static_cast<std::uint32_t>(power),
                                                     static_cast<std::uint32_t>(load)}));
  }
}

TEST(Coordinator, RequiresCampaignAndNodes) {
  firestarter::Config cfg;
  cfg.coordinator = true;
  std::ostringstream out;
  {
    firestarter::Firestarter app(cfg, out);
    EXPECT_THROW(app.run(), ConfigError);  // no campaign
  }
  cfg.campaign_file = write_campaign("/tmp/fs2_cluster_nonode.campaign",
                                     "phase name=p duration=5\n");
  {
    firestarter::Firestarter app(cfg, out);
    EXPECT_THROW(app.run(), ConfigError);  // no --nodes / --loopback
  }
}

// ---- observability ----------------------------------------------------------

TEST(ClusterBusTest, MergedRowsIncludePhaseBeginSpread) {
  const std::string campaign = write_campaign("/tmp/fs2_cluster_spread.campaign",
                                              "phase name=solo duration=10 "
                                              "profile=constant:60\n");
  firestarter::Config cfg;
  cfg.loopback_nodes = "zen2@1500,haswell@2000";
  cfg.coordinator = true;
  cfg.campaign_file = campaign;
  cfg.log_level = "warn";
  std::ostringstream out;
  firestarter::Firestarter app(cfg, out);
  EXPECT_EQ(app.run(), 0) << out.str();
  const std::string output = out.str();
  // The merged CSV carries one spread row per phase on the cluster
  // pseudo-node: mean = spread, samples = participating nodes.
  const double spread = csv_mean(output, "phase-begin-spread", "solo", "cluster");
  EXPECT_GE(spread, 0.0) << output;
  EXPECT_LT(spread, 0.25) << output;  // loopback agents start nearly together
  EXPECT_NE(output.find("phase-begin-spread,s,2,"), std::string::npos) << output;
}

TEST(LoopbackFleet, SyncToleranceFailureNamesOffendingNodes) {
  const std::string campaign = write_campaign("/tmp/fs2_cluster_offender.campaign",
                                              "phase name=tight duration=10 "
                                              "profile=constant:50\n");
  firestarter::Config cfg;
  cfg.loopback_nodes = "zen2@1500,haswell@2000";
  cfg.coordinator = true;
  cfg.campaign_file = campaign;
  // No two nodes can begin within a nanosecond of each other; the lockstep
  // verdict must fail and say WHICH node straggled behind which.
  cfg.sync_tolerance_s = 1e-9;
  cfg.require_convergence = true;
  cfg.log_level = "error";
  std::ostringstream out;
  firestarter::Firestarter app(cfg, out);
  EXPECT_EQ(app.run(), 1) << out.str();
  const std::string output = out.str();
  EXPECT_NE(output.find("phase 'tight'"), std::string::npos) << output;
  EXPECT_NE(output.find("exceeds tolerance"), std::string::npos) << output;
  const std::size_t offender = output.find("— node ");
  ASSERT_NE(offender, std::string::npos) << output;
  EXPECT_NE(output.find("ms after node ", offender), std::string::npos) << output;
  // Both named nodes are real fleet members.
  const bool names_nodes = output.find("n0-zen2", offender) != std::string::npos ||
                           output.find("n1-haswell", offender) != std::string::npos;
  EXPECT_TRUE(names_nodes) << output;
}

TEST(LoopbackFleet, TraceOutExportsMergedFleetTimeline) {
  const std::string campaign = write_campaign("/tmp/fs2_cluster_trace.campaign",
                                              "phase name=ramp duration=8\n"
                                              "phase name=cool duration=6\n");
  const std::string trace_path = "/tmp/fs2_cluster_trace.json";
  std::remove(trace_path.c_str());
  firestarter::Config cfg;
  cfg.loopback_nodes = "zen2@1500,haswell@2000";
  cfg.coordinator = true;
  cfg.campaign_file = campaign;
  cfg.target_spec = "cluster-power=500W";
  cfg.trace_out = trace_path;
  cfg.log_level = "warn";
  std::ostringstream out;
  firestarter::Firestarter app(cfg, out);
  EXPECT_EQ(app.run(), 0) << out.str();
  EXPECT_NE(out.str().find("fleet trace written to"), std::string::npos) << out.str();
  trace::Tracer::reset();  // do not leak an enabled tracer into other tests

  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  // Every node became a named process on the merged timeline...
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"coordinator\""), std::string::npos);
  EXPECT_NE(json.find("\"n0-zen2\""), std::string::npos);
  EXPECT_NE(json.find("\"n1-haswell\""), std::string::npos);
  // ...with per-node phase spans, agent waits, and coordinator-side spans.
  EXPECT_NE(json.find("\"phase:ramp\""), std::string::npos);
  EXPECT_NE(json.find("\"phase:cool\""), std::string::npos);
  EXPECT_NE(json.find("\"cluster.phase_barrier\""), std::string::npos);
  EXPECT_NE(json.find("\"cluster.bus.drain\""), std::string::npos);
  std::remove(trace_path.c_str());
}

TEST(Coordinator, ServesStatusProbesDuringAcceptAndMidRun) {
  Coordinator::Options options;
  options.port = 0;
  options.loopback_only = true;
  options.nodes = 1;
  options.campaign_text = "phase name=p duration=6 profile=constant:50\n";
  options.phase_count = 1;
  // A generous epoch delay keeps the coordinator in its event loop (agents
  // parked at the epoch) long enough for the mid-run probes to land.
  options.start_delay_s = 1.5;
  Coordinator coordinator(options);
  const std::string endpoint = "127.0.0.1:" + std::to_string(coordinator.port());
  Coordinator::Result result;
  std::ostringstream out;
  std::thread run_thread([&] { result = coordinator.run(out); });

  // Probe 1: accept window, no agents yet — answered without consuming the
  // fleet slot.
  {
    Connection probe = Connection::connect(endpoint, /*retry_for_s=*/5.0);
    probe.send(StatusRequestMsg{}.encode());
    const auto frame = probe.recv(/*timeout_s=*/5.0);
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->type, MessageType::kStatusReply);
    WireReader reader(frame->payload);
    const StatusReplyMsg reply = StatusReplyMsg::decode(reader);
    EXPECT_EQ(reply.accepting, 1);
    EXPECT_EQ(reply.nodes_expected, 1u);
    EXPECT_EQ(reply.phase_count, 1u);
    EXPECT_TRUE(reply.nodes.empty());
  }

  firestarter::Config cfg;
  cfg.log_level = "error";
  const auto specs = firestarter::parse_loopback_specs("zen2@1500");
  std::unique_ptr<firestarter::SimFleet> fleet;
  std::thread fleet_thread([&, port = coordinator.port()] {
    fleet = std::make_unique<firestarter::SimFleet>(cfg, specs, port);
    fleet->run();
  });

  // Probe repeatedly until the campaign is live (accepting == 0 with the
  // node enrolled); the epoch delay guarantees a wide window.
  bool saw_running = false;
  for (int attempt = 0; attempt < 200 && !saw_running; ++attempt) {
    try {
      Connection probe = Connection::connect(endpoint, /*retry_for_s=*/0.2);
      probe.send(StatusRequestMsg{}.encode());
      const auto frame = probe.recv(/*timeout_s=*/2.0);
      if (!frame || frame->type != MessageType::kStatusReply) break;
      WireReader reader(frame->payload);
      const StatusReplyMsg reply = StatusReplyMsg::decode(reader);
      if (reply.accepting == 0 && !reply.nodes.empty()) {
        saw_running = true;
        EXPECT_EQ(reply.nodes[0].name, "n0-zen2");
        EXPECT_EQ(reply.nodes[0].connected, 1);
        EXPECT_LE(reply.nodes[0].phases_ended, reply.nodes[0].phases_begun);
      }
    } catch (const Error&) {
      break;  // listener gone: the run finished before we caught it mid-flight
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  run_thread.join();
  fleet_thread.join();
  EXPECT_TRUE(saw_running);
  ASSERT_TRUE(fleet != nullptr);
  EXPECT_TRUE(fleet->all_ok());
}

}  // namespace
