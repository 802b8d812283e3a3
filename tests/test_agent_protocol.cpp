// Socket-free tests of cluster::AgentProtocol, the agent side of the
// coordinator protocol: encoded coordinator frames and times go in, and the
// tests assert the frames queued for the coordinator and the actions that
// come out — admission, barriers, budget rounds, metric cadence, the
// end-of-run ordering, and every protocol violation a coordinator (or a
// hostile peer) can provoke.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/agent_protocol.hpp"
#include "cluster/messages.hpp"
#include "control/controlled_profile.hpp"
#include "control/feedback_loop.hpp"
#include "control/setpoint.hpp"
#include "trace/registry.hpp"

namespace {

using namespace fs2;
using namespace fs2::cluster;
using Action = AgentProtocol::Action;

constexpr double kEpoch = 100.0;  ///< the shared start, agent clock seconds

template <typename Msg>
Msg decode(const Frame& frame) {
  EXPECT_EQ(frame.type, Msg{}.encode().type);
  WireReader reader(frame.payload);
  return Msg::decode(reader);
}

std::vector<MessageType> types(const std::vector<Frame>& frames) {
  std::vector<MessageType> out;
  for (const Frame& frame : frames) out.push_back(frame.type);
  return out;
}

Frame probe(std::uint32_t seq, double t_coord_s) {
  SyncProbeMsg msg;
  msg.seq = seq;
  msg.t_coord_s = t_coord_s;
  return msg.encode();
}

Frame campaign(bool budget, double metrics_interval_s = 0.0, bool trace = false) {
  CampaignMsg msg;
  msg.campaign_text = "phase name=a duration=10\nphase name=b duration=10\n";
  msg.has_budget = budget ? 1 : 0;
  msg.initial_setpoint_w = 250.0;
  msg.budget_interval_s = 0.5;
  msg.metrics_interval_s = metrics_interval_s;
  msg.trace_enabled = trace ? 1 : 0;
  msg.campaign_id = 42;
  return msg.encode();
}

Frame epoch() {
  EpochMsg msg;
  msg.t0_agent_s = kEpoch;
  return msg.encode();
}

Frame phase_go(std::uint32_t phase) {
  PhaseGoMsg msg;
  msg.phase_index = phase;
  return msg.encode();
}

Frame assign(std::uint32_t seq, double setpoint_w) {
  BudgetAssignMsg msg;
  msg.seq = seq;
  msg.setpoint_w = setpoint_w;
  return msg.encode();
}

Frame rejoin_ack(bool accepted, std::uint32_t resume_phase, const std::string& detail = "") {
  RejoinAckMsg msg;
  msg.accepted = accepted ? 1 : 0;
  msg.resume_phase = resume_phase;
  msg.detail = detail;
  return msg.encode();
}

/// A protocol that said hello and was admitted, waiting for the epoch.
struct Admitted {
  trace::Registry registry;
  AgentProtocol protocol{"n0", registry};

  explicit Admitted(bool budget = false, double metrics_interval_s = 0.0,
                    bool trace = false) {
    protocol.hello("sim-zen2");
    protocol.on_frame(campaign(budget, metrics_interval_s, trace), 1.0);
    EXPECT_EQ(protocol.on_frame(epoch(), 2.0), Action::kCampaignReady);
    protocol.take_output();
  }

  /// Open phase 0 at the epoch.
  void start() { EXPECT_EQ(protocol.on_time(kEpoch), Action::kOpenPhase); }
};

control::FeedbackLoop power_loop(const std::string& spec, double level) {
  return control::FeedbackLoop(control::Setpoint::parse(spec),
                               std::make_shared<control::ControlledProfile>(level),
                               100.0, level);
}

TEST(AgentProtocol, AdmissionAnswersInterleavedSyncProbes) {
  trace::Registry registry;
  AgentProtocol protocol("n0", registry);
  protocol.hello("sim-zen2@1500MHz");
  std::vector<Frame> out = protocol.take_output();
  ASSERT_EQ(types(out), std::vector<MessageType>{MessageType::kHello});
  const HelloMsg hello = decode<HelloMsg>(out[0]);
  EXPECT_EQ(hello.node_name, "n0");
  EXPECT_EQ(hello.sku, "sim-zen2@1500MHz");
  EXPECT_EQ(hello.version, kProtocolVersion);

  // Probes before and between the campaign and epoch each get one reply
  // echoing the probe and stamping the agent clock at receipt.
  EXPECT_EQ(protocol.on_frame(probe(0, 7.0), 11.0), Action::kNone);
  EXPECT_EQ(protocol.on_frame(campaign(/*budget=*/false), 12.0), Action::kNone);
  EXPECT_EQ(protocol.on_frame(probe(1, 8.0), 13.0), Action::kNone);
  EXPECT_FALSE(protocol.admitted());
  out = protocol.take_output();
  ASSERT_EQ(out.size(), 2u);
  const SyncReplyMsg first = decode<SyncReplyMsg>(out[0]);
  EXPECT_EQ(first.seq, 0u);
  EXPECT_DOUBLE_EQ(first.t_coord_s, 7.0);
  EXPECT_DOUBLE_EQ(first.t_agent_s, 11.0);
  const SyncReplyMsg second = decode<SyncReplyMsg>(out[1]);
  EXPECT_EQ(second.seq, 1u);
  EXPECT_DOUBLE_EQ(second.t_agent_s, 13.0);

  EXPECT_EQ(protocol.on_frame(epoch(), 14.0), Action::kCampaignReady);
  EXPECT_TRUE(protocol.admitted());
  EXPECT_EQ(protocol.state(), AgentProtocol::State::kAwaitStart);
  EXPECT_EQ(protocol.campaign().campaign_id, 42u);
  EXPECT_DOUBLE_EQ(protocol.setpoint_w(), 250.0);
  EXPECT_TRUE(protocol.take_output().empty());

  // Phase 0's barrier is the epoch: nothing before it, phase 0 at it.
  EXPECT_EQ(protocol.on_time(kEpoch - 0.001), Action::kNone);
  EXPECT_EQ(protocol.on_time(kEpoch), Action::kOpenPhase);
  EXPECT_EQ(protocol.phase(), 0u);

  // Clock sync belongs to admission; a late probe is a protocol violation.
  EXPECT_THROW(protocol.on_frame(probe(2, 9.0), 101.0), WireError);
}

TEST(AgentProtocol, PhaseGoForTheWrongIndexThrows) {
  Admitted agent;
  // No phase-go is valid while a phase runs.
  agent.start();
  EXPECT_THROW(agent.protocol.on_frame(phase_go(1), 101.0), WireError);

  Admitted between;
  between.start();
  between.protocol.end_phase();
  EXPECT_EQ(between.protocol.phase(), 1u);
  try {
    between.protocol.on_frame(phase_go(2), 102.0);
    FAIL() << "phase-go for the wrong index was accepted";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find("phase-go for 2 while entering 1"),
              std::string::npos)
        << e.what();
  }

  Admitted right;
  right.start();
  right.protocol.end_phase();
  EXPECT_EQ(right.protocol.on_frame(phase_go(1), 102.0), Action::kOpenPhase);
  EXPECT_EQ(right.protocol.phase(), 1u);
}

TEST(AgentProtocol, BudgetRoundsEchoSeqAndRejectMismatches) {
  Admitted agent(/*budget=*/true);
  agent.start();
  EXPECT_FALSE(agent.protocol.budget_due(0.49));
  EXPECT_TRUE(agent.protocol.budget_due(0.5));

  // An assign nobody asked for is rejected outright.
  Admitted unsolicited(/*budget=*/true);
  unsolicited.start();
  EXPECT_THROW(unsolicited.protocol.on_frame(assign(0, 200.0), 101.0), WireError);

  const control::FeedbackLoop loop = power_loop("power=240W", 0.6);
  const BudgetReportMsg report = agent.protocol.report_budget(loop);
  EXPECT_EQ(report.seq, 0u);
  EXPECT_DOUBLE_EQ(report.setpoint_w, 240.0);
  EXPECT_DOUBLE_EQ(report.level, 0.6);
  std::vector<Frame> out = agent.protocol.take_output();
  ASSERT_EQ(types(out), std::vector<MessageType>{MessageType::kBudgetReport});
  EXPECT_EQ(decode<BudgetReportMsg>(out[0]).seq, 0u);
  // Reports pause while one is outstanding; the deadline moved one interval.
  EXPECT_FALSE(agent.protocol.budget_due(0.99));

  EXPECT_EQ(agent.protocol.on_frame(assign(0, 231.5), 101.0), Action::kRetune);
  EXPECT_DOUBLE_EQ(agent.protocol.setpoint_w(), 231.5);
  EXPECT_TRUE(agent.protocol.budget_due(1.0));

  // The next report is seq 1; an assign echoing anything else is stale.
  EXPECT_EQ(agent.protocol.report_budget(loop).seq, 1u);
  try {
    agent.protocol.on_frame(assign(0, 200.0), 102.0);
    FAIL() << "budget assign with a stale seq was accepted";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find("budget assign seq 0 for report 1"),
              std::string::npos)
        << e.what();
  }
}

TEST(AgentProtocol, BudgetIsNeverDueWithoutABudgetCampaign) {
  Admitted agent(/*budget=*/false);
  agent.start();
  EXPECT_FALSE(agent.protocol.budget_due(1e6));
}

TEST(AgentProtocol, ShutdownBeforeTheVerdictThrows) {
  Admitted running;
  running.start();
  try {
    running.protocol.on_frame(ShutdownMsg{}.encode(), 101.0);
    FAIL() << "early shutdown was accepted";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find("shut the run down early"), std::string::npos)
        << e.what();
  }

  Admitted done;
  done.start();
  done.protocol.end_phase();
  done.protocol.finish(105.0, /*converged=*/true, "2 phases");
  const std::vector<Frame> out = done.protocol.take_output();
  ASSERT_EQ(types(out), std::vector<MessageType>{MessageType::kVerdict});
  const VerdictMsg verdict = decode<VerdictMsg>(out[0]);
  EXPECT_EQ(verdict.converged, 1);
  EXPECT_EQ(verdict.detail, "2 phases");
  EXPECT_EQ(done.protocol.on_frame(ShutdownMsg{}.encode(), 106.0), Action::kShutdown);
  EXPECT_EQ(done.protocol.state(), AgentProtocol::State::kDone);
}

TEST(AgentProtocol, FinishShipsMetricsThenSpansThenVerdict) {
  Admitted agent(/*budget=*/false, /*metrics_interval_s=*/1.0, /*trace=*/true);
  agent.start();
  agent.registry.counter("test.protocol.work").add(3);
  agent.protocol.add_span("phase:a", 100.0, 110.0);
  agent.protocol.end_phase();

  agent.protocol.finish(110.5, /*converged=*/false, "detail", /*spans_dropped=*/7,
                        agent.registry.snapshot());
  const std::vector<Frame> out = agent.protocol.take_output();
  ASSERT_EQ(types(out),
            (std::vector<MessageType>{MessageType::kMetricUpdate, MessageType::kTraceSpans,
                                      MessageType::kCounterSnapshot,
                                      MessageType::kVerdict}));
  const TraceSpansMsg spans = decode<TraceSpansMsg>(out[1]);
  ASSERT_EQ(spans.spans.size(), 1u);
  EXPECT_EQ(spans.spans[0].name, "phase:a");
  EXPECT_EQ(spans.dropped, 7u);
  EXPECT_FALSE(decode<CounterSnapshotMsg>(out[2]).counters.empty());
  EXPECT_EQ(decode<VerdictMsg>(out[3]).converged, 0);
}

TEST(AgentProtocol, SpansAreDroppedWhenTheCoordinatorDisabledTracing) {
  Admitted agent;
  agent.start();
  agent.protocol.add_span("phase:a", 100.0, 110.0);
  agent.protocol.end_phase();
  agent.protocol.finish(110.5, true, "detail");
  EXPECT_EQ(types(agent.protocol.take_output()),
            std::vector<MessageType>{MessageType::kVerdict});
}

TEST(AgentProtocol, UnsolicitedRejoinAckThrows) {
  trace::Registry registry;
  AgentProtocol protocol("n0", registry);
  protocol.hello("sim-zen2");
  try {
    protocol.on_frame(rejoin_ack(/*accepted=*/true, 0), 1.0);
    FAIL() << "a rejoin ack after hello was accepted";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find("unsolicited rejoin ack"), std::string::npos)
        << e.what();
  }
}

TEST(AgentProtocol, RefusedRejoinThrowsRejoinRefused) {
  trace::Registry registry;
  AgentProtocol protocol("n3", registry);
  protocol.rejoin(/*campaign_id=*/42, /*phases_ended=*/2);
  const std::vector<Frame> out = protocol.take_output();
  ASSERT_EQ(types(out), std::vector<MessageType>{MessageType::kRejoin});
  const RejoinMsg msg = decode<RejoinMsg>(out[0]);
  EXPECT_EQ(msg.node_name, "n3");
  EXPECT_EQ(msg.campaign_id, 42u);
  EXPECT_EQ(msg.phases_ended, 2u);
  try {
    protocol.on_frame(rejoin_ack(/*accepted=*/false, 0, "verdict already recorded"), 1.0);
    FAIL() << "a refused rejoin was accepted";
  } catch (const RejoinRefused& e) {
    EXPECT_NE(std::string(e.what()).find("rejoin refused: verdict already recorded"),
              std::string::npos)
        << e.what();
  }
}

TEST(AgentProtocol, AcceptedRejoinResumesAtTheAckedPhase) {
  Admitted agent;
  agent.start();
  agent.protocol.take_output();
  // The link died mid-phase 0 with output still queued: the rejoin drops it
  // and presents the completed-phase count.
  agent.protocol.rejoin(agent.protocol.campaign().campaign_id, agent.protocol.phase());
  std::vector<Frame> out = agent.protocol.take_output();
  ASSERT_EQ(types(out), std::vector<MessageType>{MessageType::kRejoin});
  EXPECT_EQ(decode<RejoinMsg>(out[0]).phases_ended, 0u);

  // The coordinator credited phase 0 from its own books: resume at 1, and
  // the replayed admission ends waiting for phase-go, not the epoch.
  EXPECT_EQ(agent.protocol.on_frame(rejoin_ack(true, 1), 200.0), Action::kNone);
  EXPECT_EQ(agent.protocol.on_frame(probe(0, 1.0), 200.1), Action::kNone);
  EXPECT_EQ(agent.protocol.on_frame(campaign(false), 200.2), Action::kNone);
  EXPECT_EQ(agent.protocol.on_frame(epoch(), 200.3), Action::kCampaignReady);
  EXPECT_EQ(agent.protocol.state(), AgentProtocol::State::kAwaitGo);
  EXPECT_EQ(agent.protocol.phase(), 1u);
  EXPECT_EQ(agent.protocol.on_time(200.4), Action::kNone);
  EXPECT_EQ(agent.protocol.on_frame(phase_go(1), 200.5), Action::kOpenPhase);
  EXPECT_EQ(agent.protocol.phase(), 1u);
}

TEST(AgentProtocol, MetricCadenceRearmsOnItsFixedGrid) {
  Admitted agent(/*budget=*/false, /*metrics_interval_s=*/1.0);
  agent.start();
  trace::Counter& work = agent.registry.counter("test.protocol.work");
  EXPECT_FALSE(agent.protocol.metrics_due(kEpoch + 0.99));
  EXPECT_TRUE(agent.protocol.metrics_due(kEpoch + 1.0));

  // A late ship (2.7 s) re-arms to the next grid point (3 s), not to 3.7 s.
  work.add();
  agent.protocol.ship_metrics(kEpoch + 2.7);
  std::vector<Frame> out = agent.protocol.take_output();
  ASSERT_EQ(types(out), std::vector<MessageType>{MessageType::kMetricUpdate});
  const MetricUpdateMsg first = decode<MetricUpdateMsg>(out[0]);
  EXPECT_EQ(first.seq, 0u);
  EXPECT_NEAR(first.t_agent_s, 2.7, 1e-9);
  EXPECT_FALSE(agent.protocol.metrics_due(kEpoch + 2.99));
  EXPECT_TRUE(agent.protocol.metrics_due(kEpoch + 3.0));

  // Nothing moved: the cadence still re-arms, but no frame is queued.
  agent.protocol.ship_metrics(kEpoch + 3.0);
  EXPECT_TRUE(agent.protocol.take_output().empty());
  EXPECT_FALSE(agent.protocol.metrics_due(kEpoch + 3.5));

  work.add();
  agent.protocol.ship_metrics(kEpoch + 4.0);
  out = agent.protocol.take_output();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(decode<MetricUpdateMsg>(out[0]).seq, 1u);
}

TEST(AgentProtocol, MetricsStayOffWhenTheCoordinatorDisabledThePlane) {
  Admitted agent(/*budget=*/false, /*metrics_interval_s=*/0.0);
  agent.start();
  agent.registry.counter("test.protocol.work").add();
  EXPECT_FALSE(agent.protocol.metrics_due(kEpoch + 1e6));
  agent.protocol.ship_metrics(kEpoch + 1e6);
  EXPECT_TRUE(agent.protocol.take_output().empty());
}

TEST(AgentProtocol, CoordinatorOnlyFramesAreRejected) {
  Admitted agent;
  EXPECT_THROW(agent.protocol.on_frame(HelloMsg{}.encode(), 3.0), WireError);
  EXPECT_THROW(agent.protocol.on_frame(campaign(false), 3.0), WireError);
}

}  // namespace
