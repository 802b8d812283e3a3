#include "cluster/agent_protocol.hpp"

#include "trace/flight_recorder.hpp"
#include "util/strings.hpp"

namespace fs2::cluster {

AgentProtocol::AgentProtocol(std::string node_name, trace::Registry& registry)
    : node_name_(std::move(node_name)), metrics_tracker_(registry) {}

void AgentProtocol::hello(const std::string& sku) {
  HelloMsg hello;
  hello.node_name = node_name_;
  hello.sku = sku;
  outbox_.push_back(hello.encode());
  state_ = State::kAdmission;
}

void AgentProtocol::rejoin(std::uint64_t campaign_id, std::uint32_t phases_ended) {
  outbox_.clear();
  have_campaign_ = have_epoch_ = false;
  campaign_.campaign_id = campaign_id;
  phase_ = phases_ended;
  RejoinMsg msg;
  msg.node_name = node_name_;
  msg.campaign_id = campaign_id;
  msg.phases_ended = phases_ended;
  outbox_.push_back(msg.encode());
  state_ = State::kAwaitAck;
}

AgentProtocol::Action AgentProtocol::admit_if_complete() {
  if (!have_campaign_ || !have_epoch_) return Action::kNone;
  // A rejoin resuming past phase 0 waits for the (possibly replayed)
  // phase-go; everyone else starts at the shared epoch. The metric cadence
  // restarts on its fixed grid, so a rejoined node ships at once.
  state_ = phase_ == 0 ? State::kAwaitStart : State::kAwaitGo;
  next_metrics_s_ = campaign_.metrics_interval_s;
  return Action::kCampaignReady;
}

AgentProtocol::Action AgentProtocol::on_frame(const Frame& frame, double now_s) {
  WireReader reader(frame.payload);
  const bool admission = state_ == State::kAdmission;
  switch (frame.type) {
    case MessageType::kRejoinAck: {
      const RejoinAckMsg ack = RejoinAckMsg::decode(reader);
      if (state_ != State::kAwaitAck) fail("unsolicited rejoin ack");
      if (ack.accepted == 0) {
        state_ = State::kDone;
        throw RejoinRefused("agent " + node_name_ + ": rejoin refused: " + ack.detail);
      }
      phase_ = ack.resume_phase;
      state_ = State::kAdmission;
      return Action::kNone;
    }
    case MessageType::kSyncProbe: {
      if (!admission) break;
      const SyncProbeMsg probe = SyncProbeMsg::decode(reader);
      SyncReplyMsg reply;
      reply.seq = probe.seq;
      reply.t_coord_s = probe.t_coord_s;
      reply.t_agent_s = now_s;
      outbox_.push_back(reply.encode());
      return Action::kNone;
    }
    case MessageType::kCampaign:
      if (!admission) break;
      campaign_ = CampaignMsg::decode(reader);
      setpoint_w_ = campaign_.initial_setpoint_w;
      have_campaign_ = true;
      return admit_if_complete();
    case MessageType::kEpoch:
      if (!admission) break;
      epoch_ = EpochMsg::decode(reader);
      have_epoch_ = true;
      return admit_if_complete();
    case MessageType::kPhaseGo: {
      const PhaseGoMsg go = PhaseGoMsg::decode(reader);
      if (state_ != State::kAwaitGo)
        fail(strings::format("phase-go for %u while not between phases", go.phase_index));
      if (go.phase_index != phase_)
        fail(strings::format("phase-go for %u while entering %u", go.phase_index, phase_));
      return open_phase();
    }
    case MessageType::kBudgetAssign: {
      const BudgetAssignMsg assign = BudgetAssignMsg::decode(reader);
      if (state_ != State::kAwaitAssign)
        fail(strings::format("budget assign seq %u with no report outstanding", assign.seq));
      if (assign.seq + 1 != budget_seq_)
        fail(strings::format("budget assign seq %u for report %u", assign.seq,
                             budget_seq_ - 1));
      setpoint_w_ = assign.setpoint_w;
      state_ = State::kRunning;
      return Action::kRetune;
    }
    case MessageType::kShutdown:
      if (state_ != State::kAwaitShutdown) fail("coordinator shut the run down early");
      state_ = State::kDone;
      return Action::kShutdown;
    default:
      break;
  }
  fail(std::string("unexpected ") + to_string(frame.type));
}

BudgetReportMsg AgentProtocol::report_budget(const control::FeedbackLoop& loop) {
  next_budget_s_ += campaign_.budget_interval_s;
  BudgetReportMsg report;
  report.seq = budget_seq_++;
  report.achieved_w = loop.trailing_mean(campaign_.budget_interval_s);
  report.setpoint_w = loop.setpoint().value;
  report.level = loop.profile().level();
  outbox_.push_back(report.encode());
  state_ = State::kAwaitAssign;
  return report;
}

void AgentProtocol::queue_metrics(double now_s) {
  if (campaign_.metrics_interval_s <= 0.0 || !admitted()) return;
  // Re-arm on the fixed grid so a late ship doesn't drift the cadence.
  const double t = epoch_elapsed_s(now_s);
  while (next_metrics_s_ <= t) next_metrics_s_ += campaign_.metrics_interval_s;
  trace::MetricDelta delta = metrics_tracker_.collect();
  if (delta.empty()) return;
  MetricUpdateMsg msg;
  msg.seq = metrics_seq_++;
  msg.t_agent_s = t;
  msg.delta = std::move(delta);
  outbox_.push_back(msg.encode());
}

void AgentProtocol::finish(double now_s, bool converged, const std::string& detail,
                           std::uint64_t spans_dropped,
                           std::optional<std::vector<trace::MetricSnapshot>> counters) {
  queue_metrics(now_s);
  if (tracing()) {
    TraceSpansMsg spans;
    spans.spans = std::exchange(spans_, {});
    spans.dropped = spans_dropped;
    outbox_.push_back(spans.encode());
    if (counters) {
      CounterSnapshotMsg snapshot;
      snapshot.counters = std::move(*counters);
      outbox_.push_back(snapshot.encode());
    }
  }
  VerdictMsg verdict;
  verdict.converged = converged ? 1 : 0;
  verdict.detail = detail;
  outbox_.push_back(verdict.encode());
  state_ = State::kAwaitShutdown;
}

void AgentProtocol::flight_record(const std::string& reason) {
  FlightRecordMsg msg;
  msg.reason = reason;
  msg.dump = trace::FlightRecorder::instance().serialize();
  outbox_.push_back(msg.encode());
}

}  // namespace fs2::cluster
