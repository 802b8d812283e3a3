#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/messages.hpp"
#include "control/feedback_loop.hpp"
#include "trace/metric_delta.hpp"

namespace fs2::cluster {

/// The coordinator refused a rejoin. Authoritative (window expired, stale
/// campaign id, verdict already in): retrying cannot change the answer.
class RejoinRefused : public WireError {
 public:
  using WireError::WireError;
};

/// How long a rejoining agent waits for its ack and each admission frame.
inline constexpr double kRejoinAckTimeoutS = 10.0;

/// One node's side of the coordinator protocol, without I/O: frames and the
/// current time go in; frames to send and actions come out. Every
/// agent-side message is built and every coordinator frame validated here,
/// so the blocking `--agent` session (AgentSession) and the loopback fleet's
/// cooperative agents (SimAgent) are two drivers of one implementation.
///
/// Sequence: hello (or rejoin → ack) → sync-probe replies until campaign and
/// epoch arrive → phase 0 opens at the epoch, later phases on phase-go →
/// budget report/assign rounds and metric deltas while a phase runs → last
/// metric delta, spans, verdict → shutdown. Times are agent steady-clock
/// seconds (local_clock_s()). Violations throw WireError; the driver owns
/// sockets, timeouts and the telemetry stream.
class AgentProtocol {
 public:
  enum class State {
    kIdle,           ///< nothing sent yet
    kAwaitAck,       ///< rejoin sent; the coordinator's verdict is pending
    kAdmission,      ///< answering sync probes until campaign + epoch arrive
    kAwaitStart,     ///< admitted at phase 0, which opens at the shared epoch
    kAwaitGo,        ///< between phases: the next one opens on phase-go
    kRunning,        ///< a phase is open
    kAwaitAssign,    ///< budget report sent; the reassignment is pending
    kAwaitShutdown,  ///< verdict sent
    kDone,           ///< shutdown received
  };

  /// What a frame (or the clock) asks the driver to do.
  enum class Action {
    kNone,           ///< nothing beyond sending the output
    kCampaignReady,  ///< admitted: set up, then await phase()
    kOpenPhase,      ///< start phase()
    kRetune,         ///< move the power loop to setpoint_w()
    kShutdown,       ///< the run is over; close the link
  };

  /// `registry` feeds the kMetricUpdate deltas and must outlive the protocol.
  AgentProtocol(std::string node_name, trace::Registry& registry);

  /// First contact on a fresh link.
  void hello(const std::string& sku);
  /// Reconnect on a fresh link after a loss, presenting the campaign id and
  /// completed phase count; output queued for the dead link is dropped. An
  /// accepted ack resumes at its phase; a refusal throws RejoinRefused.
  void rejoin(std::uint64_t campaign_id, std::uint32_t phases_ended);

  /// Feed one coordinator frame received at `now_s`.
  Action on_frame(const Frame& frame, double now_s);
  /// Feed the clock: phase 0's barrier is the shared epoch itself.
  Action on_time(double now_s) {
    return state_ == State::kAwaitStart && now_s >= epoch_.t0_agent_s ? open_phase()
                                                                      : Action::kNone;
  }

  /// The open phase finished locally; the next one opens on phase-go.
  void end_phase() {
    ++phase_;
    state_ = State::kAwaitGo;
  }

  /// True when phase-local time `t_s` has crossed the next budget-report
  /// deadline (budget campaigns, open phase only).
  bool budget_due(double t_s) const {
    return state_ == State::kRunning && campaign_.has_budget != 0 &&
           t_s >= next_budget_s_ - 1e-9;
  }
  /// Report the loop's trailing achieved watts and commanded level; the
  /// coordinator's assign comes back as a kRetune action.
  BudgetReportMsg report_budget(const control::FeedbackLoop& loop);

  /// True when epoch-elapsed time has crossed the next kMetricUpdate
  /// deadline (never when the coordinator disabled the plane).
  bool metrics_due(double now_s) const {
    return campaign_.metrics_interval_s > 0.0 && admitted() &&
           epoch_elapsed_s(now_s) >= next_metrics_s_;
  }
  /// When due, re-arm the cadence on its fixed grid and queue one registry
  /// delta (none when no metric moved since the last one).
  void ship_metrics(double now_s) {
    if (metrics_due(now_s)) queue_metrics(now_s);
  }

  /// Buffer a span for the end-of-run shipment (tracing campaigns only).
  void add_span(std::string name, double begin_s, double end_s) {
    if (tracing()) spans_.push_back(trace::Span{std::move(name), begin_s, end_s});
  }
  /// End of campaign: the last metric delta (the coordinator's folded series
  /// then equal the node's final totals); for tracing campaigns the span
  /// buffer (with the tracer's `spans_dropped`) and an optional `counters`
  /// snapshot; then the verdict — the coordinator's "node done" signal.
  void finish(double now_s, bool converged, const std::string& detail,
              std::uint64_t spans_dropped = 0,
              std::optional<std::vector<trace::MetricSnapshot>> counters = std::nullopt);
  /// Queue the flight-recorder dump for the coordinator's post-mortem.
  void flight_record(const std::string& reason);

  /// Take the frames queued for the coordinator, oldest first.
  std::vector<Frame> take_output() { return std::exchange(outbox_, {}); }

  State state() const { return state_; }
  bool admitted() const { return state_ >= State::kAwaitStart; }
  const CampaignMsg& campaign() const { return campaign_; }
  const EpochMsg& epoch() const { return epoch_; }
  bool tracing() const { return campaign_.trace_enabled != 0; }
  /// The node's power setpoint: the initial share until an assign moves it.
  double setpoint_w() const { return setpoint_w_; }
  /// The open phase or the next to open: the completed-phase count.
  std::uint32_t phase() const { return phase_; }
  double epoch_elapsed_s(double now_s) const { return now_s - epoch_.t0_agent_s; }

 private:
  Action admit_if_complete();
  void queue_metrics(double now_s);
  Action open_phase() {
    state_ = State::kRunning;
    next_budget_s_ = campaign_.budget_interval_s;
    return Action::kOpenPhase;
  }
  [[noreturn]] void fail(const std::string& what) const {
    throw WireError("agent " + node_name_ + ": " + what);
  }

  std::string node_name_;
  trace::MetricDeltaTracker metrics_tracker_;
  State state_ = State::kIdle;
  std::vector<Frame> outbox_;

  CampaignMsg campaign_;
  EpochMsg epoch_;
  bool have_campaign_ = false;
  bool have_epoch_ = false;

  std::uint32_t phase_ = 0;
  double setpoint_w_ = 0.0;
  double next_budget_s_ = 0.0;
  std::uint32_t budget_seq_ = 0;
  double next_metrics_s_ = 0.0;
  std::uint32_t metrics_seq_ = 0;
  std::vector<trace::Span> spans_;
};

}  // namespace fs2::cluster
