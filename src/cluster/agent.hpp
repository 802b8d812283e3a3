#pragma once

#include <chrono>
#include <memory>
#include <string>

#include "cluster/agent_protocol.hpp"
#include "cluster/clock_sync.hpp"
#include "cluster/remote_sink.hpp"
#include "cluster/transport.hpp"
#include "control/feedback_loop.hpp"

namespace fs2::cluster {

/// One node's side of a coordinated run over a blocking socket: the thin
/// driver that feeds an AgentProtocol from the coordinator link (recv, feed,
/// send). The constructor completes admission; the campaign runner then
/// drives phase barriers, budget rounds and metric shipping while the
/// session's RemoteSink streams the node's telemetry bus to the wire.
///
/// Everything runs on the agent's single campaign thread; incoming traffic
/// (phase-go, budget assigns, shutdown) is strictly solicited, so blocking
/// receives at the protocol's wait points are safe.
class AgentSession {
 public:
  struct Options {
    std::string endpoint;     ///< coordinator HOST:PORT
    std::string node_name;
    std::string sku;          ///< e.g. "sim-zen2@1500MHz"
  };

  /// Connects and completes the whole handshake: hello, sync replies until
  /// the campaign arrives, then the epoch. Throws on protocol errors.
  explicit AgentSession(const Options& options);

  const CampaignMsg& campaign() const { return protocol_.campaign(); }
  bool has_budget() const { return campaign().has_budget != 0; }
  /// The node's power setpoint (initial share until an assign moves it).
  double current_setpoint_w() const { return protocol_.setpoint_w(); }
  /// The shared campaign start in this node's clock.
  std::chrono::steady_clock::time_point epoch_time() const {
    return to_time_point(protocol_.epoch().t0_agent_s);
  }

  /// The sink to attach to the node's TelemetryBus.
  RemoteSink& sink() { return *sink_; }

  /// Phase barrier: block until the next phase opens — at the shared epoch
  /// for phase 0, on the coordinator's phase-go (every node finished the
  /// previous phase) for later ones.
  void begin_phase();
  /// The open phase finished on this node: buffer its span (tracing runs),
  /// credit it for a rejoin, and ship metrics if due — the phase edge is the
  /// shipping point of open-loop sim phases, which have no inner wall loop.
  void end_phase(const std::string& name, double begin_s);

  /// In-phase service point at phase-local time `t_s`: a due budget round
  /// (report, block for the reassignment, retune `loop`; closed-loop phases
  /// only, `loop` may be null), then a due delta of the global registry.
  void tick(double t_s, control::FeedbackLoop* loop);

  /// Ship the flight-recorder dump — the agent error path, so the
  /// coordinator's post-mortem has the node's last view. Never throws.
  void ship_flight_record(const std::string& reason);

  /// End of campaign: ship spans and the verdict, block for shutdown.
  void finish(bool converged, const std::string& detail);

  /// Recover a lost link: redial with exponential backoff + jitter, present
  /// the rejoin handshake, re-take clock sync, campaign and epoch on the
  /// fresh socket, and re-announce the sink's channels (call it unmuted).
  /// Returns the coordinator-assigned resume phase (the phase
  /// count means every phase is done — go straight to finish()). Throws
  /// RejoinRefused on refusal (no retry), fs2::Error once the recovery
  /// budget is spent.
  std::uint32_t rejoin();

 private:
  /// Block until the protocol yields an action, feeding it every frame and
  /// sending its output; `what` names the wait in the timeout error.
  AgentProtocol::Action next_action(double timeout_s, const char* what);
  /// Take the campaign and epoch (after hello or an accepted rejoin).
  void admit(double timeout_s);
  void send_output();

  Options options_;
  Connection conn_;
  AgentProtocol protocol_;
  std::unique_ptr<RemoteSink> sink_;
};

}  // namespace fs2::cluster
