#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/agent_protocol.hpp"
#include "cluster/coordinator.hpp"
#include "cluster/fault_injection.hpp"
#include "cluster/messages.hpp"
#include "cluster/remote_sink.hpp"
#include "cluster/transport.hpp"
#include "firestarter/sim_phases.hpp"
#include "sched/campaign.hpp"
#include "telemetry/sinks.hpp"
#include "trace/registry.hpp"

namespace fs2::firestarter {

/// One entry of a --loopback fleet spec: "zen2@1500" = a simulated Zen 2
/// agent pinned to 1500 MHz; "zen2@1500x256" = 256 of them. Loopback
/// agents are sim-only — two host stress runs inside one process would
/// fight over the same CPUs and measure each other.
struct LoopbackSpec {
  TargetSystem target = TargetSystem::kSimZen2;
  double freq_mhz = 0.0;
  std::string name;
};

/// Parse a --loopback spec list, expanding count multipliers:
/// `sku[@FREQ][xCOUNT]`, comma-separated. Throws ConfigError on malformed
/// specs, host entries, or fleets larger than kMaxLoopbackNodes.
std::vector<LoopbackSpec> parse_loopback_specs(const std::string& list);

/// Upper bound on one process's loopback fleet (file descriptors: agent +
/// coordinator side per node).
inline constexpr std::size_t kMaxLoopbackNodes = 4096;

/// Best-effort bump of the open-file soft limit to at least `need` (large
/// loopback fleets hold two fds per node in one process). Never throws —
/// if the hard limit is lower, socket creation will fail with a precise
/// errno anyway.
void raise_fd_limit(std::size_t need);

/// One in-process simulated agent driven by the fleet's event loop instead
/// of a dedicated thread: a cooperative driver of cluster::AgentProtocol
/// and of the same SimPhaseStepper a local campaign runs, yielding back to
/// the loop wherever either would block. What it adds is chaos and
/// scheduling: kill/stall cues, a private metric registry and wait spans
/// per node.
class SimAgent {
 public:
  /// What the agent is blocked on.
  enum class Wait {
    kFrame,  ///< a coordinator frame (poll the socket)
    kUntil,  ///< a point in time (the shared epoch)
    kRun,    ///< nothing — runnable; the loop should advance the phase
    kDone,   ///< finished (cleanly or with error())
  };

  /// Connects and sends hello immediately (the coordinator's handshake
  /// finds every agent already dialed in) — or, as the replacement of a
  /// killed `predecessor`, presents its rejoin credentials and resumes the
  /// campaign where it died. `plan` (may be null) arms this agent's link
  /// faults; kill/stall cues fire once per run and are not re-armed on a
  /// rejoined incarnation.
  SimAgent(Config cfg, const std::string& endpoint, std::size_t index,
           const cluster::FaultPlan* plan = nullptr, const SimAgent* predecessor = nullptr);

  Wait wait() const { return wait_; }
  int fd() const { return conn_.fd(); }
  /// When on_time() is due: the end of a kUntil wait, or the point a
  /// rejoin-ack wait gives up (a finished or wedged coordinator would strand
  /// the replacement); time_point::max() otherwise.
  std::chrono::steady_clock::time_point deadline() const;
  const std::string& name() const { return node_name_; }
  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }

  /// A chaos kill cue fired: the agent dropped its socket without ceremony
  /// and the fleet should spawn a rejoining replacement.
  bool killed() const { return killed_; }

  /// Write any delay-held frames that have come due; returns seconds until
  /// the next held frame (0 = none pending). The fleet calls this every
  /// iteration and bounds its poll timeout by the result, so chaos-delayed
  /// frames drain even while the agent itself is blocked.
  double flush_pending();

  /// Drain and handle every frame the socket has ready. Cheap: protocol
  /// transitions only (sync replies, begin brackets on phase-go, budget
  /// retunes) — phase computation happens in advance(), so a broadcast
  /// reaches the whole fleet before any node starts burning virtual time
  /// (keeping begin-bracket spreads tight).
  void on_readable();

  /// deadline() passed: open phase 0 at the epoch, end a stall window, or
  /// give up on a rejoin ack.
  void on_time();

  /// Run the current phase until it blocks (budget exchange pending) or
  /// completes (end bracket sent, next phase awaited / verdict sent).
  void advance();

 private:
  void handle_frame(const cluster::Frame& frame);
  void send_output();
  void prepare_campaign();
  void begin_phase();
  void finish_phase();
  /// Final metrics flush + span ship + convergence verdict; await shutdown.
  void send_verdict();
  void send_budget_report();
  void fail(const std::string& what);
  /// Chaos kill: drop the socket without ceremony (mid-stream, as a real
  /// crash would) and mark this incarnation dead so the fleet respawns a
  /// rejoining replacement.
  void die(const std::string& why);
  /// Fire a due time-cued kill (phase cues fire in begin_phase()); true
  /// when the agent just died.
  bool maybe_die();
  /// Arm the stall window if its cue time has passed: the agent stops
  /// reading and writing (socket stays open) until the window ends.
  bool maybe_stall();
  /// Ship a due kMetricUpdate delta of the agent's private registry.
  void ship_metrics();
  double epoch_elapsed_s() const;
  /// Close the open barrier/budget wait span (no-op when none is open).
  void close_wait_span(const char* name);
  Config cfg_;
  std::string node_name_;
  cluster::Connection conn_;
  Wait wait_ = Wait::kFrame;
  bool failed_ = false;
  std::string error_;

  // Live metrics plane: a per-agent registry (the process-global one is
  // shared by the whole loopback fleet and the coordinator), declared
  // before the protocol whose delta tracker reads it.
  trace::Registry metrics_;
  cluster::AgentProtocol protocol_;

  // Chaos plumbing. The LinkFaults injector must outlive the connection
  // that points at it, so the agent owns it by value.
  std::optional<cluster::LinkFaults> faults_;
  std::optional<cluster::KillCue> kill_cue_;
  std::optional<cluster::StallCue> stall_cue_;
  bool killed_ = false;
  bool stalled_ = false;
  Wait stall_resume_ = Wait::kRun;  ///< wait to restore when the stall ends

  /// What deadline() reports: the shared epoch, the end of a chaos stall
  /// window, or when a replacement gives up on its rejoin ack.
  std::chrono::steady_clock::time_point wake_time_;

  // Campaign state (valid after prepare_campaign()).
  Target target_;
  std::optional<sched::Campaign> phases_;
  std::vector<PhasePlan> plan_;
  telemetry::TelemetryBus bus_;
  std::unique_ptr<cluster::RemoteSink> sink_;
  std::optional<SimPhaseStepper> stepper_;

  // Observability (tracing campaigns): phase and wait boundaries. The spans
  // themselves go to the protocol's per-agent buffer — hundreds of loopback
  // agents share one reactor thread, so the global thread-local tracer
  // cannot attribute spans per node.
  double phase_open_s_ = 0.0;  ///< begin of the running phase span
  double wait_open_s_ = 0.0;   ///< begin of the open barrier/budget wait (0 = none)
};

/// Drives a whole --loopback fleet of SimAgents from ONE thread: a poll(2)
/// loop over every agent's socket plus a run queue for agents with phase
/// work pending. Replaces the thread-per-agent design, whose per-node
/// stacks and context-switch storms capped fleets at a few dozen nodes —
/// 512 loopback agents fit in one process and one scheduler entity, which
/// is what lets CI exercise the coordinator at fleet scale.
class SimFleet {
 public:
  /// `base` is the coordinator's Config; per-agent copies are derived the
  /// same way the old thread-per-agent path derived them (target/freq from
  /// the spec, decorrelated seeds, cluster flags stripped). `plan` (may be
  /// null; copied) arms each agent's chaos faults and cues.
  SimFleet(const Config& base, const std::vector<LoopbackSpec>& specs,
           std::uint16_t port, const cluster::FaultPlan* plan = nullptr);

  /// Run every agent to completion (call on a dedicated thread while the
  /// coordinator runs on the caller's). Never throws — per-agent failures
  /// are recorded. Chaos-killed agents are respawned after a deterministic
  /// backoff delay as rejoining replacements; the outcome row reflects the
  /// final incarnation.
  void run();

  struct Outcome {
    std::string name;
    bool ok = true;
    std::string error;
  };
  const std::vector<Outcome>& outcomes() const { return outcomes_; }
  bool all_ok() const;

 private:
  /// A killed agent waiting for its replacement to dial back in.
  struct Respawn {
    std::size_t index = 0;
    std::chrono::steady_clock::time_point due;
  };

  std::string endpoint_;
  std::optional<cluster::FaultPlan> plan_;
  std::vector<Config> configs_;  ///< per-agent configs, kept for respawns
  std::vector<std::unique_ptr<SimAgent>> agents_;
  std::vector<Respawn> respawns_;
  std::vector<bool> respawned_;  ///< one respawn per node, ever
  std::vector<Outcome> outcomes_;
};

/// A coordinator run and the loopback fleet that ran alongside it.
struct LoopbackRun {
  cluster::Coordinator::Result result;
  std::string failure;      ///< the coordinator's error ("" when it finished)
  std::string fleet_error;  ///< the fleet failed to start ("" otherwise)
  std::vector<SimFleet::Outcome> failed_agents;  ///< agents that did not finish cleanly
};

/// Run `coordinator` on the calling thread (chatter to `log`) and, when
/// `specs` is non-empty, a SimFleet of them on a second thread dialing its
/// port. A failing coordinator is destroyed at once, which closes every
/// connection so the agents error out of their waits and the join cannot
/// hang. Never throws: each caller words its own failure report.
LoopbackRun run_with_loopback_fleet(std::unique_ptr<cluster::Coordinator> coordinator,
                                    std::ostream& log, const Config& base,
                                    const std::vector<LoopbackSpec>& specs,
                                    const cluster::FaultPlan* plan = nullptr);

}  // namespace fs2::firestarter
