#include "firestarter/sim_fleet.hpp"

#include <poll.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <sstream>
#include <thread>

#include "cluster/clock_sync.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/registry.hpp"
#include "trace/tracer.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace fs2::firestarter {

using Clock = std::chrono::steady_clock;
using Action = cluster::AgentProtocol::Action;

void raise_fd_limit(std::size_t need) {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return;
  if (limit.rlim_cur >= need) return;
  rlimit raised = limit;
  raised.rlim_cur = limit.rlim_max == RLIM_INFINITY
                        ? need
                        : std::min<rlim_t>(need, limit.rlim_max);
  if (raised.rlim_cur > limit.rlim_cur) ::setrlimit(RLIMIT_NOFILE, &raised);
}

std::vector<LoopbackSpec> parse_loopback_specs(const std::string& list) {
  std::vector<LoopbackSpec> specs;
  for (const std::string& entry : strings::split(list, ',')) {
    std::string_view trimmed = strings::trim(entry);
    if (trimmed.empty()) throw ConfigError("--loopback: empty node spec in '" + list + "'");

    // Count multiplier: sku[@FREQ]xCOUNT. The 'x' is searched after the
    // '@' (or in the bare sku) so SKU names themselves stay unrestricted.
    std::size_t count = 1;
    const auto at = trimmed.find('@');
    const auto x = trimmed.find('x', at == std::string_view::npos ? 0 : at);
    if (x != std::string_view::npos) {
      const std::string_view count_text = trimmed.substr(x + 1);
      count = static_cast<std::size_t>(
          strings::parse_u64(std::string(count_text), "--loopback count"));
      if (count == 0) throw ConfigError("--loopback: node count must be >= 1");
      trimmed = trimmed.substr(0, x);
    }

    LoopbackSpec spec;
    const auto freq_at = trimmed.find('@');
    const std::string sku = strings::to_lower(trimmed.substr(0, freq_at));
    if (sku == "host")
      throw ConfigError(
          "--loopback: host agents cannot share one process (run a real "
          "fs2 --agent per machine instead); use sim SKUs here");
    spec.target = parse_sim_target(sku);
    spec.name = sku;
    if (freq_at != std::string_view::npos) {
      spec.freq_mhz =
          strings::parse_double(trimmed.substr(freq_at + 1), "--loopback freq");
      if (!(spec.freq_mhz > 0.0)) throw ConfigError("--loopback: freq must be > 0 MHz");
    }
    for (std::size_t i = 0; i < count; ++i) specs.push_back(spec);
    if (specs.size() > kMaxLoopbackNodes)
      throw ConfigError(strings::format("--loopback: fleet larger than %zu nodes",
                                        kMaxLoopbackNodes));
  }
  if (specs.empty()) throw ConfigError("--loopback: no node specs given");
  return specs;
}

// ---- SimAgent ---------------------------------------------------------------

SimAgent::SimAgent(Config cfg, const std::string& endpoint, std::size_t index,
                   const cluster::FaultPlan* plan, const SimAgent* predecessor)
    : cfg_(std::move(cfg)),
      node_name_(cfg_.node_name ? *cfg_.node_name
                                : strings::format("n%zu", index)),
      // A first-incarnation agent may start well before the coordinator's
      // listener is up, so it retries long. A rejoiner dials a coordinator
      // that was provably listening moments ago — if the port now refuses,
      // the run is over (grace expired, listener closed) and a long retry
      // would only delay the fleet's own shutdown.
      conn_(cluster::Connection::connect(endpoint,
                                         /*retry_for_s=*/predecessor ? 5.0 : 30.0)),
      protocol_(node_name_, metrics_) {
  if (plan != nullptr) {
    if (plan->link_faults_enabled()) {
      faults_.emplace(plan->link(node_name_));
      conn_.set_faults(&*faults_);
    }
    // Cues fire once per run: a rejoined incarnation does not re-arm them
    // (its predecessor already consumed the kill).
    if (predecessor == nullptr) {
      if (const cluster::KillCue* kill = plan->kill_for(node_name_))
        kill_cue_ = *kill;
      if (const cluster::StallCue* stall = plan->stall_for(node_name_))
        stall_cue_ = *stall;
    }
  }
  if (predecessor != nullptr) {
    protocol_.rejoin(predecessor->protocol_.campaign().campaign_id,
                     predecessor->protocol_.phase());
    // Bounded wait: the coordinator may have finished (or given this node
    // up and shut down) between the kill and this respawn, leaving the
    // handshake sitting in a backlog nobody serves.
    wake_time_ = cluster::to_time_point(cluster::local_clock_s() + cluster::kRejoinAckTimeoutS);
  } else {
    protocol_.hello(agent_sku(cfg_));
  }
  send_output();
}

std::chrono::steady_clock::time_point SimAgent::deadline() const {
  const bool awaiting_ack = protocol_.state() == cluster::AgentProtocol::State::kAwaitAck;
  return wait_ == Wait::kUntil || (wait_ == Wait::kFrame && awaiting_ack)
             ? wake_time_
             : Clock::time_point::max();
}

void SimAgent::send_output() {
  for (const cluster::Frame& frame : protocol_.take_output()) conn_.send(frame);
}

void SimAgent::ship_metrics() {
  protocol_.ship_metrics(cluster::local_clock_s());
  send_output();
}

void SimAgent::die(const std::string& why) {
  log::warn() << "[" << node_name_ << "] chaos kill: " << why;
  // No ceremony — no flight record, no goodbye. The coordinator sees a dead
  // link mid-stream, exactly like a real crash.
  conn_.close();
  killed_ = true;
  wait_ = Wait::kDone;
}

bool SimAgent::maybe_die() {
  if (killed_ || !kill_cue_ || !kill_cue_->t_s || epoch_elapsed_s() < *kill_cue_->t_s)
    return false;
  die(strings::format("kill cue at t=%.1fs", epoch_elapsed_s()));
  return true;
}

bool SimAgent::maybe_stall() {
  if (stalled_) return true;
  if (!stall_cue_ || !protocol_.admitted() || epoch_elapsed_s() < stall_cue_->t_s)
    return false;
  log::warn() << "[" << node_name_ << "] chaos stall: frozen for "
              << stall_cue_->duration_s << "s";
  wake_time_ = cluster::to_time_point(protocol_.epoch().t0_agent_s + stall_cue_->t_s +
                                      stall_cue_->duration_s);
  stall_cue_.reset();  // fires once
  stalled_ = true;
  stall_resume_ = wait_;
  wait_ = Wait::kUntil;
  return true;
}

double SimAgent::flush_pending() {
  if (!conn_.valid() || !conn_.has_pending()) return 0.0;
  try {
    return conn_.flush_pending();
  } catch (const std::exception& e) {
    fail(e.what());
    return 0.0;
  }
}

void SimAgent::fail(const std::string& what) {
  failed_ = true;
  error_ = what;
  wait_ = Wait::kDone;
  // Best-effort black box: ship the flight record so the coordinator's
  // post-mortem has this node's last view even though the process lives on.
  if (conn_.valid()) {
    try {
      protocol_.flight_record(node_name_ + ": " + what);
      send_output();
    } catch (const std::exception&) {
      // The socket is the thing that broke; nothing more to do.
    }
  }
  conn_.close();
}

double SimAgent::epoch_elapsed_s() const {
  return protocol_.epoch_elapsed_s(cluster::local_clock_s());
}

void SimAgent::prepare_campaign() {
  const cluster::CampaignMsg& campaign = protocol_.campaign();
  std::istringstream in(campaign.campaign_text);
  phases_ = sched::Campaign::parse(in, "(from coordinator)");
  target_ = resolve_target(cfg_);
  std::optional<BudgetShare> budget;
  if (campaign.has_budget != 0)
    budget = BudgetShare{protocol_.setpoint_w(), campaign.ctl_interval_s, campaign.budget_band};
  plan_ = plan_campaign(cfg_, target_, *phases_, budget, /*quiet=*/true);

  wake_time_ = cluster::to_time_point(protocol_.epoch().t0_agent_s);
  sink_ = std::make_unique<cluster::RemoteSink>(&conn_, wake_time_);
  bus_.attach(sink_.get());
  stepper_.emplace(cfg_, target_, bus_, SimPhaseStepper::wants_temp(*phases_, plan_));
  // A rejoined replacement resumes where its predecessor died: the
  // coordinator already credited the completed phases, which are never
  // re-run, and the fresh sink's first begin bracket must carry the resume
  // index, not 0.
  sink_->rewind_phase(protocol_.phase());
  if (protocol_.phase() >= phases_->size()) {
    send_verdict();  // everything already ran; only the verdict is owed
  } else if (protocol_.state() == cluster::AgentProtocol::State::kAwaitStart) {
    wait_ = Wait::kUntil;  // the epoch (in the past for a rejoin: fires at once)
  } else {
    wait_ = Wait::kFrame;  // the phase-go replay (or release) is coming
  }
}

void SimAgent::close_wait_span(const char* name) {
  if (!protocol_.tracing() || wait_open_s_ <= 0.0) return;
  protocol_.add_span(name, wait_open_s_, trace::now_s());
  wait_open_s_ = 0.0;
}

void SimAgent::begin_phase() {
  const std::uint32_t phase_index = protocol_.phase();
  const sched::CampaignPhase& spec = phases_->phases()[phase_index];
  close_wait_span("agent.barrier_wait");
  if (protocol_.tracing()) phase_open_s_ = trace::now_s();
  const TrimDeltas deltas = phase_deltas(cfg_, spec.duration_s);
  // The begin bracket goes on the wire NOW; the phase's virtual-time work
  // waits for advance() so a barrier release reaches the whole fleet
  // before any node starts computing (tight begin spreads at 512 nodes).
  bus_.begin_phase(spec.name, spec.duration_s, deltas.start_s, deltas.stop_s);
  metrics_.gauge("agent.phase").set(static_cast<double>(phase_index));
  wait_ = Wait::kRun;
  // A phase-cued kill fires right after the begin bracket: the coordinator
  // has counted the node into the phase, then the link goes dark mid-phase.
  if (kill_cue_ && kill_cue_->phase && *kill_cue_->phase == phase_index)
    die(strings::format("kill cue at phase %u", phase_index));
}

void SimAgent::send_budget_report() {
  if (protocol_.tracing()) wait_open_s_ = trace::now_s();
  const auto report = protocol_.report_budget(*stepper_->loop());
  send_output();
  metrics_.counter("agent.budget_exchanges").add();
  metrics_.gauge("agent.achieved_w").set(report.achieved_w);
  metrics_.gauge("agent.setpoint_w").set(report.setpoint_w);
  metrics_.gauge("agent.level").set(report.level);
  metrics_.histogram("agent.ctl_error_w")
      .record(std::abs(report.achieved_w - report.setpoint_w));
  wait_ = Wait::kFrame;
}

void SimAgent::advance() {
  if (wait_ != Wait::kRun) return;
  if (maybe_stall() || maybe_die()) return;
  try {
    const std::uint32_t phase_index = protocol_.phase();
    const sched::CampaignPhase& spec = phases_->phases()[phase_index];
    if (!stepper_->in_phase()) {
      // The budget share is read AFTER the barrier, so the phase starts
      // from the latest apportionment (no assignment arrives between the
      // release and here: none is solicited).
      const std::optional<double> budget_w =
          protocol_.campaign().has_budget != 0 ? std::optional<double>(protocol_.setpoint_w())
                                               : std::nullopt;
      stepper_->begin(spec, plan_[phase_index], cfg_.seed + phase_index, budget_w);
    }
    while (!stepper_->done()) {
      const double t = stepper_->step();
      if (stepper_->loop() == nullptr) continue;  // open-loop: ran whole
      ship_metrics();
      if (maybe_die() || maybe_stall()) return;  // a stall resumes this loop later
      if (protocol_.budget_due(t)) {
        send_budget_report();
        return;  // resume from the coordinator's reassignment
      }
    }
    stepper_->end("phase '" + spec.name + "'", /*quiet=*/true);
    ship_metrics();
    finish_phase();
  } catch (const std::exception& e) {
    fail(e.what());
  }
}

void SimAgent::finish_phase() {
  bus_.end_phase();
  if (protocol_.tracing()) {
    protocol_.add_span("phase:" + phases_->phases()[protocol_.phase()].name,
                       phase_open_s_, trace::now_s());
  }
  protocol_.end_phase();
  if (protocol_.phase() < phases_->size()) {
    if (protocol_.tracing()) wait_open_s_ = trace::now_s();
    wait_ = Wait::kFrame;
    return;
  }
  send_verdict();
}

void SimAgent::send_verdict() {
  bus_.finish();
  protocol_.finish(cluster::local_clock_s(), stepper_->all_converged(),
                   strings::format("%zu phases on %s", phases_->size(),
                                   target_.sim_config.name.c_str()));
  send_output();
  wait_ = Wait::kFrame;
}

void SimAgent::handle_frame(const cluster::Frame& frame) {
  const bool rejoin_ack = frame.type == cluster::MessageType::kRejoinAck;
  const Action action = protocol_.on_frame(frame, cluster::local_clock_s());
  send_output();
  if (rejoin_ack)
    log::info() << "[" << node_name_ << "] rejoin accepted "
                << log::kv("resume_phase", protocol_.phase());
  switch (action) {
    case Action::kNone:
      break;
    case Action::kCampaignReady:
      prepare_campaign();
      break;
    case Action::kOpenPhase:
      begin_phase();
      break;
    case Action::kRetune:
      close_wait_span("agent.budget_wait");
      stepper_->loop()->set_target(protocol_.setpoint_w());
      wait_ = Wait::kRun;
      break;
    case Action::kShutdown:
      conn_.close();
      wait_ = Wait::kDone;
      break;
  }
}

void SimAgent::on_readable() {
  if (wait_ == Wait::kDone) return;
  if (maybe_stall()) return;  // frozen: stop reading; frames queue in the kernel
  try {
    cluster::Frame frame;
    // Drain everything available without blocking; each frame may finish
    // the agent (which closes the socket).
    while (wait_ != Wait::kDone && conn_.recv_into(frame, /*timeout_s=*/0.0))
      handle_frame(frame);
  } catch (const std::exception& e) {
    fail(e.what());
  }
}

void SimAgent::on_time() {
  if (stalled_) {
    // The stall window ended: thaw and pick up where the freeze hit.
    stalled_ = false;
    wait_ = stall_resume_;
    return;
  }
  if (protocol_.state() == cluster::AgentProtocol::State::kAwaitAck) {
    fail("rejoin handshake timed out (coordinator gone or unresponsive)");
    return;
  }
  try {
    if (protocol_.on_time(cluster::local_clock_s()) == Action::kOpenPhase) begin_phase();
  } catch (const std::exception& e) {
    fail(e.what());
  }
}

// ---- SimFleet ---------------------------------------------------------------

SimFleet::SimFleet(const Config& base, const std::vector<LoopbackSpec>& specs,
                   std::uint16_t port, const cluster::FaultPlan* plan)
    : endpoint_(strings::format("127.0.0.1:%u", port)) {
  if (plan != nullptr) plan_ = *plan;
  agents_.reserve(specs.size());
  configs_.reserve(specs.size());
  respawned_.assign(specs.size(), false);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Config cfg = base;
    cfg.coordinator = false;
    cfg.loopback_nodes.reset();
    cfg.campaign_file.reset();
    cfg.target_spec.reset();
    cfg.record_trace.reset();
    cfg.control_log.reset();
    cfg.chaos_spec.reset();
    cfg.measurement = false;
    cfg.require_convergence = false;
    cfg.target = specs[i].target;
    cfg.sim_freq_mhz = specs[i].freq_mhz;
    cfg.node_name = strings::format("n%zu-%s", i, specs[i].name.c_str());
    cfg.seed = base.seed + i + 1;  // decorrelate the nodes' meter noise
    configs_.push_back(cfg);
    agents_.push_back(std::make_unique<SimAgent>(
        std::move(cfg), endpoint_, i, plan_ ? &*plan_ : nullptr));
  }
}

void SimFleet::run() {
  std::vector<pollfd> fds;
  std::vector<std::size_t> fd_agents;
  fds.reserve(agents_.size());
  fd_agents.reserve(agents_.size());

  trace::Counter& iterations = trace::Registry::instance().counter("reactor.poll_iterations");
  trace::Histogram& poll_wait =
      trace::Registry::instance().histogram("reactor.poll_wait_s");
  for (;;) {
    iterations.add();
    TRACE_SPAN("reactor.iteration");

    // Chaos-killed agents respawn as rejoining replacements after a
    // deterministic backoff delay (seeded from the plan, not the clock).
    const Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < agents_.size(); ++i) {
      // One respawn per node: the replacement's connect already retries for
      // 30 s, so a second failure means the coordinator is gone for good.
      if (!agents_[i]->killed() || respawned_[i]) continue;
      respawned_[i] = true;
      cluster::Backoff::Options bopts;
      bopts.seed = (plan_ ? plan_->seed : 1) * 0x9E3779B97F4A7C15ull + i;
      cluster::Backoff backoff(bopts);
      Respawn rs;
      rs.index = i;
      rs.due = now + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(backoff.next_s()));
      respawns_.push_back(rs);
    }
    for (std::size_t r = 0; r < respawns_.size();) {
      if (now < respawns_[r].due) {
        ++r;
        continue;
      }
      const std::size_t i = respawns_[r].index;
      respawns_.erase(respawns_.begin() + r);
      try {
        agents_[i] = std::make_unique<SimAgent>(configs_[i], endpoint_, i,
                                                plan_ ? &*plan_ : nullptr, agents_[i].get());
      } catch (const std::exception& e) {
        // Dial failed even after the connect retries: the dead incarnation
        // stays in the slot and the outcome reports the crash.
        log::warn() << "[fleet] respawn of " << configs_[i].node_name.value_or("?")
                    << " failed: " << e.what();
      }
    }

    // Drain chaos-delayed frames that have come due, and learn how soon the
    // next one is due so the poll timeout never overshoots it.
    double pending_due_s = 0.0;
    for (auto& agent : agents_) {
      const double due = agent->flush_pending();
      if (due > 0.0)
        pending_due_s = pending_due_s == 0.0 ? due : std::min(pending_due_s, due);
    }

    fds.clear();
    fd_agents.clear();
    bool alive = !respawns_.empty();
    bool runnable = false;
    Clock::time_point next_wake = Clock::time_point::max();
    for (const Respawn& r : respawns_) next_wake = std::min(next_wake, r.due);
    for (std::size_t i = 0; i < agents_.size(); ++i) {
      const SimAgent::Wait wait = agents_[i]->wait();
      if (wait == SimAgent::Wait::kDone) continue;
      alive = true;
      runnable |= wait == SimAgent::Wait::kRun;
      if (wait == SimAgent::Wait::kFrame) {
        fds.push_back(pollfd{agents_[i]->fd(), POLLIN, 0});
        fd_agents.push_back(i);
      }
      next_wake = std::min(next_wake, agents_[i]->deadline());
    }
    if (!alive) break;
    const bool wake_pending = next_wake != Clock::time_point::max();

    int timeout_ms = 600000;  // the coordinator's stall guard, mirrored
    if (runnable) {
      timeout_ms = 0;
    } else if (wake_pending) {
      const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
          next_wake - Clock::now());
      timeout_ms = static_cast<int>(std::clamp<long long>(until.count(), 0, 600000));
    }
    if (pending_due_s > 0.0)
      timeout_ms = std::min(timeout_ms,
                            static_cast<int>(pending_due_s * 1000.0) + 1);
    const Clock::time_point poll_begin = Clock::now();
    const int ready =
        ::poll(fds.empty() ? nullptr : fds.data(), fds.size(), timeout_ms);
    poll_wait.record(
        std::chrono::duration<double>(Clock::now() - poll_begin).count());
    if (ready < 0) {
      if (errno == EINTR) continue;
      for (auto& agent : agents_)
        if (agent->wait() != SimAgent::Wait::kDone) agent->on_readable();
      break;
    }
    if (ready == 0 && !runnable && !wake_pending && pending_due_s == 0.0) {
      // Nothing runnable, nothing due, and 600 s of silence: mirror the
      // coordinator's stall verdict instead of spinning forever.
      for (std::size_t i = 0; i < agents_.size(); ++i)
        if (agents_[i]->wait() == SimAgent::Wait::kFrame)
          agents_[i]->on_readable();  // surfaces the disconnect, if any
      break;
    }

    // Epoch wakes and barrier releases first — every agent's begin bracket
    // hits the wire before any agent starts its phase compute.
    if (wake_pending) {
      const Clock::time_point wake_now = Clock::now();
      for (auto& agent : agents_)
        if (wake_now >= agent->deadline()) agent->on_time();
    }
    if (ready > 0)
      for (std::size_t k = 0; k < fds.size(); ++k)
        if (fds[k].revents & (POLLIN | POLLHUP | POLLERR))
          agents_[fd_agents[k]]->on_readable();
    for (auto& agent : agents_)
      if (agent->wait() == SimAgent::Wait::kRun) agent->advance();
  }

  outcomes_.clear();
  for (const auto& agent : agents_) {
    Outcome outcome;
    outcome.name = agent->name();
    // A killed() final incarnation means the respawn never made it back —
    // the crash went unrecovered, which is a failure.
    outcome.ok = !agent->failed() && !agent->killed() &&
                 agent->wait() == SimAgent::Wait::kDone;
    outcome.error = agent->error();
    if (!outcome.ok && outcome.error.empty())
      outcome.error = agent->killed() ? "chaos-killed, never rejoined" : "fleet stalled";
    outcomes_.push_back(std::move(outcome));
  }
}

bool SimFleet::all_ok() const {
  for (const Outcome& outcome : outcomes_) {
    if (!outcome.ok) return false;
  }
  return true;
}

LoopbackRun run_with_loopback_fleet(std::unique_ptr<cluster::Coordinator> coordinator,
                                    std::ostream& log, const Config& base,
                                    const std::vector<LoopbackSpec>& specs,
                                    const cluster::FaultPlan* plan) {
  LoopbackRun run;
  std::unique_ptr<SimFleet> fleet;
  std::thread fleet_thread;
  if (!specs.empty()) {
    fleet_thread = std::thread([&, port = coordinator->port()] {
      try {
        fleet = std::make_unique<SimFleet>(base, specs, port, plan);
        fleet->run();
      } catch (const std::exception& e) {
        run.fleet_error = e.what();
      }
    });
  }
  try {
    run.result = coordinator->run(log);
  } catch (const std::exception& e) {
    run.failure = e.what();
    coordinator.reset();
  }
  if (fleet_thread.joinable()) fleet_thread.join();
  if (fleet)
    for (const SimFleet::Outcome& outcome : fleet->outcomes())
      if (!outcome.ok) run.failed_agents.push_back(outcome);
  return run;
}

}  // namespace fs2::firestarter
