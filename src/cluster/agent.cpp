#include "cluster/agent.hpp"

#include <thread>

#include "cluster/fault_injection.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/registry.hpp"
#include "trace/tracer.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace fs2::cluster {

namespace {

/// Dial budget for the first connect: an agent routinely starts before its
/// coordinator finishes binding.
constexpr double kConnectTimeoutS = 15.0;
/// Overall budget for one reconnect/rejoin recovery (dial + handshake,
/// across backoff attempts) after a lost link.
constexpr double kRejoinTimeoutS = 30.0;
/// Longest coordinator silence tolerated at a phase barrier or shutdown.
constexpr double kBarrierTimeoutS = 600.0;

}  // namespace

AgentSession::AgentSession(const Options& options)
    : options_(options),
      conn_(Connection::connect(options.endpoint, kConnectTimeoutS)),
      protocol_(options.node_name, trace::Registry::instance()) {
  protocol_.hello(options.sku);
  send_output();
  admit(/*timeout_s=*/30.0);
  sink_ = std::make_unique<RemoteSink>(&conn_, epoch_time());
  log::info() << "agent: joined cluster " << log::kv("node", options.node_name) << ' '
              << log::kv("endpoint", options.endpoint) << ' '
              << log::kv("offset_us", strings::format("%.1f", protocol_.epoch().offset_s * 1e6))
              << ' ' << log::kv("rtt_us", strings::format("%.1f", protocol_.epoch().rtt_s * 1e6))
              << ' ' << log::kv("metrics_interval_s", campaign().metrics_interval_s);
}

void AgentSession::send_output() {
  for (const Frame& frame : protocol_.take_output()) conn_.send(frame);
}

AgentProtocol::Action AgentSession::next_action(double timeout_s, const char* what) {
  for (;;) {
    const auto frame = conn_.recv(timeout_s);
    if (!frame)
      throw WireError(strings::format("agent: no %s from the coordinator within %.0f s",
                                      what, timeout_s));
    const AgentProtocol::Action action = protocol_.on_frame(*frame, local_clock_s());
    send_output();
    if (action != AgentProtocol::Action::kNone) return action;
  }
}

void AgentSession::admit(double timeout_s) {
  // The coordinator owns the sequencing (sync probes, campaign, epoch); the
  // only action admission can yield is "campaign ready". A phase-go replay
  // queued behind a rejoin's epoch stays buffered for begin_phase().
  next_action(timeout_s, "campaign");
  // The coordinator decides fleet-wide whether spans are recorded; the flag
  // arrives before the epoch, so phase 0 is covered.
  if (protocol_.tracing()) trace::Tracer::set_enabled(true);
}

void AgentSession::begin_phase() {
  TRACE_SPAN("agent.phase_barrier");
  if (protocol_.state() != AgentProtocol::State::kAwaitStart) {
    next_action(kBarrierTimeoutS, "phase-go");
    return;
  }
  // Phase 0 holds the whole fleet at the shared epoch (a wake-up a hair
  // early simply sleeps again).
  while (protocol_.on_time(local_clock_s()) == AgentProtocol::Action::kNone)
    std::this_thread::sleep_until(epoch_time());
}

void AgentSession::end_phase(const std::string& name, double begin_s) {
  // Runtime-built span names ("phase:<name>") cannot ride the literal-only
  // global Tracer ring; the protocol buffers them.
  protocol_.add_span("phase:" + name, begin_s, trace::now_s());
  protocol_.end_phase();
  protocol_.ship_metrics(local_clock_s());
  send_output();
}

void AgentSession::tick(double t_s, control::FeedbackLoop* loop) {
  if (loop != nullptr && protocol_.budget_due(t_s)) {
    TRACE_SPAN("agent.budget_exchange");
    protocol_.report_budget(*loop);
    send_output();
    next_action(/*timeout_s=*/60.0, "budget assign");
    loop->set_target(protocol_.setpoint_w());
  }
  protocol_.ship_metrics(local_clock_s());
  send_output();
}

void AgentSession::ship_flight_record(const std::string& reason) {
  try {
    if (!conn_.valid()) return;
    protocol_.flight_record(reason);
    send_output();
  } catch (const Error&) {
    // Already dying; the dump on local disk (--flight-out) is the backup.
  }
}

std::uint32_t AgentSession::rejoin() {
  conn_.close();
  // Jitter seeded from the campaign id + node identity: reproducible per
  // run, and a whole fleet knocked over at once fans its redials out
  // instead of stampeding the listener in lockstep.
  Backoff::Options opts;
  std::uint64_t seed = campaign().campaign_id + protocol_.phase();
  for (const char c : options_.node_name) seed = seed * 31 + static_cast<std::uint8_t>(c);
  opts.seed = seed;
  Backoff backoff(opts);
  const auto give_up_at = std::chrono::steady_clock::now() +
                          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(kRejoinTimeoutS));
  for (;;) {
    try {
      // conn_ is a member, so its address — which the RemoteSink holds —
      // survives the redial and the sink keeps streaming on the new socket.
      conn_ = Connection::connect(options_.endpoint, /*retry_for_s=*/1.0);
      protocol_.rejoin(campaign().campaign_id, protocol_.phase());
      send_output();
      admit(kRejoinAckTimeoutS);
      sink_->announce_channels();
      log::info() << "agent: rejoined cluster " << log::kv("node", options_.node_name)
                  << ' ' << log::kv("resume_phase", protocol_.phase()) << ' '
                  << log::kv("attempts", backoff.attempts() + 1);
      trace::FlightRecorder::instance().note_event(
          strings::format("rejoined coordinator, resuming phase %u", protocol_.phase()));
      return protocol_.phase();
    } catch (const RejoinRefused&) {
      conn_.close();
      throw;
    } catch (const Error& e) {
      if (std::chrono::steady_clock::now() >= give_up_at)
        throw Error(strings::format("agent: rejoin failed for %.0f s: %s",
                                    kRejoinTimeoutS, e.what()));
      const double delay = backoff.next_s();
      log::warn() << "agent: rejoin attempt failed (" << e.what() << "); retrying in "
                  << strings::format("%.0f ms", delay * 1e3);
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    }
  }
}

void AgentSession::finish(bool converged, const std::string& detail) {
  std::uint64_t dropped = 0;
  std::optional<std::vector<trace::MetricSnapshot>> counters;
  if (protocol_.tracing()) {
    std::vector<trace::SpanEvent> events;
    trace::Tracer::drain(events);
    for (const trace::SpanEvent& e : events) protocol_.add_span(e.name, e.begin_s, e.end_s);
    dropped = trace::Tracer::dropped();
    // The real agent owns its process, so its registry snapshot is its own.
    counters = trace::Registry::instance().snapshot();
  }
  protocol_.finish(local_clock_s(), converged, detail, dropped, std::move(counters));
  send_output();
  next_action(kBarrierTimeoutS, "shutdown");
  conn_.close();
}

}  // namespace fs2::cluster
