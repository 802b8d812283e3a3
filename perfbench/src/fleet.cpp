// fleet_256: a 256-node loopback fleet (simulated zen2 + haswell agents on
// real localhost TCP) walking a three-phase campaign under a global
// cluster-power budget with the metrics plane on — the product's
// `fs2 --loopback ... --target cluster-power=...` path. Two threads: the
// coordinator (this one) and the SimFleet event loop.

#include "fleet.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <optional>
#include <sstream>
#include <streambuf>
#include <thread>

#include "cluster/coordinator.hpp"
#include "firestarter/config.hpp"
#include "firestarter/sim_fleet.hpp"
#include "reference.hpp"
#include "sched/campaign.hpp"
#include "trace/tracer.hpp"

namespace fs2::perfbench {

namespace {

/// The coordinator's start delay; excluded from every timing.
constexpr double kStartDelayS = 0.25;
/// Reference slices read on each fleet CPU between campaigns, and the CPU
/// time of each.
constexpr int kReferenceSlices = 12;
constexpr double kReferenceS = 0.002;

/// Host speed of each of `cpus` between two campaigns: syscall reference
/// slices run by this thread on each CPU in turn.
std::vector<std::vector<double>> reference_speeds(const std::vector<int>& cpus) {
  std::vector<std::vector<double>> speeds(cpus.size());
  CpuPin pin;
  for (int i = 0; i < kReferenceSlices; ++i)
    for (std::size_t c = 0; c < cpus.size(); ++c) {
      pin.to(cpus[c]);
      speeds[c].push_back(host_speed(Reference::kSyscall, kReferenceS));
    }
  return speeds;
}

/// Stream buffer that stamps every complete line with the time its newline
/// arrived — how the benchmark splits Coordinator::run from outside, using
/// the progress lines it writes (per-node sync, epoch, verdicts).
class TimestampedLines : public std::streambuf {
 public:
  struct Line {
    double t_s;
    double cpu_s;  ///< `cpu_now()` when the line ended
    std::string text;
  };
  TimestampedLines(Clock::time_point t0, std::function<double()> cpu_now)
      : t0_(t0), cpu_now_(std::move(cpu_now)) {}
  const std::vector<Line>& lines() const { return lines_; }

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) return traits_type::not_eof(ch);
    put(traits_type::to_char_type(ch));
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) put(s[i]);
    return n;
  }

 private:
  void put(char c) {
    if (c != '\n') {
      current_ += c;
      return;
    }
    lines_.push_back(Line{seconds_since(t0_), cpu_now_(), std::move(current_)});
    current_.clear();
  }
  Clock::time_point t0_;
  std::function<double()> cpu_now_;
  std::string current_;
  std::vector<Line> lines_;
};

/// Drains the product's span rings on a side thread while a traced
/// campaign runs and counts the coordinator's budget-exchange spans.
class ExchangeCounter {
 public:
  ExchangeCounter() {
    trace::Tracer::reset();
    trace::Tracer::set_enabled(true);
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        drain();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }
  ~ExchangeCounter() { finish(); }
  ExchangeCounter(const ExchangeCounter&) = delete;
  ExchangeCounter& operator=(const ExchangeCounter&) = delete;

  /// Stop tracing and return the count (idempotent).
  std::uint64_t finish() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
      trace::Tracer::set_enabled(false);
      drain();
      dropped_ = trace::Tracer::dropped();
    }
    return count_;
  }
  std::uint64_t dropped() const { return dropped_; }
  /// CPU time of the drain thread so far; valid until finish().
  double cpu_s() { return thread_cpu_s(thread_.native_handle()); }

 private:
  void drain() {
    events_.clear();
    trace::Tracer::drain(events_);
    for (const trace::SpanEvent& event : events_)
      if (std::strcmp(event.name, "cluster.budget_exchange") == 0) ++count_;
  }
  std::vector<trace::SpanEvent> events_;
  std::uint64_t count_ = 0;
  std::uint64_t dropped_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace

FleetOutcome run_campaign(const FleetSpec& spec, const std::vector<int>& cpus, SpanLog& spans) {
  // CPU times below are the process's minus the drain thread's: the
  // benchmark's own cost is not tracing overhead.
  std::optional<ExchangeCounter> exchanges;
  if (spans.enabled()) exchanges.emplace();
  const auto cpu_now = [&] { return process_cpu_s() - (exchanges ? exchanges->cpu_s() : 0.0); };
  const auto t0 = Clock::now();
  const double cpu0 = cpu_now();
  TimestampedLines lines(t0, cpu_now);
  std::ostream log(&lines);
  FleetOutcome outcome;

  std::istringstream parse_stream(spec.campaign);
  const sched::Campaign campaign = sched::Campaign::parse(parse_stream, "fleet campaign");
  for (const sched::CampaignPhase& phase : campaign.phases()) outcome.virtual_s += phase.duration_s;
  const std::vector<firestarter::LoopbackSpec> nodes =
      firestarter::parse_loopback_specs(spec.nodes);
  outcome.nodes = nodes.size();

  firestarter::Config config;  // the agents' base config: seeds their meter noise
  config.seed = spec.seed;

  cluster::Coordinator::Options options;
  options.loopback_only = true;
  options.nodes = nodes.size();
  options.campaign_text = spec.campaign;
  options.phase_count = campaign.size();
  options.budget = control::Setpoint::parse(spec.budget);
  options.start_delay_s = kStartDelayS;
  options.seed = spec.seed;
  options.metrics_interval_s = 1.0;  // the CLI default: metrics plane on
  firestarter::raise_fd_limit(4 * nodes.size() + 64);

  auto coordinator = std::make_unique<cluster::Coordinator>(options);
  std::unique_ptr<firestarter::SimFleet> fleet;
  std::string fleet_error;
  // The coordinator (this thread) and the fleet's event loop each keep to
  // one CPU of `cpus`, where the reference slices read the host's speed.
  CpuPin pin;
  pin.to(cpus.front());
  std::thread fleet_thread([&, port = coordinator->port()] {
    try {
      CpuPin fleet_pin;
      fleet_pin.to(cpus.back());
      fleet = std::make_unique<firestarter::SimFleet>(config, nodes, port);
      fleet->run();
    } catch (const std::exception& e) {
      fleet_error = e.what();
    }
  });

  const double run_start = seconds_since(t0);
  cluster::Coordinator::Result result;
  std::string failure;
  try {
    auto span = spans.span("cluster.run");
    result = coordinator->run(log);
  } catch (const std::exception& e) {
    failure = e.what();
    coordinator.reset();  // closes every connection so the agents error out
  }
  fleet_thread.join();
  const double end = seconds_since(t0);
  if (exchanges) {
    outcome.budget_exchanges = exchanges->finish();
    outcome.exchanges_dropped = exchanges->dropped();
  }

  double last_sync = -1.0;
  double epoch = -1.0;
  double epoch_cpu = 0.0;
  double last_verdict = -1.0;
  double last_verdict_cpu = 0.0;
  std::size_t verdicts = 0;
  for (const TimestampedLines::Line& line : lines.lines()) {
    if (line.text.find("clock offset") != std::string::npos) last_sync = line.t_s;
    if (line.text.rfind("epoch:", 0) == 0) {
      epoch = line.t_s;
      epoch_cpu = line.cpu_s;
    }
    if (line.text.rfind("node ", 0) == 0 && line.text.find("converged") != std::string::npos) {
      last_verdict = line.t_s;
      last_verdict_cpu = line.cpu_s;
      ++verdicts;
    }
  }
  outcome.timed = last_sync >= 0.0 && epoch >= 0.0 && verdicts == nodes.size();
  const double t_zero = epoch + kStartDelayS;  // the shared epoch instant
  outcome.setup_s = epoch;
  outcome.setup_cpu_s = epoch_cpu - cpu0;
  outcome.handshake_s = last_sync - run_start;
  outcome.sync_s = epoch - last_sync;
  outcome.campaign_s = last_verdict - t_zero;
  outcome.campaign_cpu_s = last_verdict_cpu - epoch_cpu;
  outcome.teardown_s = end - last_verdict;
  for (const cluster::Coordinator::PhaseBudgetVerdict& phase : result.budget_phases)
    outcome.budget_err_pct =
        std::max(outcome.budget_err_pct, std::abs(phase.trailing_total_w - options.budget->value) /
                                             options.budget->value * 100.0);

  if (!failure.empty()) outcome.errors.push_back("coordinator: " + failure);
  if (!fleet_error.empty()) outcome.errors.push_back("fleet: " + fleet_error);
  if (failure.empty() && !result.converged())
    outcome.errors.push_back("campaign did not converge (budget or lockstep)");
  if (fleet && !fleet->all_ok()) outcome.errors.push_back("a loopback agent failed");
  if (!outcome.timed) outcome.errors.push_back("coordinator progress lines incomplete");
  return outcome;
}

void add_fleet_layers(const FleetOutcome& outcome, Report& report) {
  report.add("cluster.handshake_s", "s", outcome.handshake_s);
  report.add("cluster.sync_s", "s", outcome.sync_s);
  report.add("cluster.phases_s", "s", outcome.campaign_s);
  report.add("cluster.teardown_s", "s", outcome.teardown_s);
  report.add("control.budget_exchanges", "count", static_cast<double>(outcome.budget_exchanges));
  report.add("control.budget_err_pct", "%", outcome.budget_err_pct);
}

void check_fleet(const FleetOutcome& outcome, Report& report) {
  report.check(outcome.errors.empty(),
               outcome.errors.empty() ? std::string() : outcome.errors.front());
  if (outcome.exchanges_dropped > 0)
    report.set_fact("trace_spans_dropped", std::to_string(outcome.exchanges_dropped));
}

void run_fleet_256(const Args& args, Report& report, SpanLog& spans) {
  FleetSpec spec;
  report.set_fact("fleet", spec.nodes);
  report.set_fact("budget", spec.budget);
  report.set_fact("machine", "sim zen2 + haswell (modelled watts)");

  const std::vector<int> cpus = last_cpus(2);
  const auto t0 = Clock::now();
  std::vector<std::vector<double>> before = reference_speeds(cpus);
  for (int rep = 0; rep < 2 || seconds_since(t0) < args.seconds; ++rep) {
    const bool traced = args.trace && rep % 2 == 1;
    spec.seed = args.seed * 1000 + static_cast<std::uint64_t>(rep);
    spans.set_enabled(traced);
    const FleetOutcome outcome = run_campaign(spec, cpus, spans);
    spans.set_enabled(false);
    // The campaign's host speed: the mean over its two CPUs of the median
    // of the reference slices read right before and right after it.
    const std::vector<std::vector<double>> after = reference_speeds(cpus);
    double speed = 0.0;
    for (std::size_t c = 0; c < cpus.size(); ++c) {
      std::vector<double> around = before[c];
      around.insert(around.end(), after[c].begin(), after[c].end());
      speed += median(around) / static_cast<double>(cpus.size());
    }
    before = after;
    check_fleet(outcome, report);
    if (!outcome.timed) continue;

    // Set-up and rate count CPU time: the loopback exchanges are latency
    // bound (about 1.15 busy threads of 2), and on a shared 4-vCPU Xeon KVM
    // guest their wall time swung by 25-50 % between runs while CPU time
    // held within 8 %.
    const double rate =
        static_cast<double>(outcome.nodes) * outcome.virtual_s / outcome.campaign_cpu_s;
    report.add("setup_s", "s", outcome.setup_cpu_s);
    if (traced) {
      report.add("traced.work_rate", "op/ref_s", rate / speed);
      add_fleet_layers(outcome, report);
    } else {
      report.add("fleet_campaign_s", "s", outcome.campaign_s);
      report.add("fleet_setup_wall_s", "s", outcome.setup_s);
      report.add("fleet_budget_err_pct", "%", outcome.budget_err_pct);
      report.add("fleet_node_s_per_cpu_s", "1/s", rate);
      report.add("host_speed", "ratio", speed);
      report.add("work_rate", "op/ref_s", rate / speed);
    }
  }
}

}  // namespace fs2::perfbench
