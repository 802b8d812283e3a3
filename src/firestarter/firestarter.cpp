#include "firestarter/firestarter.hpp"

#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

#include "arch/processor.hpp"
#include "arch/topology.hpp"
#include "cluster/agent.hpp"
#include "cluster/coordinator.hpp"
#include "control/controlled_profile.hpp"
#include "control/feedback_loop.hpp"
#include "control/setpoint.hpp"
#include "firestarter/backends.hpp"
#include "firestarter/sim_fleet.hpp"
#include "firestarter/sim_phases.hpp"
#include "fuzz/fuzzer.hpp"
#include "gpu/dgemm_stress.hpp"
#include "kernel/register_dump.hpp"
#include "jit/disassembler.hpp"
#include "kernel/selftest.hpp"
#include "kernel/thread_manager.hpp"
#include "kernel/watchdog.hpp"
#include "metrics/coretemp.hpp"
#include "metrics/external.hpp"
#include "metrics/ipc_estimate.hpp"
#include "metrics/measurement.hpp"
#include "metrics/perf_ipc.hpp"
#include "metrics/rapl.hpp"
#include "payload/compiler.hpp"
#include "payload/mix.hpp"
#include "sched/campaign.hpp"
#include "sched/load_profile.hpp"
#include "sched/trace_recorder.hpp"
#include "sim/plant.hpp"
#include "sim/sim_system.hpp"
#include "telemetry/bus.hpp"
#include "telemetry/sinks.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/registry.hpp"
#include "trace/trace_event.hpp"
#include "trace/tracer.hpp"
#include "tuning/nsga2.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace fs2::firestarter {

namespace {

constexpr const char* kVersion = "fs2 2.0.0 (FIRESTARTER 2 reproduction)";

/// The run's load schedule: --load-profile spec, or the classic --load duty
/// cycle as a constant profile.
sched::ProfilePtr resolve_profile(const Config& cfg) {
  if (cfg.load_profile) return sched::parse_profile(*cfg.load_profile, cfg.load, cfg.period_s);
  return std::make_shared<sched::ConstantProfile>(cfg.load);
}

/// Worker CPU list for host runs: the topology's choice, trimmed to
/// --threads (or a campaign phase's threads= override) when set.
std::vector<int> resolve_worker_cpus(const Config& cfg,
                                     std::optional<int> threads_override = std::nullopt) {
  std::vector<int> cpus = arch::Topology::from_sysfs().worker_cpus(cfg.one_thread_per_core);
  const std::optional<int> threads = threads_override ? threads_override : cfg.threads;
  if (threads && *threads > 0 && static_cast<std::size_t>(*threads) < cpus.size())
    cpus.resize(static_cast<std::size_t>(*threads));
  return cpus;
}

/// The IPC estimate converts loop counts to instructions/cycle at this
/// assumed clock when the real frequency is unknown (Sec. III-C).
constexpr double kIpcEstimateAssumedMhz = 2000.0;

/// Metric set for a host stress run: RAPL power and perf IPC when available,
/// the loop-count IPC estimate always, plus the --metric-path /
/// --metric-command externals — shared by plain runs and campaign phases so
/// both report through the same sources. Readings go straight onto the
/// telemetry bus; nothing is retained here.
struct HostMetricSet {
  metrics::RaplPowerMetric rapl;
  metrics::PerfIpcMetric perf;
  std::unique_ptr<metrics::IpcEstimateMetric> estimate;
  std::unique_ptr<metrics::PluginMetric> plugin;
  std::unique_ptr<metrics::CommandMetric> command;
  std::vector<metrics::Metric*> active;          ///< metrics that responded as available
  std::vector<telemetry::ChannelId> channels;    ///< one per active metric, same order

  void register_channels(telemetry::TelemetryBus& bus) {
    channels.clear();
    for (metrics::Metric* metric : active)
      channels.push_back(bus.channel(metric->name(), metric->unit()));
  }
  void begin_all() {
    for (metrics::Metric* metric : active) metric->begin();
  }
  void sample_all(telemetry::TelemetryBus& bus, double elapsed_s) {
    for (std::size_t m = 0; m < active.size(); ++m)
      bus.publish(channels[m], elapsed_s, active[m]->sample());
  }
};

/// `skip_plugin` / `skip_command` suppress the --metric-path or
/// --metric-command instance when the control loop already owns exactly that
/// source — instantiating it twice would double-initialize plugin state or
/// double-spawn meter commands (the controller's readings still land in the
/// CSV as ctl-measurement). The source the loop did NOT take keeps its
/// measurement channel.
std::unique_ptr<HostMetricSet> build_host_metrics(const Config& cfg,
                                                  const kernel::ThreadManager& manager,
                                                  double instructions_per_iteration,
                                                  bool skip_plugin = false,
                                                  bool skip_command = false) {
  auto set = std::make_unique<HostMetricSet>();
  set->estimate = std::make_unique<metrics::IpcEstimateMetric>(
      [&manager] { return manager.total_iterations(); }, instructions_per_iteration,
      kIpcEstimateAssumedMhz, static_cast<int>(manager.num_workers()));
  if (cfg.metric_path && !skip_plugin)
    set->plugin = std::make_unique<metrics::PluginMetric>(*cfg.metric_path);
  if (cfg.metric_command && !skip_command)
    set->command = std::make_unique<metrics::CommandMetric>(*cfg.metric_command,
                                                            "external-command", "value");
  if (set->rapl.available()) set->active.push_back(&set->rapl);
  if (set->perf.available()) set->active.push_back(&set->perf);
  set->active.push_back(set->estimate.get());
  if (set->plugin && set->plugin->available()) set->active.push_back(set->plugin.get());
  if (set->command && set->command->available()) set->active.push_back(set->command.get());
  return set;
}

// ---- output files -----------------------------------------------------------

/// Open an output file (--record-trace, --control-log) up front — before
/// any stress runs — so a bad path fails in seconds, not after an
/// hour-long burn-in has produced the data it was meant to keep.
std::ofstream open_output_file(const std::string& path, const char* flag) {
  std::ofstream out(path);
  if (!out)
    throw Error(std::string(flag) + ": cannot open '" + path + "' for writing");
  return out;
}

// ---- tracing ----------------------------------------------------------------

/// Drain the process-wide tracer and registry into a single-node timeline
/// and write it as trace_event JSON — the --trace-out path for every
/// non-coordinator mode (coordinator runs export the merged fleet timeline
/// instead). Node "local" at offset 0: nothing to rebase in one process.
void export_local_trace(const std::string& path, std::ostream& out) {
  trace::TraceCollector collector;
  collector.add_node("local", 0.0);
  std::vector<trace::SpanEvent> events;
  trace::Tracer::drain(events);
  std::vector<trace::Span> spans;
  spans.reserve(events.size());
  for (const trace::SpanEvent& event : events)
    spans.push_back(trace::Span{event.name, event.begin_s, event.end_s});
  collector.add_spans("local", std::move(spans));
  collector.add_counters("local", trace::Registry::instance().snapshot());
  if (trace::Tracer::dropped() > 0)
    log::warn() << "trace ring overflowed: " << trace::Tracer::dropped()
                << " spans dropped (the timeline has gaps)";
  std::ofstream file = open_output_file(path, "--trace-out");
  collector.write_json(file);
  out << "trace written to " << path << " (" << collector.span_count()
      << " spans; load in Perfetto or chrome://tracing)\n";
}

/// Open --control-log with its header when the run actually has a
/// controller to log; otherwise warn and return a closed stream. One place
/// owns the schema so the run modes cannot drift apart.
std::ofstream open_control_log(const std::optional<std::string>& path, bool has_target,
                               const char* ignored_reason) {
  std::ofstream out;
  if (!path) return out;
  if (!has_target) {
    log::warn() << "--control-log is ignored" << ignored_reason;
    return out;
  }
  out = open_output_file(*path, "--control-log");
  out << "time_s,setpoint,measurement,error,level,phase\n";
  return out;
}

/// The sink set every run mode wires onto its bus: summary aggregation
/// (--measurement / campaign CSV), achieved-load trace recording
/// (--record-trace), and the per-tick controller log (--control-log).
/// Construction opens the output files immediately — fail fast — and
/// attaches only the sinks the flags asked for; everything the sinks keep
/// is bounded, so this is what makes run length and telemetry memory
/// independent of each other.
struct RunSinks {
  telemetry::SummarySink summary;
  sched::TraceRecorder trace;
  std::ofstream trace_out;
  std::unique_ptr<sched::TraceSink> trace_sink;
  std::ofstream control_log;
  std::unique_ptr<control::ControlLogSink> log_sink;

  RunSinks(telemetry::TelemetryBus& bus, const Config& cfg, bool want_summary,
           bool has_target, const char* control_log_ignored_reason) {
    if (want_summary) bus.attach(&summary);
    if (cfg.record_trace) {
      trace_out = open_output_file(*cfg.record_trace, "--record-trace");
      sched::TraceRecorder::write_header(trace_out);
      trace_sink = std::make_unique<sched::TraceSink>(kLoadChannel, &trace, &trace_out);
      bus.attach(trace_sink.get());
    }
    control_log = open_control_log(cfg.control_log, has_target, control_log_ignored_reason);
    if (control_log.is_open()) {
      log_sink = std::make_unique<control::ControlLogSink>(control_log);
      bus.attach(log_sink.get());
    }
  }

  /// Post-run notice for --record-trace (rows themselves stream as they
  /// happen so an interrupted run keeps its trace).
  void report_trace(const Config& cfg) {
    if (cfg.record_trace)
      log::info() << "achieved-load trace written to " << *cfg.record_trace;
  }
};

// ---- closed-loop control helpers --------------------------------------------

/// Actuator + sensor + regulator for a closed-loop phase on the real host.
struct HostControl {
  std::shared_ptr<control::ControlledProfile> profile;
  std::unique_ptr<metrics::Metric> sensor;
  std::unique_ptr<control::FeedbackLoop> loop;
  /// Which external source `sensor` is, if any — the measurement set must
  /// not instantiate that same source a second time (double plugin init,
  /// doubled meter-command spawns); the other one keeps its channel.
  bool owns_plugin = false;
  bool owns_command = false;
};

/// Wire a host feedback loop: pick the sensor for the regulated variable
/// (RAPL, else an external plugin/command for power; coretemp for
/// temperature) and start from mid-scale — on an unknown SKU there is no
/// feed-forward model, the integrator finds the level.
HostControl make_host_control(const Config& cfg, const control::Setpoint& sp) {
  HostControl hc;
  if (sp.variable == control::ControlVariable::kPower) {
    // An explicitly requested external meter outranks the implicit RAPL
    // default: a user passing --metric-path/--metric-command wants the loop
    // to regulate *that* reading (e.g. wall power, which differs from RAPL
    // package watts by PSU and fan losses). RAPL is the fallback.
    if (cfg.metric_path) {
      if (auto plugin = std::make_unique<metrics::PluginMetric>(*cfg.metric_path);
          plugin->available()) {
        hc.sensor = std::move(plugin);
        hc.owns_plugin = true;
      } else {
        log::warn() << "--metric-path sensor is unavailable; --target power falls "
                       "back to the next source (which regulates a different reading)";
      }
    }
    if (!hc.sensor && cfg.metric_command) {
      if (auto command = std::make_unique<metrics::CommandMetric>(
              *cfg.metric_command, "external-power", "W");
          command->available()) {
        hc.sensor = std::move(command);
        hc.owns_command = true;
      } else {
        log::warn() << "--metric-command sensor is unavailable; --target power falls "
                       "back to the next source (which regulates a different reading)";
      }
    }
    if (!hc.sensor) {
      if (auto rapl = std::make_unique<metrics::RaplPowerMetric>(); rapl->available())
        hc.sensor = std::move(rapl);
    }
    if (!hc.sensor)
      throw UnsupportedError(
          "--target power needs a power sensor: no RAPL package domain in sysfs and no "
          "working --metric-path/--metric-command fallback");
  } else {
    auto coretemp = std::make_unique<metrics::CoretempMetric>();
    if (!coretemp->available())
      throw UnsupportedError(
          "--target temp needs a temperature sensor: no coretemp/k10temp hwmon chip");
    hc.sensor = std::move(coretemp);
  }
  hc.profile = std::make_shared<control::ControlledProfile>(0.5);
  hc.loop = std::make_unique<control::FeedbackLoop>(
      sp, hc.profile, sp.scale.value_or(0.0), /*initial_level=*/0.5);
  return hc;
}

// ---- host phases ------------------------------------------------------------

/// What a host phase leaves behind beyond the bus traffic: the feedback
/// loop (convergence verdicts) and the actual wall-clock length.
struct HostPhaseOutput {
  std::unique_ptr<control::FeedbackLoop> loop;
  /// Wall-clock phase length — slightly over the nominal duration (the
  /// sampling loop quantizes at 50 ms); campaign time advances by this so
  /// cross-phase timestamps stay monotonic.
  double elapsed_s = 0.0;
};

/// Execute one campaign phase on the real machine: compile the phase's
/// workload, stress for `duration_s` — under its profile, or under the
/// feedback loop when `setpoint` is set — and publish every metric sample,
/// controller tick, and achieved load level on the bus (the caller's
/// begin_phase/end_phase bracket attributes them to the phase).
HostPhaseOutput run_host_phase(const Config& cfg, const Target& target, const PhasePlan& plan,
                               const control::Setpoint* setpoint,
                               std::optional<int> threads_override, double duration_s,
                               telemetry::TelemetryBus& bus,
                               gpu::DgemmStressor* gpu_stress,
                               cluster::AgentSession* session = nullptr) {
  const payload::FunctionDef& fn = *plan.fn;
  if (!target.cpu.features.covers(fn.mix.required))
    throw UnsupportedError("host CPU lacks features for " + fn.name + " (needs " +
                           fn.mix.required.to_string() + ")");
  auto payload = payload::compile_payload(fn.mix, plan.groups, target.caches, plan.options);
  sched::ProfilePtr profile = plan.profile;

  HostPhaseOutput output;
  HostControl hc;
  if (setpoint != nullptr) {
    setpoint->validate_duration(duration_s, "closed-loop phase");
    hc = make_host_control(cfg, *setpoint);
    profile = hc.profile;
    output.loop = std::move(hc.loop);
  }

  kernel::RunOptions options;
  options.cpus = resolve_worker_cpus(cfg, threads_override);
  options.policy = policy_of(cfg);
  options.seed = cfg.seed;
  options.load = cfg.load;
  options.period_s = cfg.period_s;
  options.profile = profile;
  options.phase_offset_s = cfg.phase_offset_s;
  // Cluster runs duty-cycle against the fleet-wide epoch so modulation
  // windows align across machines, not just across this node's workers.
  if (session != nullptr) options.epoch = session->epoch_time();
  kernel::ThreadManager manager(payload, options);

  auto metrics_set = build_host_metrics(cfg, manager, payload.stats().instructions_per_iteration,
                                        hc.owns_plugin, hc.owns_command);
  // Row order per phase: the metric channels, the ctl-* channels, then the
  // achieved load level — matching the measurement CSV layout.
  metrics_set->register_channels(bus);
  if (output.loop) output.loop->attach_bus(&bus);
  const telemetry::ChannelId load_ch = bus.channel(kLoadChannel, "fraction");

  // The GPU stand-in backdrop follows this phase's schedule too (for
  // controlled phases that is the live controller profile).
  if (gpu_stress != nullptr) gpu_stress->set_profile(profile);

  kernel::Watchdog watchdog;
  std::atomic<bool> done{false};
  watchdog.arm(std::chrono::duration<double>(duration_s), [&done] { done.store(true); });
  manager.start();
  metrics_set->begin_all();
  if (hc.sensor) hc.sensor->begin();
  const auto t0 = std::chrono::steady_clock::now();
  while (!done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    metrics_set->sample_all(bus, elapsed);
    if (output.loop && output.loop->due(elapsed)) output.loop->poll(elapsed, *hc.sensor);
    if (session != nullptr) session->tick(elapsed, output.loop.get());
    bus.publish(load_ch, elapsed, manager.load_at(elapsed));
    output.elapsed_s = elapsed;
  }
  manager.stop();
  return output;
}

}  // namespace

Firestarter::Firestarter(Config config, std::ostream& out) : cfg_(std::move(config)), out_(out) {}

int Firestarter::run() {
  log::set_level(log::parse_level(cfg_.log_level));
  // Arm the crash flight recorder before anything can fail: from here on
  // SIGTERM/SIGINT (and any explicit dump) rewrite the black box to disk.
  if (cfg_.flight_out) trace::FlightRecorder::instance().configure(*cfg_.flight_out);
  if (cfg_.show_help) {
    out_ << usage();
    return 0;
  }
  if (cfg_.show_version) {
    out_ << kVersion << "\n";
    return 0;
  }
  if (cfg_.list_functions) return list_functions();
  if (cfg_.list_metrics) return list_metrics();
  if (cfg_.status_endpoint) return run_status();
  // Before the fuzz/local checks: --loopback implies --coordinator, and a
  // fuzz run owns the fleet (it runs one cluster campaign per batch). The
  // coordinator exports the merged, clock-rebased fleet timeline itself;
  // every other mode gets the single-process --trace-out below.
  if (cfg_.coordinator && !cfg_.fuzz) return run_coordinator();
  if (cfg_.trace_out) trace::Tracer::set_enabled(true);
  const int rc = [&] {
    if (cfg_.fuzz) return run_fuzzer();
    if (cfg_.agent_endpoint) return run_agent();
    if (cfg_.target_spec &&
        control::Setpoint::parse(*cfg_.target_spec).variable ==
            control::ControlVariable::kClusterPower)
      throw ConfigError(
          "--target cluster-power only applies to --coordinator runs (single "
          "nodes hold power=/temp= setpoints)");
    if (cfg_.optimize) return run_optimization();
    if (cfg_.dump_asm) return run_dump_asm();
    if (cfg_.selftest) return run_selftest_mode();
    if (cfg_.campaign_file) return run_campaign();
    if (cfg_.target != TargetSystem::kHost) return run_stress_simulated();
    return run_stress_host();
  }();
  if (cfg_.trace_out) export_local_trace(*cfg_.trace_out, out_);
  return rc;
}

int Firestarter::list_functions() {
  Table table({"id", "name", "isa", "tuned for", "default instruction groups"});
  for (const payload::FunctionDef& fn : payload::available_functions()) {
    std::string tuned;
    for (arch::Microarch arch : fn.tuned_for) {
      if (!tuned.empty()) tuned += ", ";
      tuned += arch::to_string(arch);
    }
    table.add_row({std::to_string(fn.id), fn.name, payload::to_string(fn.mix.isa),
                   tuned.empty() ? "(generic)" : tuned, fn.default_groups});
  }
  table.print(out_);
  return 0;
}

int Firestarter::list_metrics() {
  Table table({"metric", "unit", "available", "notes"});
  metrics::RaplPowerMetric rapl;
  table.add_row({rapl.name(), rapl.unit(), rapl.available() ? "yes" : "no",
                 "Intel RAPL package counters via powercap sysfs"});
  metrics::PerfIpcMetric perf;
  table.add_row({perf.name(), perf.unit(), perf.available() ? "yes" : "no",
                 "perf_event_open hardware counters"});
  metrics::CoretempMetric coretemp;
  table.add_row({coretemp.name(), coretemp.unit(), coretemp.available() ? "yes" : "no",
                 "hottest coretemp/k10temp hwmon sensor (--target temp feedback)"});
  table.add_row({"ipc-estimate", "instructions/cycle", "yes",
                 "loop count x instructions/loop at assumed frequency"});
  if (cfg_.metric_path) {
    metrics::PluginMetric plugin(*cfg_.metric_path);
    table.add_row({plugin.name(), plugin.unit(), plugin.available() ? "yes" : "no",
                   "external plugin " + *cfg_.metric_path});
  }
  table.add_row({"sim-wall-power", "W", "yes", "with --simulate targets"});
  table.add_row({"sim-perf-ipc", "instructions/cycle", "yes", "with --simulate targets"});
  table.print(out_);
  return 0;
}

int Firestarter::run_stress_simulated() {
  const Target target = resolve_target(cfg_);
  PhasePlan plan;
  plan.fn = &resolve_function(cfg_, target);
  plan.groups = resolve_groups(cfg_, *plan.fn);
  plan.options = compile_options(cfg_);
  const auto stats = payload::analyze_payload(plan.fn->mix, plan.groups, target.caches,
                                              plan.options);
  const double duration = cfg_.timeout_s > 0 ? cfg_.timeout_s : 240.0;

  telemetry::TelemetryBus bus;
  RunSinks sinks(bus, cfg_, cfg_.measurement, cfg_.target_spec.has_value(),
                 " without --target (no controller ticks to log)");

  out_ << "target: " << target.sim_config.name << "\n"
       << "function: " << plan.fn->name << "  M=" << plan.groups.to_string()
       << "  u=" << stats.unroll << " (" << stats.loop_bytes << " B loop)\n";

  if (cfg_.target_spec) {
    // Closed-loop run against the virtual-time plant: a one-phase campaign.
    if (cfg_.load_profile)
      log::warn() << "--load-profile is ignored under --target (the controller owns "
                     "the duty cycle)";
    plan.setpoint = control::Setpoint::parse(*cfg_.target_spec);
    const control::Setpoint& sp = *plan.setpoint;
    out_ << "control: " << sp.describe() << "\n";
    SimPhaseStepper stepper(cfg_, target, bus, /*with_temp=*/true);
    sched::CampaignPhase spec;
    spec.duration_s = duration;
    const TrimDeltas deltas = phase_deltas(cfg_, duration);
    bus.begin_phase("", duration, deltas.start_s, deltas.stop_s);
    stepper.begin(spec, plan, cfg_.seed);
    while (!stepper.done()) stepper.step();
    bus.finish();
    const bool converged = stepper.end("controller");
    const double window = convergence_window_s(*stepper.loop(), duration);
    out_ << strings::format(
        "closed loop: %.1f %s achieved (setpoint %g), level %.0f %%, %s\n",
        stepper.loop()->trailing_mean(window), control::unit_of(sp.variable), sp.value,
        stepper.loop()->profile().level() * 100.0, converged ? "converged" : "NOT converged");

    if (cfg_.measurement) metrics::print_csv(out_, sinks.summary.rows());
    sinks.report_trace(cfg_);
    return cfg_.require_convergence && !converged ? 1 : 0;
  }

  if (cfg_.require_convergence)
    log::warn() << "--require-convergence is ignored without --target "
                   "(nothing is regulated)";
  const sched::ProfilePtr profile = resolve_profile(cfg_);
  // The single-run mode reports IPC and load untrimmed (they are exact in
  // virtual time; only the power trace has a warm-up to trim).
  const SimChannels ch = register_sim_channels(bus, /*with_temp=*/false,
                                               /*trimmed_aux=*/false,
                                               /*summarize_load=*/!profile->constant());
  bus.begin_phase("", duration, cfg_.start_delta_s, cfg_.stop_delta_s);
  const sim::SimulatedSystem system(target.sim_config);
  const SimPhaseResult result =
      run_sim_phase(system, cfg_, run_conditions(cfg_, target.gpu_stress), stats, *profile,
                    duration, cfg_.seed, /*warm_start_s=*/0.0, bus, ch);
  bus.finish();

  if (!profile->constant()) out_ << "load profile: " << profile->describe() << "\n";
  const sim::WorkloadPoint& point = result.point;
  out_ << strings::format(
      "steady state: %.1f W, %.2f IPC/core, %.0f MHz%s, %.1f GFLOP/s, fetch from %s\n",
      point.power_w, point.ipc_per_core, point.achieved_mhz,
      point.throttled ? " (throttled)" : "", point.gflops, sim::to_string(point.fetch_source));

  if (cfg_.measurement) metrics::print_csv(out_, sinks.summary.rows());
  sinks.report_trace(cfg_);
  return 0;
}

int Firestarter::run_campaign(cluster::AgentSession* session) {
  const bool budget_mode = session != nullptr && session->has_budget();
  const sched::Campaign campaign = [&] {
    if (session == nullptr) return sched::Campaign::load(*cfg_.campaign_file);
    std::istringstream in(session->campaign().campaign_text);
    return sched::Campaign::parse(in, "(from coordinator)");
  }();
  const Target target = resolve_target(cfg_);
  if (cfg_.load_profile)
    log::warn() << "--load-profile is ignored under --campaign (phases define their "
                   "own profiles)";
  if (cfg_.target_spec)
    log::warn() << "--target is ignored under --campaign (phases define their own "
                   "target= setpoints)";
  if (budget_mode)
    log::info() << "cluster budget mode: every phase runs closed-loop against the "
                   "coordinator's apportioned power share (phase profile=/target= "
                   "keys are overridden)";

  std::optional<BudgetShare> budget;
  if (budget_mode)
    budget = BudgetShare{session->current_setpoint_w(), session->campaign().ctl_interval_s,
                         session->campaign().budget_band};
  const std::vector<PhasePlan> plan = plan_campaign(cfg_, target, campaign, budget);
  if (!target.simulated) {
    // Host checks before phase 1 starts stressing: feature coverage, keys
    // only the simulator honors, and one sensor probe per regulated
    // variable (plugin init/fini can have side effects worth not repeating).
    std::set<control::ControlVariable> probed;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const sched::CampaignPhase& spec = campaign.phases()[i];
      const payload::FunctionDef& fn = *plan[i].fn;
      if (!target.cpu.features.covers(fn.mix.required))
        throw UnsupportedError("campaign phase '" + spec.name +
                               "': host CPU lacks features for " + fn.name + " (needs " +
                               fn.mix.required.to_string() + ")");
      if (spec.freq_mhz)
        log::warn() << "campaign phase '" << spec.name
                    << "': freq= only applies to --simulate targets (ignored on host)";
      if (spec.measure_temp)
        log::warn() << "campaign phase '" << spec.name
                    << "': measure=temp only applies to --simulate targets (host "
                       "temperature comes from coretemp under target=temp)";
      if (plan[i].setpoint && probed.insert(plan[i].setpoint->variable).second) {
        try {
          make_host_control(cfg_, *plan[i].setpoint);
        } catch (const Error& e) {
          throw UnsupportedError("campaign phase '" + spec.name + "': " + e.what());
        }
      }
    }
  }

  out_ << "campaign: " << campaign.size() << " phases, "
       << strings::format("%.0f s total", campaign.total_duration_s()) << " on "
       << (target.simulated ? target.sim_config.name : "host") << "\n";

  // The GPU stand-in runs for the whole campaign; each phase retargets it
  // onto its own schedule (run_host_phase swaps the profile in).
  std::unique_ptr<gpu::DgemmStressor> gpu_stress;
  if (!target.simulated && cfg_.gpus > 0) {
    gpu::GpuStressOptions gpu_options;
    gpu_options.devices = cfg_.gpus;
    gpu_options.matrix_n = cfg_.gpu_matrix_n;
    gpu_options.seed = cfg_.seed;
    gpu_stress = std::make_unique<gpu::DgemmStressor>(gpu_options);
    gpu_stress->start();
  }

  bool any_target = false;
  for (const PhasePlan& phase : plan) any_target |= phase.setpoint.has_value();
  if (cfg_.require_convergence && !any_target)
    log::warn() << "--require-convergence is ignored: no campaign phase has a "
                   "target= setpoint";

  telemetry::TelemetryBus bus;
  // Agents stream raw samples to the coordinator (which owns the merged
  // summary) instead of aggregating locally.
  RunSinks sinks(bus, cfg_, /*want_summary=*/session == nullptr, any_target,
                 ": no campaign phase has a target= setpoint");
  if (session != nullptr) bus.attach(&session->sink());

  std::optional<SimPhaseStepper> stepper;
  if (target.simulated)
    stepper.emplace(cfg_, target, bus, SimPhaseStepper::wants_temp(campaign, plan));

  bool all_converged = true;
  std::size_t phase_index = 0;
  while (phase_index < campaign.size()) {
    const sched::CampaignPhase& spec = campaign.phases()[phase_index];
    const PhasePlan& phase = plan[phase_index];
    try {
      // Fleet barrier: phase 0 waits for the shared epoch, later phases for
      // the coordinator's phase-go (sent once every node finished the
      // previous phase), so transitions stay in lockstep even when nodes run
      // at different wall speeds. The budget setpoint is re-read AFTER the
      // barrier so the phase starts from the latest apportionment.
      std::optional<control::Setpoint> active_sp = phase.setpoint;
      if (session != nullptr) {
        session->begin_phase();
        if (budget_mode) active_sp->value = session->current_setpoint_w();
      }

      out_ << strings::format("phase %zu '%s': %s for %.0f s (%s)\n", phase_index + 1,
                              spec.name.c_str(), phase.fn->name.c_str(), spec.duration_s,
                              active_sp ? active_sp->describe().c_str()
                                        : phase.profile->describe().c_str());

      const TrimDeltas deltas = phase_deltas(cfg_, spec.duration_s);
      // Fleet trace: bracket the phase in local wall time (sim phases run in
      // virtual time, but their wall extent is what aligns across nodes).
      const double phase_span_begin_s = trace::now_s();
      bus.begin_phase(spec.name, spec.duration_s, deltas.start_s, deltas.stop_s);
      const std::string label = "phase '" + spec.name + "'";

      if (stepper) {
        stepper->begin(spec, phase, cfg_.seed + phase_index,
                       active_sp ? std::optional<double>(active_sp->value) : std::nullopt);
        while (!stepper->done()) {
          const double t = stepper->step();
          // Cluster budget round and live metrics between controller ticks;
          // virtual time pauses for the round trip, so the exchange is
          // deterministic.
          if (session != nullptr && stepper->loop() != nullptr)
            session->tick(t, stepper->loop());
        }
        all_converged &= stepper->end(label);
        bus.end_phase();
      } else {
        const HostPhaseOutput output =
            run_host_phase(cfg_, target, phase, active_sp ? &*active_sp : nullptr,
                           spec.threads, spec.duration_s, bus, gpu_stress.get(), session);
        if (output.loop) all_converged &= report_convergence(*output.loop, spec.duration_s, label);
        // Advance by the *actual* phase length: the 50 ms sampling loop
        // overruns the nominal duration slightly, and a nominal offset would
        // make the next phase's first timestamps non-monotonic (the trace
        // recorder would silently drop them).
        bus.end_phase(output.elapsed_s);
      }
      if (session != nullptr) session->end_phase(spec.name, phase_span_begin_s);
      ++phase_index;
    } catch (const cluster::WireError& e) {
      if (session == nullptr) throw;
      // Lost the coordinator link mid-campaign: mute the sink while the
      // half-run phase is closed locally (its partial telemetry and the
      // implicit end bracket must not hit the wire), rejoin with backoff,
      // then resume at the coordinator-assigned phase.
      log::warn() << "cluster link lost during phase " << phase_index + 1 << ": "
                  << e.what() << " — rejoining";
      session->sink().mute(true);
      if (bus.in_phase()) bus.end_phase();
      session->sink().mute(false);
      const std::uint32_t resume = session->rejoin();
      session->sink().rewind_phase(resume);
      trace::FlightRecorder::instance().note_event(
          strings::format("rejoined; resuming at phase %u", resume));
      phase_index = resume;
    }
  }

  if (gpu_stress) {
    gpu_stress->stop();
    out_ << strings::format("gpu stand-in: %llu DGEMMs (%.1f GFLOP total)\n",
                            static_cast<unsigned long long>(gpu_stress->total_gemms()),
                            gpu_stress->total_flops() / 1e9);
  }
  bus.finish();
  sinks.report_trace(cfg_);
  if (session != nullptr) {
    // The coordinator owns the merged CSV and the fleet verdict; the agent
    // reports its own convergence and waits for the shutdown.
    session->finish(all_converged,
                    strings::format("%zu phases on %s", campaign.size(),
                                    target.simulated ? target.sim_config.name.c_str()
                                                     : "host"));
    return 0;
  }
  metrics::print_csv(out_, sinks.summary.rows());
  if (cfg_.require_convergence && !all_converged) {
    log::error() << "campaign failed --require-convergence";
    return 1;
  }
  return 0;
}

int Firestarter::run_coordinator() {
  if (!cfg_.campaign_file)
    throw ConfigError(
        "--coordinator requires --campaign FILE (the campaign is distributed to "
        "every agent)");
  // Keep the raw text for distribution; parse a copy locally so a malformed
  // campaign fails here, before any agent is accepted.
  std::ifstream in(*cfg_.campaign_file);
  if (!in) throw ConfigError("campaign: cannot open '" + *cfg_.campaign_file + "'");
  std::ostringstream raw;
  raw << in.rdbuf();
  std::istringstream parse_stream(raw.str());
  const sched::Campaign campaign =
      sched::Campaign::parse(parse_stream, "'" + *cfg_.campaign_file + "'");

  std::optional<control::Setpoint> budget;
  if (cfg_.target_spec) {
    control::Setpoint sp = control::Setpoint::parse(*cfg_.target_spec);
    if (sp.variable != control::ControlVariable::kClusterPower)
      throw ConfigError(
          "--coordinator: --target must be cluster-power=WATTS (per-node power=/"
          "temp= setpoints belong in campaign phases)");
    budget = sp;
  }

  std::vector<LoopbackSpec> loopback;
  if (cfg_.loopback_nodes) loopback = parse_loopback_specs(*cfg_.loopback_nodes);
  const std::size_t nodes = !loopback.empty()
                                ? loopback.size()
                                : (cfg_.cluster_nodes ? static_cast<std::size_t>(
                                                            *cfg_.cluster_nodes)
                                                      : 0);
  if (nodes == 0) throw ConfigError("--coordinator requires --nodes N or --loopback SPECS");
  if (!loopback.empty() && cfg_.cluster_nodes &&
      static_cast<std::size_t>(*cfg_.cluster_nodes) != loopback.size())
    log::warn() << "--nodes is ignored under --loopback (fleet size comes from the "
                   "spec list)";

  // The chaos plan parses before anything binds, and its canonical spec is
  // recorded in the flight dump — a failing chaos run replays bit-for-bit
  // from `--chaos "<recorded spec>"`.
  std::optional<cluster::FaultPlan> chaos;
  if (cfg_.chaos_spec) {
    chaos = cluster::FaultPlan::parse(*cfg_.chaos_spec);
    if (loopback.empty())
      log::warn() << "--chaos drives loopback agents; real remote agents only "
                     "see its effects indirectly (lost links, held barriers)";
    out_ << "chaos: " << chaos->describe() << "\n";
    trace::FlightRecorder::instance().note_event("chaos plan: " + chaos->describe());
  }

  cluster::Coordinator::Options options;
  // Loopback fleets default to an ephemeral port: the agents learn it
  // in-process, and CI runs cannot collide on a fixed one. An explicit
  // --listen overrides that so /metrics scrapers know where to look.
  options.port = loopback.empty() || cfg_.listen_port_explicit ? cfg_.listen_port : 0;
  options.loopback_only = !loopback.empty();
  options.nodes = nodes;
  options.campaign_text = raw.str();
  options.phase_count = campaign.size();
  options.budget = budget;
  options.start_delay_s = cfg_.cluster_start_delay_s;
  options.sync_tolerance_s = cfg_.sync_tolerance_s;
  options.seed = cfg_.seed;
  options.trace = cfg_.trace_out.has_value();
  options.metrics_interval_s = cfg_.metrics_interval_s;
  options.rejoin_grace_s = cfg_.rejoin_grace_s;
  if (budget) {
    // Fail before accepting anyone: every phase must fit the controller
    // tick and the budget cadence the agents will run.
    control::Setpoint probe = *budget;
    probe.interval_s = std::max(options.ctl_interval_s, budget->interval_s);
    for (const sched::CampaignPhase& phase : campaign.phases())
      probe.validate_duration(phase.duration_s, "campaign phase '" + phase.name + "'");
  }
  // Big fleets need an fd per agent on each side of every loopback socket;
  // raise the soft limit toward the hard cap before binding anything.
  if (!loopback.empty()) raise_fd_limit(4 * loopback.size() + 64);

  auto coordinator = std::make_unique<cluster::Coordinator>(options);

  out_ << "coordinator: port " << coordinator->port() << ", " << nodes << " nodes, "
       << campaign.size() << " phases";
  if (budget) out_ << ", " << budget->describe();
  out_ << "\n";

  // In-process loopback agents: one event-loop thread drives the whole
  // fleet of cooperative sim agents over real localhost TCP — the entire
  // protocol exercised inside one deterministic process, at fleet sizes a
  // thread per agent could never reach.
  const LoopbackRun run = run_with_loopback_fleet(std::move(coordinator), out_, cfg_, loopback,
                                                  chaos ? &*chaos : nullptr);
  if (!run.fleet_error.empty())
    out_ << "loopback fleet failed to start: " << run.fleet_error << "\n";
  if (!run.failure.empty()) throw Error("cluster run failed: " + run.failure);
  const cluster::Coordinator::Result& result = run.result;

  cluster::ClusterBus::write_csv(out_, result.rows);
  if (cfg_.trace_out) {
    std::ofstream trace_file = open_output_file(*cfg_.trace_out, "--trace-out");
    result.trace.write_json(trace_file);
    out_ << "fleet trace written to " << *cfg_.trace_out << " ("
         << result.trace.span_count()
         << " spans, clock-rebased onto the coordinator; load in Perfetto or "
            "chrome://tracing)\n";
  }
  // A fleet-wide failure is usually one cause repeated 512 times; show the
  // first few, count the rest.
  for (std::size_t i = 0; i < std::min<std::size_t>(run.failed_agents.size(), 5); ++i)
    log::error() << "loopback agent " << run.failed_agents[i].name << ": "
                 << run.failed_agents[i].error;
  if (run.failed_agents.size() > 5)
    log::error() << "... and " << (run.failed_agents.size() - 5)
                 << " more loopback agent failures";
  if (!run.fleet_error.empty() || !run.failed_agents.empty()) return 1;
  if (cfg_.require_convergence && !result.converged()) {
    log::error() << "cluster run failed --require-convergence ("
                 << (result.nodes_converged ? "" : "node setpoints; ")
                 << (result.budget_converged ? "" : "global budget; ")
                 << (result.sync_ok ? "" : "phase lockstep") << ")";
    return 1;
  }
  return 0;
}

int Firestarter::run_agent() {
  if (cfg_.campaign_file)
    log::warn() << "--campaign is ignored under --agent (the coordinator "
                   "distributes the campaign)";
  if (cfg_.target_spec)
    log::warn() << "--target is ignored under --agent (setpoints come from the "
                   "campaign or the coordinator's budget)";
  cluster::AgentSession::Options options;
  options.endpoint = *cfg_.agent_endpoint;
  options.sku = agent_sku(cfg_);
  options.node_name = cfg_.node_name ? *cfg_.node_name
                                     : strings::format("%s-%d", options.sku.c_str(),
                                                       static_cast<int>(::getpid()));
  cluster::AgentSession session(options);
  trace::FlightRecorder::instance().note_event("agent " + options.node_name +
                                               " joined " + options.endpoint);
  try {
    return run_campaign(&session);
  } catch (const std::exception& e) {
    // Abnormal exit: ship the black box to the coordinator (best effort)
    // and write the local dump before the error unwinds the process.
    session.ship_flight_record(e.what());
    trace::FlightRecorder::instance().dump(std::string("agent failed: ") + e.what());
    throw;
  }
}

int Firestarter::run_status() {
  cluster::Connection conn = cluster::Connection::connect(*cfg_.status_endpoint,
                                                          /*retry_for_s=*/5.0);
  conn.send(cluster::StatusRequestMsg{}.encode());
  const std::optional<cluster::Frame> frame = conn.recv(/*timeout_s=*/5.0);
  if (!frame)
    throw Error("--status: no reply from " + *cfg_.status_endpoint +
                " within 5 s (is a coordinator listening there?)");
  if (frame->type != cluster::MessageType::kStatusReply)
    throw Error(std::string("--status: unexpected reply frame '") +
                cluster::to_string(frame->type) + "'");
  cluster::WireReader reader(frame->payload);
  const cluster::StatusReplyMsg status = cluster::StatusReplyMsg::decode(reader);

  out_ << "coordinator " << *cfg_.status_endpoint << ": "
       << (status.accepting ? "accepting agents" : "campaign running") << ", "
       << status.nodes.size() << "/" << status.nodes_expected << " nodes, "
       << status.phase_count << " phases, " << status.queued_samples
       << " samples queued";
  if (status.budget_w > 0.0) out_ << strings::format(", budget %.0f W", status.budget_w);
  out_ << "\n";

  if (!status.nodes.empty()) {
    double total_achieved = 0.0, total_setpoint = 0.0;
    Table table({"node", "sku", "state", "phase", "rejoins", "offset ms", "rtt ms",
                 "setpoint W", "achieved W", "level %", "metrics age"});
    for (const cluster::StatusNodeRec& node : status.nodes) {
      total_achieved += node.achieved_w;
      total_setpoint += node.setpoint_w;
      table.add_row(
          {node.name, node.sku,
           node.lost != 0 ? "lost" : (node.connected ? "connected" : "gone"),
           strings::format("%u/%u", node.phases_ended, status.phase_count),
           node.rejoins > 0 ? std::to_string(node.rejoins) : "-",
           strings::format("%+.2f", node.clock_offset_s * 1e3),
           strings::format("%.2f", node.clock_rtt_s * 1e3),
           node.setpoint_w > 0.0 ? strings::format("%.1f", node.setpoint_w) : "-",
           node.achieved_w > 0.0 ? strings::format("%.1f", node.achieved_w) : "-",
           node.level > 0.0 ? strings::format("%.0f", node.level * 100.0) : "-",
           node.last_metrics_age_s >= 0.0
               ? strings::format("%.1f s", node.last_metrics_age_s)
               : "-"});
    }
    table.print(out_);
    if (status.budget_w > 0.0 && total_setpoint > 0.0)
      out_ << strings::format("budget: %.1f W allocated, %.1f W achieved (target %.0f W)\n",
                              total_setpoint, total_achieved, status.budget_w);
  }

  if (!status.spreads.empty()) {
    Table table({"phase", "begin spread ms", "first node", "last node", "nodes"});
    for (const cluster::StatusSpreadRec& spread : status.spreads)
      table.add_row({spread.phase,
                     strings::format("%.2f", (spread.max_begin_s - spread.min_begin_s) * 1e3),
                     spread.min_node, spread.max_node, std::to_string(spread.nodes)});
    table.print(out_);
  }

  if (!status.counters.empty()) {
    Table table({"metric", "value", "kind"});
    for (const trace::MetricSnapshot& metric : status.counters)
      table.add_row({metric.name,
                     metric.is_counter
                         ? std::to_string(static_cast<unsigned long long>(metric.value))
                         : strings::format("%g", metric.value),
                     metric.is_counter ? "counter" : "gauge"});
    table.print(out_);
  }

  if (!status.alerts.empty()) {
    Table table({"alert", "node", "t", "detail"});
    for (const cluster::StatusAlertRec& alert : status.alerts)
      table.add_row({alert.kind, alert.node, strings::format("%.1f s", alert.t_s),
                     alert.detail});
    table.print(out_);
  }

  // The probe's exit code IS the health check: scripts gate on it without
  // parsing the tables.
  if (status.fleet_healthy == 0) {
    out_ << "fleet UNHEALTHY (" << status.alerts.size() << " alerts)\n";
    return 1;
  }
  out_ << "fleet healthy\n";
  return 0;
}

int Firestarter::run_dump_asm() {
  const Target target = resolve_target(cfg_);
  const payload::FunctionDef& fn = resolve_function(cfg_, target);
  const auto groups = resolve_groups(cfg_, fn);
  // Regenerate the raw bytes outside executable memory for listing: the
  // compiler is deterministic, so this is exactly what a run would map.
  payload::CompileOptions options = compile_options(cfg_);
  if (options.unroll == 0) options.unroll = 16;  // keep listings readable by default
  auto payload = payload::compile_payload(fn.mix, groups, target.caches, options);
  out_ << "kernel for " << fn.name << "  M=" << groups.to_string() << "  u="
       << payload.stats().unroll << "  (" << payload.stats().loop_bytes << " B loop, "
       << payload.stats().instructions_per_iteration << " instructions/iteration)\n";
  // Disassemble straight from the mapped buffer (read access is allowed).
  out_ << jit::format_listing(payload.code_bytes());
  return 0;
}

int Firestarter::run_selftest_mode() {
  const Target target = resolve_target(cfg_);
  const payload::FunctionDef& fn = resolve_function(cfg_, target);
  if (!target.cpu.features.covers(fn.mix.required))
    throw UnsupportedError("host CPU lacks features for " + fn.name);
  payload::CompileOptions options = compile_options(cfg_);
  options.dump_registers = true;
  auto payload = payload::compile_payload(fn.mix, resolve_groups(cfg_, fn), target.caches,
                                          options);
  const std::vector<int> cpus = resolve_worker_cpus(cfg_);
  out_ << "SIMD self-test: " << fn.name << " on " << cpus.size() << " workers, "
       << cfg_.selftest_iterations << " iterations each\n";
  const kernel::SelftestResult result =
      kernel::run_selftest(payload, cpus, cfg_.selftest_iterations, cfg_.seed);
  out_ << result.describe() << "\n";
  return result.passed ? 0 : 1;
}

int Firestarter::run_stress_host() {
  const Target target = resolve_target(cfg_);
  const payload::FunctionDef& fn = resolve_function(cfg_, target);
  if (!target.cpu.features.covers(fn.mix.required))
    throw UnsupportedError("host CPU lacks features for " + fn.name + " (needs " +
                           fn.mix.required.to_string() + ")");
  const auto groups = resolve_groups(cfg_, fn);
  log::info() << "host: " << target.cpu.describe();
  log::info() << "function: " << fn.name << " M=" << groups.to_string();

  auto payload = payload::compile_payload(fn.mix, groups, target.caches, compile_options(cfg_));
  log::info() << "compiled loop: u=" << payload.stats().unroll << ", "
              << payload.stats().loop_bytes << " B, "
              << payload.stats().instructions_per_iteration << " instructions/iteration";

  // Closed-loop --target: the controller's profile replaces the open-loop
  // schedule as the actuator.
  HostControl hc;
  std::unique_ptr<control::FeedbackLoop> loop;
  if (cfg_.target_spec) {
    if (cfg_.load_profile)
      log::warn() << "--load-profile is ignored under --target (the controller owns "
                     "the duty cycle)";
    const control::Setpoint sp = control::Setpoint::parse(*cfg_.target_spec);
    if (cfg_.timeout_s > 0) sp.validate_duration(cfg_.timeout_s, "closed-loop run");
    hc = make_host_control(cfg_, sp);
    loop = std::move(hc.loop);
    log::info() << "control: " << loop->setpoint().describe() << " via "
                << hc.sensor->name();
  } else if (cfg_.require_convergence) {
    log::warn() << "--require-convergence is ignored without --target "
                   "(nothing is regulated)";
  }

  kernel::RunOptions run_options;
  run_options.cpus = resolve_worker_cpus(cfg_);
  run_options.policy = policy_of(cfg_);
  run_options.seed = cfg_.seed;
  run_options.load = cfg_.load;
  run_options.period_s = cfg_.period_s;
  run_options.profile = loop ? hc.profile : resolve_profile(cfg_);
  run_options.phase_offset_s = cfg_.phase_offset_s;
  kernel::ThreadManager manager(payload, run_options);
  if (!run_options.profile->constant())
    log::info() << "load profile: " << run_options.profile->describe();

  // Optional GPU stand-in stress, duty-cycling against the same schedule
  // (or the controller's live profile) as the CPU workers.
  std::unique_ptr<gpu::DgemmStressor> gpu_stress;
  if (cfg_.gpus > 0) {
    gpu::GpuStressOptions gpu_options;
    gpu_options.devices = cfg_.gpus;
    gpu_options.matrix_n = cfg_.gpu_matrix_n;
    gpu_options.seed = cfg_.seed;
    gpu_options.profile = run_options.profile;
    gpu_stress = std::make_unique<gpu::DgemmStressor>(gpu_options);
  }

  telemetry::TelemetryBus bus;
  RunSinks sinks(bus, cfg_, cfg_.measurement, loop != nullptr,
                 " without --target (no controller ticks to log)");

  // Metrics for --measurement. Row order: metric channels, the achieved
  // load level (summarized only when a schedule modulates it — a controlled
  // profile is never constant(), so --target runs are covered), then ctl-*.
  auto metrics_set =
      build_host_metrics(cfg_, manager, payload.stats().instructions_per_iteration,
                         hc.owns_plugin, hc.owns_command);
  metrics_set->register_channels(bus);
  const bool summarize_load = cfg_.measurement && !run_options.profile->constant();
  const telemetry::ChannelId load_ch =
      bus.channel(kLoadChannel, "fraction", telemetry::TrimMode::kPhase, summarize_load);
  if (loop) loop->attach_bus(&bus);

  const double duration =
      cfg_.timeout_s > 0 ? cfg_.timeout_s : std::numeric_limits<double>::infinity();
  bus.begin_phase("", duration, cfg_.start_delta_s, cfg_.stop_delta_s);

  kernel::Watchdog watchdog;
  std::atomic<bool> done{false};
  if (cfg_.timeout_s > 0)
    watchdog.arm(std::chrono::duration<double>(cfg_.timeout_s), [&done] { done.store(true); });

  log::info() << "stressing " << run_options.cpus.size() << " CPUs"
              << (cfg_.timeout_s > 0 ? strings::format(" for %.0f s", cfg_.timeout_s)
                                     : std::string(" until interrupted"));
  manager.start();
  if (gpu_stress) gpu_stress->start();
  metrics_set->begin_all();
  if (hc.sensor) hc.sensor->begin();

  const auto t0 = std::chrono::steady_clock::now();
  double last_dump_s = 0.0;
  std::ofstream dump_file;
  if (cfg_.dump_registers) dump_file.open(cfg_.dump_path);
  while (!done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (cfg_.measurement) metrics_set->sample_all(bus, elapsed);
    // Feeds the load summary row and --record-trace's streaming recorder;
    // with neither sink attached the publish is a no-op. Before the
    // controller poll so summary rows order metrics, load, then ctl.
    bus.publish(load_ch, elapsed, manager.load_at(elapsed));
    if (loop && loop->due(elapsed)) loop->poll(elapsed, *hc.sensor);
    if (cfg_.dump_registers && elapsed - last_dump_s >= cfg_.dump_interval_s) {
      kernel::write_dump(dump_file, kernel::capture_registers(manager));
      dump_file.flush();
      last_dump_s = elapsed;
    }
    if (cfg_.timeout_s <= 0 && elapsed >= 1e9) break;  // effectively forever
  }
  manager.stop();
  if (gpu_stress) gpu_stress->stop();
  if (cfg_.dump_registers) {
    kernel::write_dump(dump_file, kernel::capture_registers(manager));
    log::info() << "register dump written to " << cfg_.dump_path;
  }
  bus.finish();

  out_ << strings::format("executed %llu kernel loop iterations on %zu workers\n",
                          static_cast<unsigned long long>(manager.total_iterations()),
                          manager.num_workers());
  if (gpu_stress)
    out_ << strings::format("gpu stand-in: %llu DGEMMs (%.1f GFLOP total)\n",
                            static_cast<unsigned long long>(gpu_stress->total_gemms()),
                            gpu_stress->total_flops() / 1e9);
  bool converged = true;
  if (loop) {
    const double report_duration = cfg_.timeout_s > 0 ? cfg_.timeout_s : 0.0;
    converged = report_convergence(*loop, report_duration, "controller");
  }
  if (cfg_.measurement) metrics::print_csv(out_, sinks.summary.rows());
  sinks.report_trace(cfg_);
  return cfg_.require_convergence && !converged ? 1 : 0;
}

int Firestarter::run_fuzzer() {
  // One seed drives everything random: candidate generation in the fuzzer,
  // meter noise through the evaluator's Config — so the same seed and the
  // same target spec reproduce the identical corpus.
  Config cfg = cfg_;
  cfg.seed = cfg_.fuzz_seed;
  std::unique_ptr<fuzz::Evaluator> evaluator;
  if (cfg.loopback_nodes) {
    evaluator = fuzz::make_fleet_evaluator(cfg, cfg.fuzz_duration_s, out_);
  } else if (cfg.target != TargetSystem::kHost) {
    evaluator = fuzz::make_local_evaluator(cfg, cfg.fuzz_duration_s);
  } else {
    throw ConfigError(
        "--fuzz needs --simulate TARGET (one candidate at a time) or "
        "--loopback SPECS (fleet fan-out) — host sweeps would take hours of "
        "real stress");
  }

  fuzz::FuzzOptions options;
  options.seed = cfg_.fuzz_seed;
  options.population = cfg_.fuzz_population;
  options.generations = cfg_.fuzz_generations;
  options.corpus_cap = cfg_.fuzz_corpus;
  if (cfg_.fuzz_objective != "all")
    options.objectives = {fuzz::parse_objective(cfg_.fuzz_objective)};

  out_ << strings::format(
      "fuzz: %zu generation%s x %zu candidates, %g s phases, objective %s, seed %llu\n",
      cfg_.fuzz_generations, cfg_.fuzz_generations == 1 ? "" : "s",
      cfg_.fuzz_population, cfg_.fuzz_duration_s, cfg_.fuzz_objective.c_str(),
      static_cast<unsigned long long>(cfg_.fuzz_seed));

  const fuzz::FuzzResult result = fuzz::run_fuzz(*evaluator, options, out_);

  // The discovery verdict: for each retained objective, the top pattern
  // against the best default-payload baseline on the same axis.
  Table table({"objective", "rank", "pattern", "score", "node", "vs default"});
  for (fuzz::Objective objective : result.corpus.objectives()) {
    double reference = 0.0;
    for (const fuzz::Evaluation& base : result.baseline)
      reference = std::max(reference, fuzz::objective_score(base.signature, objective));
    const char* unit = objective == fuzz::Objective::kThermal ? "degC/s" : "W";
    for (const fuzz::CorpusEntry* entry : result.corpus.ranked(objective)) {
      const double score = fuzz::objective_score(entry->signature, objective);
      const std::string delta =
          reference > 0.0 ? strings::format("%+.1f%%", (score / reference - 1.0) * 100.0)
                          : "n/a";
      table.add_row({fuzz::to_string(objective),
                     std::to_string(result.corpus.rank_of(entry->spec, objective)),
                     entry->spec.to_string(), strings::format("%.2f %s", score, unit),
                     entry->node, delta});
    }
  }
  out_ << "ranked corpus (" << result.corpus.entries().size() << " patterns, cap "
       << result.corpus.cap() << " per objective):\n";
  table.print(out_);

  if (cfg_.fuzz_report) {
    fuzz::FuzzReport::write_file(*cfg_.fuzz_report, cfg_.fuzz_seed, result.records,
                                 result.corpus);
    out_ << "fuzz report written to " << *cfg_.fuzz_report << " (seed "
         << cfg_.fuzz_seed << " reproduces it)\n";
  }
  if (result.corpus.empty()) {
    log::error() << "fuzz run retained no patterns (every candidate failed to measure)";
    return 1;
  }
  return 0;
}

int Firestarter::run_optimization() {
  const Target target = resolve_target(cfg_);
  const payload::FunctionDef& fn = resolve_function(cfg_, target);

  std::unique_ptr<tuning::EvaluationBackend> backend;
  std::unique_ptr<sim::SimulatedSystem> system;
  if (target.simulated) {
    system = std::make_unique<sim::SimulatedSystem>(target.sim_config);
    auto sim_backend = std::make_unique<SimBackend>(
        *system, fn.mix, target.caches, run_conditions(cfg_, target.gpu_stress),
        cfg_.candidate_duration_s, cfg_.seed);
    out_ << "preheat (" << cfg_.preheat_s << " s virtual) ...\n";
    sim_backend->preheat();
    backend = std::move(sim_backend);
  } else {
    const std::vector<int> cpus = resolve_worker_cpus(cfg_);

    // Objective set: power if RAPL (or a plugin/command) is available, IPC
    // via perf or the estimate — mirroring --optimization-metric defaults.
    std::vector<std::string> names;
    std::vector<HostBackend::MetricFactory> factories;
    if (metrics::RaplPowerMetric().available()) {
      names.push_back("rapl-power-W");
      factories.push_back([](const payload::PayloadStats&, int,
                             HostBackend::IterationCounter) -> metrics::MetricPtr {
        auto metric = std::make_unique<metrics::RaplPowerMetric>();
        return metric;
      });
    } else if (cfg_.metric_command) {
      names.push_back("external-power");
      const std::string command = *cfg_.metric_command;
      factories.push_back([command](const payload::PayloadStats&, int,
                                    HostBackend::IterationCounter) -> metrics::MetricPtr {
        return std::make_unique<metrics::CommandMetric>(command, "external-power", "W");
      });
    }
    names.push_back("ipc");
    factories.push_back([](const payload::PayloadStats& stats, int workers,
                           HostBackend::IterationCounter counter) -> metrics::MetricPtr {
      auto perf = std::make_unique<metrics::PerfIpcMetric>();
      if (perf->available()) return perf;
      return std::make_unique<metrics::IpcEstimateMetric>(
          std::move(counter), stats.instructions_per_iteration, 2000.0, workers);
    });
    if (names.size() < 2)
      log::warn() << "only one objective available on this host; NSGA-II degenerates "
                     "to single-objective search";
    out_ << "preheat (" << cfg_.preheat_s << " s) ...\n";
    backend = std::make_unique<HostBackend>(fn.mix, target.caches, cpus, names, factories,
                                            cfg_.candidate_duration_s, cfg_.seed);
    // Real preheat: run the default workload to warm the package.
    if (cfg_.preheat_s > 0) backend->evaluate(resolve_groups(cfg_, fn));
  }

  tuning::GroupsProblem problem(*backend);
  tuning::Nsga2Config nsga2_config;
  nsga2_config.individuals = cfg_.individuals;
  nsga2_config.generations = cfg_.generations;
  nsga2_config.mutation_probability = cfg_.nsga2_m;
  nsga2_config.seed = cfg_.seed;
  tuning::History history;
  tuning::Nsga2 optimizer(nsga2_config);

  out_ << "optimizing " << fn.name << " on " << (target.simulated ? target.sim_config.name : "host")
       << ": " << cfg_.individuals << " individuals x " << cfg_.generations
       << " generations, m=" << cfg_.nsga2_m << "\n";
  const auto population = optimizer.run(problem, &history);

  std::ofstream log_file(cfg_.optimization_log);
  history.write_csv(log_file, backend->objective_names());
  out_ << history.size() << " candidate evaluations logged to " << cfg_.optimization_log << "\n";

  // Print the first front, best power first (the paper prints "the best
  // individuals" after the last generation).
  Table table({"rank", backend->objective_names()[0],
               backend->objective_names().size() > 1 ? backend->objective_names()[1] : "-",
               "instruction groups"});
  int printed = 0;
  for (const auto& ind : population) {
    if (ind.rank != 0 || printed >= 10) continue;
    table.add_row({std::to_string(ind.rank), strings::format("%.2f", ind.objectives[0]),
                   ind.objectives.size() > 1 ? strings::format("%.3f", ind.objectives[1]) : "-",
                   tuning::GroupsProblem::to_groups(ind.genome).to_string()});
    ++printed;
  }
  table.print(out_);

  const auto& best = tuning::Nsga2::best_by_objective(population, 0);
  out_ << "selected optimum: " << tuning::GroupsProblem::to_groups(best.genome).to_string()
       << strings::format("  (%.2f %s)\n", best.objectives[0],
                          backend->objective_names()[0].c_str());
  return 0;
}

}  // namespace fs2::firestarter
