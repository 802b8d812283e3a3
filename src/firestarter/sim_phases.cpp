#include "firestarter/sim_phases.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace fs2::firestarter {

Target resolve_target(const Config& cfg) {
  Target target;
  switch (cfg.target) {
    case TargetSystem::kHost:
      target.cpu = arch::detect_host();
      target.caches = arch::CacheHierarchy::from_sysfs();
      break;
    case TargetSystem::kSimZen2:
      target.cpu = arch::epyc_7502_model();
      target.caches = arch::CacheHierarchy::zen2();
      target.sim_config = sim::MachineConfig::named("zen2");
      target.simulated = true;
      break;
    case TargetSystem::kSimHaswell:
    case TargetSystem::kSimHaswellGpu:
      target.cpu = arch::xeon_e5_2680v3_model();
      target.caches = arch::CacheHierarchy::haswell_ep();
      target.sim_config = sim::MachineConfig::named(
          cfg.target == TargetSystem::kSimHaswellGpu ? "haswell-gpu" : "haswell");
      target.simulated = true;
      target.gpu_stress = cfg.target == TargetSystem::kSimHaswellGpu;
      break;
  }
  return target;
}

payload::DataInitPolicy policy_of(const Config& cfg) {
  return cfg.v174_bug_mode ? payload::DataInitPolicy::kV174InfinityBug
                           : payload::DataInitPolicy::kSafe;
}

const payload::FunctionDef& resolve_function(const Config& cfg, const Target& target,
                                             const std::optional<std::string>& phase_function) {
  if (phase_function) return payload::find_function(*phase_function);
  if (cfg.function_id) return payload::find_function(*cfg.function_id);
  if (cfg.function_name) return payload::find_function(*cfg.function_name);
  return payload::select_function(target.cpu);
}

payload::InstructionGroups resolve_groups(const Config& cfg, const payload::FunctionDef& fn,
                                          const std::optional<std::string>& phase_groups) {
  if (phase_groups) return payload::InstructionGroups::parse(*phase_groups);
  return payload::InstructionGroups::parse(
      cfg.instruction_groups ? *cfg.instruction_groups : fn.default_groups);
}

payload::CompileOptions compile_options(const Config& cfg, std::optional<unsigned> phase_unroll) {
  payload::CompileOptions options;
  if (phase_unroll) options.unroll = *phase_unroll;
  else if (cfg.line_count) options.unroll = *cfg.line_count;
  options.dump_registers = cfg.dump_registers;
  return options;
}

sim::RunConditions run_conditions(const Config& cfg, bool gpu_stress,
                                  std::optional<double> freq_mhz, std::optional<int> threads) {
  sim::RunConditions cond;
  cond.freq_mhz = freq_mhz ? *freq_mhz : cfg.sim_freq_mhz;
  cond.policy = policy_of(cfg);
  cond.gpu_stress = gpu_stress;
  if (threads) cond.threads = *threads;
  else if (cfg.threads) cond.threads = *cfg.threads;
  return cond;
}

TrimDeltas phase_deltas(const Config& cfg, double duration_s) {
  return TrimDeltas{std::min(cfg.start_delta_s, 0.25 * duration_s),
                    std::min(cfg.stop_delta_s, 0.25 * duration_s)};
}

std::vector<PhasePlan> plan_campaign(const Config& cfg, const Target& target,
                                     const sched::Campaign& campaign,
                                     const std::optional<BudgetShare>& budget, bool quiet) {
  std::vector<PhasePlan> plan;
  plan.reserve(campaign.size());
  for (const sched::CampaignPhase& spec : campaign.phases()) {
    const std::string what = "campaign phase '" + spec.name + "'";
    PhasePlan phase;
    phase.fn = &resolve_function(cfg, target, spec.function);
    phase.groups = resolve_groups(cfg, *phase.fn, spec.groups);
    phase.options = compile_options(cfg, spec.unroll);
    phase.profile = sched::parse_profile(spec.profile_spec, cfg.load, cfg.period_s);
    if (budget) {
      // The coordinator owns every phase's duty cycle: regulate this node's
      // apportioned power share. The value is re-read at each phase start
      // (assignments move it); planning only validates feasibility.
      if (!quiet && (spec.profile_explicit || spec.target_spec))
        log::warn() << what << ": profile=/target= overridden by the cluster power budget";
      control::Setpoint sp;
      sp.variable = control::ControlVariable::kPower;
      sp.value = budget->setpoint_w;
      sp.interval_s = budget->interval_s;
      sp.band = budget->band;
      phase.setpoint = sp;
    } else if (spec.target_spec) {
      if (!quiet && spec.profile_explicit)
        log::warn() << what
                    << ": profile= is ignored under target= (the controller owns the duty cycle)";
      try {
        phase.setpoint = control::Setpoint::parse(*spec.target_spec);
      } catch (const Error& e) {
        throw ConfigError(what + ": " + e.what());
      }
    }
    if (phase.setpoint) phase.setpoint->validate_duration(spec.duration_s, what);
    plan.push_back(std::move(phase));
  }
  return plan;
}

SimChannels register_sim_channels(telemetry::TelemetryBus& bus, bool with_temp,
                                  bool trimmed_aux, bool summarize_load) {
  const telemetry::TrimMode aux =
      trimmed_aux ? telemetry::TrimMode::kPhase : telemetry::TrimMode::kNone;
  SimChannels ch;
  ch.power = bus.channel("sim-wall-power", "W");
  ch.ipc = bus.channel("sim-perf-ipc", "instructions/cycle", aux);
  ch.load = bus.channel(kLoadChannel, "fraction", aux, summarize_load);
  if (with_temp) {
    ch.temp = bus.channel("sim-package-temp", "degC");
    ch.has_temp = true;
  }
  return ch;
}

SimPhaseResult run_sim_phase(const sim::SimulatedSystem& system, const Config& cfg,
                             const sim::RunConditions& cond,
                             const payload::PayloadStats& stats,
                             const sched::LoadProfile& profile, double duration_s,
                             std::uint64_t seed, double warm_start_s,
                             telemetry::TelemetryBus& bus, const SimChannels& ch,
                             std::optional<double> initial_temp_c) {
  SimPhaseResult result;
  result.point = system.simulator().run(stats, cond);
  sim::PowerTraceStream trace(system.simulator(), result.point, cfg.sim_sample_hz, seed,
                              warm_start_s);
  const double idle_w = system.simulator().idle().power_w;
  result.samples = static_cast<std::size_t>(duration_s * cfg.sim_sample_hz);
  double power_sum = 0.0;
  // Chunked batch publish: one virtual dispatch per sink per ~1k samples
  // instead of per sample — memory stays O(chunk), and the per-channel
  // sample sequences (hence every summary) are identical to per-sample
  // publishing.
  constexpr std::size_t kChunk = 1024;
  std::vector<telemetry::Sample> power_chunk, ipc_chunk, load_chunk, temp_chunk;
  power_chunk.reserve(kChunk);
  ipc_chunk.reserve(kChunk);
  load_chunk.reserve(kChunk);
  if (ch.has_temp) temp_chunk.reserve(kChunk);
  // First-order thermal integration per sample when the temp channel is
  // on: each step settles toward the current (noisy) wall power's steady
  // state by the same RC law the PowerPlant uses, so the open-loop temp
  // trace matches what a controlled phase at the same power would show.
  const sim::ThermalParams& th = system.simulator().config().thermal;
  const double dt = cfg.sim_sample_hz > 0.0 ? 1.0 / cfg.sim_sample_hz : 0.0;
  const double settle = dt > 0.0 ? 1.0 - std::exp(-dt / th.tau_s) : 0.0;
  double temp_c = initial_temp_c.value_or(th.ambient_c + th.c_per_w * idle_w);
  for (std::size_t at = 0; at < result.samples; at += kChunk) {
    const std::size_t n = std::min(kChunk, result.samples - at);
    power_chunk.clear();
    ipc_chunk.clear();
    load_chunk.clear();
    temp_chunk.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const double t = trace.time_at(at + i);
      const double level = clamp01(profile.load_at(t));
      const double watts = idle_w + level * (trace.next() - idle_w);
      power_chunk.push_back(telemetry::Sample{t, watts});
      ipc_chunk.push_back(telemetry::Sample{t, result.point.ipc_per_core * level});
      load_chunk.push_back(telemetry::Sample{t, level});
      if (ch.has_temp) {
        temp_c += settle * (th.ambient_c + th.c_per_w * watts - temp_c);
        temp_chunk.push_back(telemetry::Sample{t, temp_c});
      }
      power_sum += watts;
    }
    bus.publish_batch(ch.power, power_chunk);
    bus.publish_batch(ch.ipc, ipc_chunk);
    bus.publish_batch(ch.load, load_chunk);
    if (ch.has_temp) bus.publish_batch(ch.temp, temp_chunk);
  }
  if (result.samples > 0)
    result.mean_power_w = power_sum / static_cast<double>(result.samples);
  if (ch.has_temp) result.final_temp_c = temp_c;
  return result;
}

namespace {

/// Advance the open-loop thermal carry through a phase without a temp
/// channel: a first-order settle toward the phase's mean-power steady
/// state, so a later temp-target phase doesn't inherit a stale (or
/// idle-cold) package after e.g. 300 s of load.
double settle_thermal_carry(const sim::SimulatedSystem& system, double duration_s,
                            double mean_power_w, std::optional<double> carry_temp_c) {
  const sim::ThermalParams& th = system.simulator().config().thermal;
  const double steady = th.ambient_c + th.c_per_w * mean_power_w;
  const double prev = carry_temp_c.value_or(
      th.ambient_c + th.c_per_w * system.simulator().idle().power_w);
  return steady + (prev - steady) * std::exp(-duration_s / th.tau_s);
}

}  // namespace

SimPhaseStepper::SimPhaseStepper(const Config& cfg, const Target& target,
                                 telemetry::TelemetryBus& bus, bool with_temp)
    : cfg_(cfg),
      target_(target),
      system_(target.sim_config),
      bus_(bus),
      channels_(register_sim_channels(bus, with_temp, /*trimmed_aux=*/true,
                                      /*summarize_load=*/true)) {}

bool SimPhaseStepper::wants_temp(const sched::Campaign& campaign,
                                 const std::vector<PhasePlan>& plan) {
  for (const sched::CampaignPhase& spec : campaign.phases())
    if (spec.measure_temp) return true;
  for (const PhasePlan& phase : plan)
    if (phase.setpoint) return true;
  return false;
}

const payload::PayloadStats& SimPhaseStepper::stats_for(const PhasePlan& plan) {
  // Fuzz campaigns give every phase its own pattern, so the key covers the
  // per-phase groups and unroll, not just the function.
  const std::string key = plan.fn->name + "|" + plan.groups.to_string() +
                          strings::format("|u=%u", plan.options.unroll);
  auto it = stats_cache_.find(key);
  if (it == stats_cache_.end())
    it = stats_cache_
             .emplace(key, payload::analyze_payload(plan.fn->mix, plan.groups, target_.caches,
                                                    plan.options))
             .first;
  return it->second;
}

void SimPhaseStepper::begin(const sched::CampaignPhase& spec, const PhasePlan& plan,
                            std::uint64_t seed, std::optional<double> budget_w) {
  spec_ = &spec;
  plan_ = &plan;
  seed_ = seed;
  // Campaign time of this phase's start — also the virtual preheat the
  // simulator's thermal/leakage models have accumulated.
  warm_start_s_ = bus_.phase().time_offset_s;
  ran_ = false;
  loop_.reset();
  if (!plan.setpoint) return;
  control::Setpoint sp = *plan.setpoint;
  if (budget_w) sp.value = *budget_w;
  sp.validate_duration(spec.duration_s, "closed-loop phase");
  const sim::WorkloadPoint point = system_.simulator().run(
      stats_for(plan), run_conditions(cfg_, target_.gpu_stress, spec.freq_mhz, spec.threads));
  ipc_per_core_ = point.ipc_per_core;
  plant_.emplace(system_.simulator(), point, seed, warm_start_s_, /*noise=*/true,
                 carry_temp_c_);
  // The plant exposes its exact span, so the loop starts from a
  // feed-forward guess and the PID only has to trim leakage warm-up,
  // quantization, and meter noise.
  double scale, feed_forward;
  if (sp.variable == control::ControlVariable::kPower) {
    scale = plant_->power_span_w();
    feed_forward = (sp.value - plant_->idle_power_w()) / scale;
  } else {
    scale = plant_->temp_span_c();
    feed_forward = (sp.value - plant_->steady_temp_c(plant_->idle_power_w())) / scale;
  }
  loop_ = std::make_unique<control::FeedbackLoop>(
      sp, std::make_shared<control::ControlledProfile>(clamp01(feed_forward)), scale,
      clamp01(feed_forward));
  loop_->attach_bus(&bus_);
}

bool SimPhaseStepper::done() const {
  return loop_ ? plant_->state().time_s + loop_->setpoint().interval_s > spec_->duration_s + 1e-9
               : ran_;
}

double SimPhaseStepper::step() {
  if (loop_) {
    const double dt = loop_->setpoint().interval_s;
    const sim::PowerPlant::State& st = plant_->step(loop_->profile().level(), dt);
    // Plant state first, controller tick second: summary rows come out in
    // first-sample order, measurements before the ctl block.
    bus_.publish(channels_.power, st.time_s, st.power_w);
    bus_.publish(channels_.ipc, st.time_s, ipc_per_core_ * st.level);
    // The level was applied over [time_s - dt, time_s]; stamp it at the
    // interval *start* so a recorded trace replays each duty-cycle edge at
    // the moment it originally happened, not one tick late (and so the
    // feed-forward level of the first interval is part of the record).
    bus_.publish(channels_.load, st.time_s - dt, st.level);
    if (channels_.has_temp) bus_.publish(channels_.temp, st.time_s, st.temp_c);
    loop_->tick(st.time_s, loop_->setpoint().variable == control::ControlVariable::kPower
                               ? st.power_w
                               : st.temp_c);
    return st.time_s;
  }
  const SimPhaseResult result = run_sim_phase(
      system_, cfg_, run_conditions(cfg_, target_.gpu_stress, spec_->freq_mhz, spec_->threads),
      stats_for(*plan_), *plan_->profile, spec_->duration_s, seed_, warm_start_s_, bus_,
      channels_, carry_temp_c_);
  ran_ = true;
  // The exact integrated temperature when the phase published the temp
  // channel, otherwise the mean-power settle; a phase too short for a
  // single sample leaves the carry as it was.
  if (result.final_temp_c)
    carry_temp_c_ = result.final_temp_c;
  else if (result.samples > 0)
    carry_temp_c_ =
        settle_thermal_carry(system_, spec_->duration_s, result.mean_power_w, carry_temp_c_);
  return spec_->duration_s;
}

bool SimPhaseStepper::end(const std::string& label, bool quiet) {
  const double duration_s = spec_->duration_s;
  spec_ = nullptr;
  plan_ = nullptr;
  if (!loop_) return true;
  carry_temp_c_ = plant_->true_temp_c();  // the noise-free thermal state
  const bool converged = report_convergence(*loop_, duration_s, label, quiet);
  all_converged_ &= converged;
  return converged;
}

double convergence_window_s(const control::FeedbackLoop& loop, double duration_s) {
  return std::min(std::max(4.0 * loop.setpoint().interval_s, 0.25 * duration_s),
                  control::FeedbackLoop::kMaxConvergenceWindowS);
}

bool report_convergence(const control::FeedbackLoop& loop, double duration_s,
                        const std::string& label, bool quiet) {
  const double window = convergence_window_s(loop, duration_s);
  const bool converged = loop.converged(window);
  if (quiet) return converged;
  const double achieved = loop.trailing_mean(window);
  const control::Setpoint& sp = loop.setpoint();
  if (converged)
    log::info() << label << ": converged to "
                << strings::format("%.1f %s (target %g +-%g %%)", achieved,
                                   control::unit_of(sp.variable), sp.value, sp.band * 100.0);
  else
    log::warn() << label << ": NOT converged — trailing mean "
                << strings::format("%.1f %s vs target %g +-%g %%", achieved,
                                   control::unit_of(sp.variable), sp.value, sp.band * 100.0);
  return converged;
}

}  // namespace fs2::firestarter
