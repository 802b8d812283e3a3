#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/cache.hpp"
#include "arch/processor.hpp"
#include "control/controlled_profile.hpp"
#include "control/feedback_loop.hpp"
#include "control/setpoint.hpp"
#include "firestarter/config.hpp"
#include "payload/compiler.hpp"
#include "payload/data.hpp"
#include "payload/groups.hpp"
#include "payload/mix.hpp"
#include "sched/campaign.hpp"
#include "sched/load_profile.hpp"
#include "sim/machine_config.hpp"
#include "sim/plant.hpp"
#include "sim/sim_system.hpp"
#include "telemetry/bus.hpp"

namespace fs2::firestarter {

/// Machine description for the selected target. Shared by every run mode
/// (single runs, campaigns, the loopback fleet's in-process sim agents).
struct Target {
  arch::ProcessorModel cpu;
  arch::CacheHierarchy caches;
  sim::MachineConfig sim_config;  // meaningful for simulator targets only
  bool simulated = false;
  bool gpu_stress = false;
};

Target resolve_target(const Config& cfg);

/// The achieved duty-cycle channel every run mode publishes; --record-trace
/// and the load-level summary rows both hang off it.
inline constexpr const char* kLoadChannel = "load-level";

payload::DataInitPolicy policy_of(const Config& cfg);

inline double clamp01(double value) { return std::min(std::max(value, 0.0), 1.0); }

// ---- workload resolution ----------------------------------------------------
//
// The paper's workload is w = (I, u, M). Every run mode resolves it by the
// same precedence: a campaign phase's own key, then the CLI flag, then the
// default.

/// The instruction set I: a phase's function= key, then -i/--function, then
/// the function the target's CPU is tuned for.
const payload::FunctionDef& resolve_function(
    const Config& cfg, const Target& target,
    const std::optional<std::string>& phase_function = std::nullopt);

/// The memory-access multiset M: a phase's groups= key, then
/// --run-instruction-groups, then the function's default groups.
payload::InstructionGroups resolve_groups(
    const Config& cfg, const payload::FunctionDef& fn,
    const std::optional<std::string>& phase_groups = std::nullopt);

/// Compile options carrying the unroll factor u: a phase's unroll= key, then
/// --set-line-count, then 0 (the compiler's L1-I-filling default).
payload::CompileOptions compile_options(const Config& cfg,
                                        std::optional<unsigned> phase_unroll = std::nullopt);

/// Simulator run conditions: --freq, --threads and the data-init policy,
/// with a phase's freq=/threads= overrides on top.
sim::RunConditions run_conditions(const Config& cfg, bool gpu_stress,
                                  std::optional<double> freq_mhz = std::nullopt,
                                  std::optional<int> threads = std::nullopt);

/// Effective trim deltas for a phase of `duration_s`: honor the configured
/// --start/--stop deltas but never let them eat a short phase (campaign
/// phases are often a few seconds; the paper's 5 s/2 s defaults assume
/// multi-minute runs). An infinite duration disables the clamp — that case
/// is a single run where the user set the deltas deliberately.
struct TrimDeltas {
  double start_s = 0.0;
  double stop_s = 0.0;
};

TrimDeltas phase_deltas(const Config& cfg, double duration_s);

// ---- phase plan -------------------------------------------------------------

/// One campaign phase resolved for execution: the workload w = (I, u, M)
/// and what schedules it — an open-loop load profile, or the setpoint a
/// controller holds (then the profile is unused).
struct PhasePlan {
  const payload::FunctionDef* fn = nullptr;
  payload::InstructionGroups groups;
  payload::CompileOptions options;
  sched::ProfilePtr profile;
  std::optional<control::Setpoint> setpoint;
};

/// The coordinator's power budget as a node sees it: every phase regulates
/// the node's apportioned share at the campaign's controller tick and band.
struct BudgetShare {
  double setpoint_w = 0.0;  ///< the initial share (assignments move it)
  double interval_s = 0.0;
  double band = 0.0;
};

/// Resolve every phase up front — functions, groups, profiles (including
/// trace-file reads) and setpoints — so a campaign fails before phase 1
/// starts stressing, never hours in. Under `budget` every phase regulates
/// the node's power share and its profile=/target= keys are overridden.
/// `quiet` drops the per-phase override warnings (fleets of in-process
/// agents would repeat them per node).
std::vector<PhasePlan> plan_campaign(const Config& cfg, const Target& target,
                                     const sched::Campaign& campaign,
                                     const std::optional<BudgetShare>& budget,
                                     bool quiet = false);

// ---- simulated phases -------------------------------------------------------

/// The channels a simulated phase publishes, registered once per run so
/// every phase's summary rows come out in the same stable order.
struct SimChannels {
  telemetry::ChannelId power = 0;
  telemetry::ChannelId ipc = 0;
  telemetry::ChannelId load = 0;
  telemetry::ChannelId temp = 0;
  bool has_temp = false;
};

/// `trimmed_aux` selects whether the IPC and load channels get the phase's
/// trim deltas (campaign/controlled summaries) or none (the open-loop
/// single-run mode reports them untrimmed); `summarize_load` drops the
/// load-level summary row while trace recording still sees the samples.
SimChannels register_sim_channels(telemetry::TelemetryBus& bus, bool with_temp,
                                  bool trimmed_aux, bool summarize_load);

/// Evaluate one simulated stress phase: steady-state operating point plus a
/// load-modulated power/IPC/load trace at the virtual meter's sampling
/// rate, published in chunked batches onto the bus (nothing materialized
/// beyond one chunk — a 10x longer run costs the same memory). The
/// modulation folds the duty cycle into the trace the same way the wall
/// meter would see it — idle floor plus load-weighted dynamic power.
struct SimPhaseResult {
  sim::WorkloadPoint point;
  double mean_power_w = 0.0;  ///< thermal-carry input for open-loop phases
  std::size_t samples = 0;
  /// Package temperature at phase end, set when the phase published the
  /// temp channel (`ch.has_temp`) — the exact thermal carry, replacing the
  /// mean-power settle approximation.
  std::optional<double> final_temp_c;
};

/// `initial_temp_c` seeds the first-order thermal integration when the
/// temp channel is on (campaign `measure=temp` phases); nullopt starts
/// from the idle-settled package.
SimPhaseResult run_sim_phase(const sim::SimulatedSystem& system, const Config& cfg,
                             const sim::RunConditions& cond,
                             const payload::PayloadStats& stats,
                             const sched::LoadProfile& profile, double duration_s,
                             std::uint64_t seed, double warm_start_s,
                             telemetry::TelemetryBus& bus, const SimChannels& ch,
                             std::optional<double> initial_temp_c = std::nullopt);

/// Runs planned campaign phases on the simulated target in virtual time,
/// one resumable step at a time. A controlled phase advances one controller
/// tick per step(): the PowerPlant steps under the commanded level and the
/// controller reacts — so callers that must pause mid-phase (a budget
/// round, the loopback fleet's event loop) stop between ticks without a
/// thread blocking inside the phase. An open-loop phase runs whole in one
/// step(). Owns what lives across phases: the simulated system, the sim
/// channels, the thermal carry (back-to-back phases heat the package
/// continuously instead of snapping back to idle), the convergence verdicts
/// and the analyzed payload stats per (function, groups, unroll).
///
/// Blocking and cooperative callers drive it alike, inside their own bus
/// phase bracket:
///
///   stepper.begin(spec, plan, seed);
///   while (!stepper.done()) {
///     const double t = stepper.step();
///     if (stepper.loop() != nullptr) ...  // budget round, metrics, chaos
///   }
///   stepper.end(label);
class SimPhaseStepper {
 public:
  /// Registers the campaign sim channels on `bus` (trimmed, with the
  /// temperature channel when `with_temp`). `cfg` and `target` must outlive
  /// the stepper.
  SimPhaseStepper(const Config& cfg, const Target& target, telemetry::TelemetryBus& bus,
                  bool with_temp);

  /// Whether a campaign publishes package temperature: some phase regulates
  /// a setpoint or asks for measure=temp.
  static bool wants_temp(const sched::Campaign& campaign, const std::vector<PhasePlan>& plan);

  /// Start `spec` under `plan` (both must live until end()), once the
  /// caller opened the bus phase (its time offset is the virtual preheat).
  /// `budget_w` replaces the planned setpoint value with the power share in
  /// force at the phase start.
  void begin(const sched::CampaignPhase& spec, const PhasePlan& plan, std::uint64_t seed,
             std::optional<double> budget_w = std::nullopt);
  /// Between begin() and end().
  bool in_phase() const { return spec_ != nullptr; }
  /// The phase has covered its duration.
  bool done() const;
  /// Advance the phase; returns the virtual time reached. A controlled
  /// step publishes the plant's tick, then the controller reacts to the
  /// fresh measurement — the one-tick sensing lag a real RAPL poll has.
  double step();
  /// The controller of the current (or just ended) controlled phase; null
  /// for open-loop phases.
  control::FeedbackLoop* loop() { return loop_.get(); }

  /// Close the phase: judge a controlled phase's convergence (logged as
  /// `label` unless `quiet`). Returns the verdict; open-loop phases pass.
  bool end(const std::string& label, bool quiet = false);
  bool all_converged() const { return all_converged_; }

 private:
  const payload::PayloadStats& stats_for(const PhasePlan& plan);

  const Config& cfg_;
  const Target& target_;
  sim::SimulatedSystem system_;
  telemetry::TelemetryBus& bus_;
  SimChannels channels_;
  std::map<std::string, payload::PayloadStats> stats_cache_;
  std::optional<double> carry_temp_c_;
  bool all_converged_ = true;

  // The running phase.
  const sched::CampaignPhase* spec_ = nullptr;
  const PhasePlan* plan_ = nullptr;
  std::uint64_t seed_ = 0;
  double warm_start_s_ = 0.0;
  bool ran_ = false;  ///< open-loop phase already published
  // Closed-loop phases: the plant and its controller.
  std::optional<sim::PowerPlant> plant_;
  double ipc_per_core_ = 0.0;
  std::unique_ptr<control::FeedbackLoop> loop_;
};

/// Convergence window for a phase of `duration_s`: the trailing quarter,
/// but at least a few controller ticks' worth — capped so that week-long
/// holds are judged on their trailing minutes (which is also all the
/// loop's bounded telemetry ring retains).
double convergence_window_s(const control::FeedbackLoop& loop, double duration_s);

/// Log whether the loop settled inside the band; returns the verdict so
/// callers can honor --require-convergence. `quiet` suppresses the log
/// lines (large loopback fleets would emit thousands).
bool report_convergence(const control::FeedbackLoop& loop, double duration_s,
                        const std::string& label, bool quiet = false);

}  // namespace fs2::firestarter
