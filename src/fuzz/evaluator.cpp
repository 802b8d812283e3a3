#include "fuzz/evaluator.hpp"

#include <algorithm>
#include <sstream>

#include "cluster/coordinator.hpp"
#include "firestarter/sim_fleet.hpp"
#include "firestarter/sim_phases.hpp"
#include "payload/compiler.hpp"
#include "payload/mix.hpp"
#include "sched/campaign.hpp"
#include "sched/load_profile.hpp"
#include "sim/sim_system.hpp"
#include "telemetry/bus.hpp"
#include "telemetry/sinks.hpp"
#include "trace/registry.hpp"
#include "trace/tracer.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace fs2::fuzz {

namespace {

/// Candidate phases all run the same square excursion profile — full idle
/// to full load — so the swing objective sees the pattern's entire dynamic
/// range and the peak objective its sustained draw, in one measurement.
std::string eval_profile_spec(double duration_s) {
  // A few full cycles per phase: enough low/high dwell for the trimmed
  // window to capture both extremes at the default 20 Sa/s meter.
  const double period_s = std::max(0.5, duration_s / 3.0);
  return strings::format("square:low=0,high=100,period=%g", period_s);
}

/// What a node runs when the phase carries no groups=/unroll= keys: the
/// CLI-level overrides when set, else the function's hand-tuned defaults.
PatternSpec default_spec(const firestarter::Config& cfg) {
  const firestarter::Target target = firestarter::resolve_target(cfg);
  const payload::FunctionDef& fn = firestarter::resolve_function(cfg, target);
  PatternSpec spec;
  spec.groups = firestarter::resolve_groups(cfg, fn);
  spec.unroll = firestarter::compile_options(cfg).unroll;
  return spec;
}

// ---- single-simulator evaluation --------------------------------------------

class LocalEvaluator final : public Evaluator {
 public:
  LocalEvaluator(firestarter::Config cfg, double duration_s)
      : cfg_(std::move(cfg)),
        duration_s_(duration_s),
        target_(firestarter::resolve_target(cfg_)),
        fn_(firestarter::resolve_function(cfg_, target_)) {
    if (!target_.simulated)
      throw ConfigError(
          "--fuzz needs --simulate or --loopback: a sweep is hundreds of "
          "stress phases, which only makes sense in virtual time");
  }

  std::size_t batch_multiple() const override { return 1; }

  std::vector<Evaluation> evaluate(const std::vector<PatternSpec>& batch) override {
    std::vector<Evaluation> out;
    out.reserve(batch.size());
    for (const PatternSpec& spec : batch) out.push_back(evaluate_one(spec));
    return out;
  }

  std::vector<Evaluation> baseline() override {
    return {evaluate_one(default_spec(cfg_))};
  }

 private:
  Evaluation evaluate_one(const PatternSpec& spec) {
    payload::CompileOptions options;
    if (spec.unroll) options.unroll = spec.unroll;
    const payload::PayloadStats stats =
        payload::analyze_payload(fn_.mix, spec.groups, target_.caches, options);

    // A fresh system and bus per candidate: no thermal or telemetry state
    // leaks between evaluations, so a candidate's signature depends only on
    // the pattern and the evaluation seed.
    sim::SimulatedSystem system(target_.sim_config);
    telemetry::TelemetryBus bus;
    telemetry::SummarySink summary;
    bus.attach(&summary);
    const firestarter::SimChannels ch = firestarter::register_sim_channels(
        bus, /*with_temp=*/true, /*trimmed_aux=*/true, /*summarize_load=*/false);
    const sched::ProfilePtr profile =
        sched::parse_profile(eval_profile_spec(duration_s_), cfg_.load, cfg_.period_s);
    const firestarter::TrimDeltas deltas = firestarter::phase_deltas(cfg_, duration_s_);
    bus.begin_phase(kPhase, duration_s_, deltas.start_s, deltas.stop_s);
    firestarter::run_sim_phase(system, cfg_, firestarter::run_conditions(cfg_, target_.gpu_stress),
                               stats, *profile, duration_s_, cfg_.seed + evaluated_++,
                               /*warm_start_s=*/0.0, bus, ch);
    bus.finish();

    Evaluation evaluation;
    evaluation.spec = spec;
    evaluation.signature = signature_from_rows(summary.rows(), kPhase, duration_s_);
    evaluation.node = "local";
    evaluation.sku = firestarter::to_string(cfg_.target);
    return evaluation;
  }

  static constexpr const char* kPhase = "fuzz";

  firestarter::Config cfg_;
  double duration_s_;
  firestarter::Target target_;
  const payload::FunctionDef& fn_;
  std::uint64_t evaluated_ = 0;
};

// ---- loopback-fleet evaluation ----------------------------------------------

class FleetEvaluator final : public Evaluator {
 public:
  FleetEvaluator(firestarter::Config cfg, double duration_s, std::ostream& log)
      : cfg_(std::move(cfg)),
        duration_s_(duration_s),
        log_(log),
        specs_(firestarter::parse_loopback_specs(*cfg_.loopback_nodes)) {}

  std::size_t batch_multiple() const override { return specs_.size(); }

  std::vector<Evaluation> evaluate(const std::vector<PatternSpec>& batch) override {
    TRACE_SPAN("fuzz.fleet_evaluate");
    if (batch.empty()) return {};
    const std::size_t nodes = specs_.size();
    const std::size_t rounds = (batch.size() + nodes - 1) / nodes;

    // Pad a partial last round by cycling the batch: node j's phase k runs
    // candidate k*N+j, names and durations identical across nodes so the
    // coordinator's barriers and sync verdicts work unchanged.
    auto padded = [&](std::size_t index) -> const PatternSpec& {
      return batch[index % batch.size()];
    };
    std::vector<std::string> texts(nodes);
    for (std::size_t j = 0; j < nodes; ++j) {
      std::ostringstream text;
      for (std::size_t k = 0; k < rounds; ++k) {
        const PatternSpec& spec = padded(k * nodes + j);
        text << strings::format("phase name=r%zu duration=%g profile=%s groups=%s",
                                k, duration_s_, eval_profile_spec(duration_s_).c_str(),
                                spec.groups.to_string().c_str());
        if (spec.unroll) text << strings::format(" unroll=%u", spec.unroll);
        text << " measure=temp\n";
      }
      texts[j] = text.str();
    }

    const cluster::Coordinator::Result result = run_cluster(texts, rounds);
    std::vector<Evaluation> out;
    out.reserve(batch.size());
    for (std::size_t index = 0; index < batch.size(); ++index) {
      const std::size_t j = index % nodes;
      const std::size_t k = index / nodes;
      Evaluation evaluation;
      evaluation.spec = batch[index];
      evaluation.node = result.nodes[j].name;
      evaluation.sku = result.nodes[j].sku;
      evaluation.signature = signature_from_rows(
          node_rows(result, result.nodes[j].name), strings::format("r%zu", k),
          duration_s_);
      out.push_back(std::move(evaluation));
    }
    return out;
  }

  std::vector<Evaluation> baseline() override {
    const std::string text =
        strings::format("phase name=base duration=%g profile=%s measure=temp\n",
                        duration_s_, eval_profile_spec(duration_s_).c_str());
    const cluster::Coordinator::Result result =
        run_cluster(std::vector<std::string>(specs_.size(), text), 1);

    std::vector<Evaluation> out;
    out.reserve(specs_.size());
    for (std::size_t j = 0; j < specs_.size(); ++j) {
      firestarter::Config node_cfg = cfg_;
      node_cfg.target = specs_[j].target;
      node_cfg.sim_freq_mhz = specs_[j].freq_mhz;
      Evaluation evaluation;
      evaluation.spec = default_spec(node_cfg);
      evaluation.node = result.nodes[j].name;
      evaluation.sku = result.nodes[j].sku;
      evaluation.signature =
          signature_from_rows(node_rows(result, result.nodes[j].name), "base",
                              duration_s_);
      out.push_back(std::move(evaluation));
    }
    return out;
  }

 private:
  static std::vector<metrics::Summary> node_rows(
      const cluster::Coordinator::Result& result, const std::string& node) {
    std::vector<metrics::Summary> rows;
    for (const cluster::ClusterBus::Row& row : result.rows)
      if (row.node == node) rows.push_back(row.summary);
    return rows;
  }

  /// One coordinator/agent round trip over an ephemeral loopback port, the
  /// same launch the --coordinator mode uses.
  cluster::Coordinator::Result run_cluster(const std::vector<std::string>& texts,
                                           std::size_t phase_count) {
    TRACE_SPAN("fuzz.cluster_round");
    static trace::Counter& rounds =
        trace::Registry::instance().counter("fuzz.cluster_rounds");
    rounds.add();
    // Generated campaigns should always parse; catching authoring bugs here
    // beats decoding an agent-side protocol failure.
    std::istringstream probe(texts.front());
    sched::Campaign::parse(probe, "fuzz campaign");

    cluster::Coordinator::Options options;
    options.port = 0;
    options.loopback_only = true;
    options.nodes = specs_.size();
    options.campaign_text = texts.front();
    options.per_node_campaigns = texts;
    options.phase_count = phase_count;
    options.start_delay_s = cfg_.cluster_start_delay_s;
    options.sync_tolerance_s = cfg_.sync_tolerance_s;
    options.seed = cfg_.seed;
    firestarter::raise_fd_limit(4 * specs_.size() + 64);

    // Per-node clock-sync chatter is noise at fuzz scale (a line per node
    // per cluster run); buffer it and surface it only when the run fails.
    std::ostringstream chatter;
    firestarter::LoopbackRun run = firestarter::run_with_loopback_fleet(
        std::make_unique<cluster::Coordinator>(options), chatter, cfg_, specs_);
    std::string failure = run.failure;
    if (!run.fleet_error.empty()) failure = "loopback fleet failed: " + run.fleet_error;
    if (failure.empty() && !run.failed_agents.empty())
      failure = "loopback agent " + run.failed_agents.front().name + ": " +
                run.failed_agents.front().error;
    if (!failure.empty()) {
      log_ << chatter.str();
      throw Error("fuzz cluster round failed: " + failure);
    }
    return std::move(run.result);
  }

  firestarter::Config cfg_;
  double duration_s_;
  std::ostream& log_;
  std::vector<firestarter::LoopbackSpec> specs_;
};

}  // namespace

std::unique_ptr<Evaluator> make_local_evaluator(const firestarter::Config& cfg,
                                                double duration_s) {
  return std::make_unique<LocalEvaluator>(cfg, duration_s);
}

std::unique_ptr<Evaluator> make_fleet_evaluator(const firestarter::Config& cfg,
                                                double duration_s, std::ostream& log) {
  return std::make_unique<FleetEvaluator>(cfg, duration_s, log);
}

}  // namespace fs2::fuzz
