// tune_sim: NSGA-II auto-tuning of the instruction-group mix (paper Sec.
// III-C, Fig. 11) against the simulated zen2 testbed — the product's
// --simulate=zen2 --optimize=NSGA2 path, repeated for the run's duration.

#include "tune.hpp"

#include <optional>

#include "firestarter/backends.hpp"
#include "payload/compiler.hpp"
#include "payload/mix.hpp"
#include "reference.hpp"
#include "sim/sim_system.hpp"
#include "tuning/groups_problem.hpp"
#include "tuning/nsga2.hpp"

namespace fs2::perfbench {

namespace {

/// Virtual seconds each candidate runs: the CLI's -t default under --optimize.
constexpr double kCandidateS = 10.0;
/// A reference slice every kReferenceEvery evaluations, of kReferenceS CPU
/// time: about 4 % of the evaluations' time.
constexpr std::uint64_t kReferenceEvery = 50;
constexpr double kReferenceS = 0.0005;

}  // namespace

CountingBackend::CountingBackend(tuning::EvaluationBackend& inner, SpanLog& spans,
                                 std::function<void(const payload::InstructionGroups&)> probe)
    : inner_(inner), spans_(spans), probe_(std::move(probe)) {}

std::vector<double> CountingBackend::evaluate(const payload::InstructionGroups& groups) {
  std::vector<double> objectives;
  {
    auto span = spans_.span("tuning.evaluate");
    objectives = inner_.evaluate(groups);
  }
  const auto t0 = Clock::now();
  const double cpu0 = thread_cpu_s();
  if (spans_.enabled() && probe_) probe_(groups);
  if (evaluations_++ % kReferenceEvery == 0) {
    // A span of its own, so that tuning.nsga2_self_s leaves it out.
    auto span = spans_.span("reference");
    host_speeds_.push_back(host_speed(Reference::kScalar, kReferenceS));
  }
  side_s_ += seconds_since(t0);
  side_cpu_s_ += thread_cpu_s() - cpu0;
  return objectives;
}

TuneOutcome run_nsga2(const TuneSpec& spec, SpanLog& spans) {
  const sim::MachineConfig machine = sim::MachineConfig::named("zen2");
  const arch::CacheHierarchy caches = arch::CacheHierarchy::zen2();
  const payload::FunctionDef& fn = payload::select_function(arch::epyc_7502_model());
  const sim::RunConditions conditions;

  // Set-up: simulated system, backend, virtual preheat. It costs
  // microseconds, so it is repeated and every repetition is a sample.
  TuneOutcome outcome;
  std::unique_ptr<sim::SimulatedSystem> system;
  std::unique_ptr<firestarter::SimBackend> backend;
  for (int i = 0; i < spec.setup_repeats; ++i) {
    const auto t0 = Clock::now();
    system = std::make_unique<sim::SimulatedSystem>(machine);
    backend = std::make_unique<firestarter::SimBackend>(*system, fn.mix, caches, conditions,
                                                        kCandidateS, spec.seed);
    backend->preheat();
    outcome.setup_s.push_back(seconds_since(t0));
  }

  // Traced runs also time the two module calls SimBackend::evaluate is
  // built from, on the same candidate, outside the evaluate span.
  CountingBackend counted(*backend, spans, [&](const payload::InstructionGroups& groups) {
    payload::PayloadStats stats;
    {
      auto span = spans.span("payload.analyze");
      stats = payload::analyze_payload(fn.mix, groups, caches);
    }
    auto span = spans.span("sim.run");
    system->simulator().run(stats, conditions);
  });
  tuning::GroupsProblem problem(counted);
  tuning::Nsga2Config config;
  config.individuals = spec.individuals;
  config.generations = spec.generations;
  config.mutation_probability = 0.35;  // the CLI's --nsga2-m default
  config.seed = spec.seed;
  tuning::Nsga2 optimizer(config);

  const auto t0 = Clock::now();
  const double cpu0 = thread_cpu_s();
  std::vector<tuning::Individual> population;
  {
    auto span = spans.span("tuning.nsga2");
    population = optimizer.run(problem);
  }
  outcome.wall_s = seconds_since(t0) - counted.side_s();
  outcome.cpu_s = thread_cpu_s() - cpu0 - counted.side_cpu_s();
  outcome.host_speed = median(counted.host_speeds());
  outcome.evaluations = counted.evaluations();
  const tuning::Individual& best = tuning::Nsga2::best_by_objective(population, 0);
  outcome.best_groups = tuning::GroupsProblem::to_groups(best.genome).to_string();
  outcome.best_objectives = best.objectives;
  for (const tuning::Individual& individual : population)
    if (individual.rank == 0) ++outcome.front_size;
  return outcome;
}

void add_tuning_layers(const SpanLog& spans, Report& report) {
  for (const double s : spans.durations("tuning.evaluate"))
    report.add("tuning.evaluate_ms", "ms", s * 1e3);
  for (const double s : spans.self_times("tuning.nsga2")) report.add("tuning.nsga2_self_s", "s", s);
  for (const double s : spans.durations("payload.analyze")) report.add("payload.analyze_us", "us", s * 1e6);
  for (const double s : spans.durations("sim.run")) report.add("sim.run_us", "us", s * 1e6);
}

void run_tune_sim(const Args& args, Report& report, SpanLog& spans) {
  TuneSpec spec;
  spec.seed = args.seed;
  report.set_fact("function", payload::select_function(arch::epyc_7502_model()).name);
  report.set_fact("machine", "sim zen2 (modelled watts)");

  const auto t0 = Clock::now();
  std::optional<TuneOutcome> first;
  for (int rep = 0; rep < 3 || seconds_since(t0) < args.seconds; ++rep) {
    const bool traced = args.trace && rep % 2 == 1;
    spans.set_enabled(traced);
    const TuneOutcome outcome = run_nsga2(spec, spans);
    spans.set_enabled(false);

    // Like every workload's work_rate, evaluations per reference-second.
    const auto evaluations = static_cast<double>(outcome.evaluations);
    const double rate = evaluations / outcome.cpu_s / outcome.host_speed;
    // Set-up is single-threaded CPU work like the evaluations, and in a
    // quarter of an hour its wall time moved with the host by 25 %: it is
    // reported in reference-seconds too, its time scaled by the host speed
    // the repetition's reference slices read.
    for (const double s : outcome.setup_s) report.add("setup_s", "s", s * outcome.host_speed);
    const double best_w = outcome.best_objectives.empty() ? 0.0 : outcome.best_objectives[0];
    if (!traced) {
      report.add("tune_evals_per_s", "1/s", evaluations / outcome.wall_s);
      report.add("work_rate", "op/ref_s", rate);
      report.add("tune_evals_per_cpu_s", "1/s", evaluations / outcome.cpu_s);
      report.add("host_speed", "ratio", outcome.host_speed);
      report.add("tune_best_w", "W", best_w);
    } else {
      report.add("traced.work_rate", "op/ref_s", rate);
      report.add("tuning.evaluations", "count", static_cast<double>(outcome.evaluations));
      report.add("tuning.front_size", "count", static_cast<double>(outcome.front_size));
      report.add("tuning.best_w", "W", best_w);
    }
    report.check(best_w > 0.0, "selected optimum has no positive power");
    if (!first) {
      first = outcome;
      report.set_fact("selected_optimum", outcome.best_groups);
    } else {
      report.check(outcome.best_groups == first->best_groups &&
                       outcome.best_objectives == first->best_objectives,
                   "selected optimum differs between repetitions: " + outcome.best_groups +
                       " vs " + first->best_groups);
    }
  }
  if (args.trace) add_tuning_layers(spans, report);
}

}  // namespace fs2::perfbench
