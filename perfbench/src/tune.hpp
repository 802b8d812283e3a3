#pragma once

// The NSGA-II run shared by the tune_sim workload and the tuning probe of
// traced runs.

#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "tuning/groups_problem.hpp"

namespace fs2::perfbench {

/// Decorator around EvaluationBackend::evaluate: counts evaluations, reads
/// the host's speed with a scalar reference slice every few evaluations
/// and, in traced runs, spans each evaluation and hands the candidate to
/// `probe`.
class CountingBackend : public tuning::EvaluationBackend {
 public:
  CountingBackend(tuning::EvaluationBackend& inner, SpanLog& spans,
                  std::function<void(const payload::InstructionGroups&)> probe);

  std::vector<std::string> objective_names() const override { return inner_.objective_names(); }
  std::vector<double> evaluate(const payload::InstructionGroups& groups) override;
  std::uint64_t evaluations() const { return evaluations_; }
  const std::vector<double>& host_speeds() const { return host_speeds_; }
  /// Wall and CPU time spent in `probe` and in reference slices, left out
  /// of rates.
  double side_s() const { return side_s_; }
  double side_cpu_s() const { return side_cpu_s_; }

 private:
  tuning::EvaluationBackend& inner_;
  SpanLog& spans_;
  std::function<void(const payload::InstructionGroups&)> probe_;
  std::uint64_t evaluations_ = 0;
  std::vector<double> host_speeds_;
  double side_s_ = 0.0;
  double side_cpu_s_ = 0.0;
};

struct TuneSpec {
  std::size_t individuals = 40;
  std::size_t generations = 100;
  std::uint64_t seed = 1;
  int setup_repeats = 20;
};

struct TuneOutcome {
  std::vector<double> setup_s;
  double wall_s = 0.0;  ///< Nsga2::run wall time, minus probe calls and reference slices
  double cpu_s = 0.0;   ///< the same span in this thread's CPU time
  double host_speed = 0.0;  ///< median of the run's reference slices
  std::uint64_t evaluations = 0;
  std::size_t front_size = 0;
  std::string best_groups;  ///< the selected optimum (best power)
  std::vector<double> best_objectives;
};

/// Set up the simulated zen2 backend and run NSGA-II once.
TuneOutcome run_nsga2(const TuneSpec& spec, SpanLog& spans);

/// Per-layer figures from the spans run_nsga2 recorded.
void add_tuning_layers(const SpanLog& spans, Report& report);

}  // namespace fs2::perfbench
