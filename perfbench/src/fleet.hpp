#pragma once

// One loopback fleet campaign, shared by the fleet_256 workload and the
// cluster probe of traced runs.

#include <string>
#include <vector>

#include "bench.hpp"

namespace fs2::perfbench {

struct FleetSpec {
  std::string nodes = "zen2@1500x128,haswell@2000x128";
  /// About 150 s of virtual time in three plateaus.
  std::string campaign =
      "phase name=ramp duration=40\n"
      "phase name=hold duration=60\n"
      "phase name=cool duration=50\n";
  /// 187.5 W per node: inside both SKUs' envelopes, so the apportioner's
  /// fixed point is reachable on every phase.
  std::string budget = "cluster-power=48000W";
  std::uint64_t seed = 1;
};

/// Wall-clock split of one campaign, from the coordinator's progress lines.
struct FleetOutcome {
  std::size_t nodes = 0;
  double virtual_s = 0.0;     ///< campaign length in virtual time
  double setup_s = 0.0;       ///< coordinator construction to epoch announcement
  double setup_cpu_s = 0.0;   ///< the same span in process CPU time, drain thread excluded
  double handshake_s = 0.0;   ///< run() start to the last node's clock sync
  double sync_s = 0.0;        ///< last clock sync to the epoch announcement
  double campaign_s = 0.0;    ///< shared epoch instant to the last verdict
  double campaign_cpu_s = 0.0;  ///< the same CPU time from the epoch line to the last verdict
  double teardown_s = 0.0;    ///< last verdict to run() return and fleet join
  double budget_err_pct = 0.0;  ///< worst phase |trailing total - budget| / budget
  std::uint64_t budget_exchanges = 0;  ///< traced campaigns only
  std::uint64_t exchanges_dropped = 0;
  bool timed = false;  ///< every progress line arrived, so the timings hold
  std::vector<std::string> errors;  ///< failed output checks
};

/// One campaign, with the coordinator on cpus.front() and the fleet's event
/// loop on cpus.back().
FleetOutcome run_campaign(const FleetSpec& spec, const std::vector<int>& cpus, SpanLog& spans);
void add_fleet_layers(const FleetOutcome& outcome, Report& report);
void check_fleet(const FleetOutcome& outcome, Report& report);

}  // namespace fs2::perfbench
