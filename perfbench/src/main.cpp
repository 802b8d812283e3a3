// fs2_perfbench: runs one workload for the requested time and prints
// one JSON object of raw metric samples and output-check tallies on stdout.
// perfbench/run.py builds this program, runs it, and reduces the samples.
//
//   fs2_perfbench --workload stress_full --seed 1 --seconds 10 --trace 0

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "arch/processor.hpp"
#include "bench.hpp"
#include "metrics/perf_ipc.hpp"
#include "metrics/rapl.hpp"
#include "util/logging.hpp"

namespace {

using fs2::perfbench::Args;

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--spans") args.spans_path = value;
    else throw std::invalid_argument("unknown option " + key);
  }
  if (argc % 2 == 0) throw std::invalid_argument("options take one value each");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

/// What the numbers depend on: the CPU, and which power and counter
/// sources this host offers (none means host watts are not measured).
void host_facts(fs2::perfbench::Report& report) {
  const fs2::arch::ProcessorModel cpu = fs2::arch::detect_host();
  report.set_fact("cpu_model", cpu.brand.empty() ? "unknown" : cpu.brand);
  report.set_fact("rapl", fs2::metrics::RaplPowerMetric().available() ? "present" : "absent");
  report.set_fact("perf_counters", fs2::metrics::PerfIpcMetric().available() ? "present" : "absent");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fs2::perfbench;
  try {
    const Args args = parse(argc, argv);
    fs2::log::set_level(fs2::log::Level::kWarn);
    Report report;
    SpanLog spans;
    host_facts(report);
    if (args.workload == "stress_full") run_stress_full(args, report, spans);
    else if (args.workload == "stress_pulsed") run_stress_pulsed(args, report, spans);
    else if (args.workload == "tune_sim") run_tune_sim(args, report, spans);
    else if (args.workload == "fleet_256") run_fleet_256(args, report, spans);
    else throw std::invalid_argument("unknown workload '" + args.workload + "'");
    if (args.trace) probe_layers(args, report, spans);
    report.add("peak_rss_mb", "MB", peak_rss_mb());
    if (args.trace && !args.spans_path.empty()) spans.write_json(args.spans_path);
    std::printf("%s\n", report.to_json(args.workload).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fs2_perfbench: %s\n", e.what());
    return 1;
  }
}
