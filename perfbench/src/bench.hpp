#pragma once

// Shared plumbing of fs2_perfbench: the per-run report (metric
// samples plus output-check tallies), the benchmark-owned span log used by
// traced runs, and process/thread CPU clocks.

#include <pthread.h>
#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fs2::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds consumed by the whole process / by the calling thread /
/// by another running thread of this process.
double process_cpu_s();
double thread_cpu_s();
double thread_cpu_s(pthread_t thread);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// The last `n` CPUs the calling thread may run on.
std::vector<int> last_cpus(std::size_t n);

/// Pins the calling thread to one CPU at a time; restores its affinity when
/// destroyed.
class CpuPin {
 public:
  CpuPin();
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;
  void to(int cpu);

 private:
  cpu_set_t saved_;
};

/// Metric samples and output-check tallies of one benchmark run. Every
/// metric is a list of samples; run.py reduces each to its median.
class Report {
 public:
  void add(const std::string& name, const std::string& unit, double value);
  bool has(const std::string& name) const { return series_.count(name) != 0; }
  /// Fold in a probe's report: its check tallies, every series this report
  /// does not have yet, and its facts under a "probe." prefix.
  void absorb_probe(const Report& probe);

  /// Record one output check; a false `ok` counts as a failed operation.
  void check(bool ok, const std::string& what);

  void set_fact(const std::string& key, const std::string& value) { facts_[key] = value; }

  /// One JSON object: series, check tallies, first failures, host facts.
  std::string to_json(const std::string& workload) const;

 private:
  struct Series {
    std::string unit;
    std::vector<double> samples;
  };
  std::map<std::string, Series> series_;
  std::map<std::string, std::string> facts_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;  ///< first few failed checks, for the log
};

/// Benchmark-owned trace: spans recorded around the calls the benchmark
/// makes into each fs2 module, kept in memory and written once at exit.
/// Each span names the span that was open when it began (its parent), so a
/// layer's self time is its duration minus its children's.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;  ///< index of the enclosing span in this log, -1 = none
    double begin_s = 0.0;
    double end_s = 0.0;
  };

  /// RAII span; a no-op while the log is disabled.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_ = -1;
    int saved_open_ = -1;
  };

  Scope span(const char* name) { return Scope(enabled_ ? this : nullptr, name); }

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Durations (seconds) of every closed span called `name`, in order.
  std::vector<double> durations(const std::string& name) const;
  /// Per-span self time of every span called `name`: its duration minus the
  /// time covered by its direct children.
  std::vector<double> self_times(const std::string& name) const;

  /// Chrome trace_event JSON (one complete event per span, parents as args).
  void write_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  int open_ = -1;
  std::vector<Span> spans_;
  Clock::time_point t0_ = Clock::now();
};

/// Command line of one run, as run.py passes it.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< where a traced run writes its span log
};

// Workloads. Each measures for about args.seconds and fills the report.
void run_stress_full(const Args& args, Report& report, SpanLog& spans);
void run_stress_pulsed(const Args& args, Report& report, SpanLog& spans);
void run_tune_sim(const Args& args, Report& report, SpanLog& spans);
void run_fleet_256(const Args& args, Report& report, SpanLog& spans);

/// Traced runs only: time the module entry points every workload reports
/// per-layer figures for, on small fixed inputs, and fill in each layer
/// metric the workload itself did not exercise.
void probe_layers(const Args& args, Report& report, SpanLog& spans);

/// One traced 0.75 s round of the host kernel on one worker: the kernel
/// probe of workloads that never JIT-compile.
void probe_kernel(const Args& args, Report& report, SpanLog& spans);

}  // namespace fs2::perfbench
