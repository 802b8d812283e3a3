// Host stress workloads: the JIT-compiled kernel of the host's selected
// function on two pinned workers, at constant full load (stress_full) or
// duty-cycled at 50 % over a 10 ms period (stress_pulsed). One short traced
// round of the same code is the kernel probe of the other workloads.

#include <sched.h>

#include <optional>
#include <thread>

#include "arch/cache.hpp"
#include "arch/processor.hpp"
#include "bench.hpp"
#include "jit/exec_memory.hpp"
#include "kernel/register_dump.hpp"
#include "kernel/thread_manager.hpp"
#include "payload/compiler.hpp"
#include "payload/mix.hpp"
#include "reference.hpp"
#include "util/error.hpp"

namespace fs2::perfbench {

namespace {

constexpr int kRounds = 4;
constexpr double kWindowS = 0.25;
/// CPU time of the reference slice taken at the end of every window.
constexpr double kReferenceS = 0.002;

struct StressSpec {
  double load = 1.0;
  double period_s = 0.1;
  std::size_t workers = 2;
};

/// Raw worker-side counts of one measurement window, and the host's speed
/// on the worker CPUs at its end; run.py derives the FLOP rate per
/// reference-second and the achieved duty from them.
struct Window {
  double iterations = 0.0;
  double worker_cpu_s = 0.0;  ///< process CPU time minus this (mostly sleeping) thread's
  double wall_s = 0.0;
  double host_speed = 0.0;
};

/// Sample the running workers every kWindowS for `duration_s`, dropping the
/// first window (ramp-in). Each window ends with a reference slice on every
/// worker CPU: it preempts that CPU's worker for kReferenceS, so host drift
/// shows in the reference as it does in the kernel. The window's host speed
/// is the mean over the worker CPUs, as the kernel's rate is their sum.
std::vector<Window> measure(const kernel::ThreadManager& manager, const std::vector<int>& cpus,
                            double duration_s) {
  std::vector<Window> windows;
  CpuPin pin;
  const auto t0 = Clock::now();
  Window last{static_cast<double>(manager.total_iterations()), process_cpu_s() - thread_cpu_s(),
              0.0, 0.0};
  for (std::size_t i = 0; seconds_since(t0) < duration_s; ++i) {
    std::this_thread::sleep_for(std::chrono::duration<double>(kWindowS));
    double speed = 0.0;
    for (const int cpu : cpus) {
      pin.to(cpu);
      speed += host_speed(Reference::kVector, kReferenceS) / static_cast<double>(cpus.size());
    }
    const Window now{static_cast<double>(manager.total_iterations()),
                     process_cpu_s() - thread_cpu_s(), seconds_since(t0), speed};
    if (i > 0)
      windows.push_back(Window{now.iterations - last.iterations,
                               now.worker_cpu_s - last.worker_cpu_s, now.wall_s - last.wall_s,
                               speed});
    last = now;
  }
  return windows;
}

/// Traced rounds: time a standalone work buffer and code mapping — the two
/// set-up costs ThreadManager and compile_payload hide inside themselves.
void trace_setup_parts(const payload::CompiledPayload& payload, std::uint64_t seed,
                       SpanLog& spans) {
  {
    auto span = spans.span("payload.buffer_init");
    std::unique_ptr<payload::WorkBuffer> buffer = payload.make_buffer();
    buffer->init(payload::DataInitPolicy::kSafe, seed);
  }
  const std::vector<std::uint8_t> code(payload.code_bytes().begin(), payload.code_bytes().end());
  for (int i = 0; i < 16; ++i) {
    auto span = spans.span("jit.map");
    jit::ExecutableBuffer mapped(code);
  }
}

/// The host side of a stress workload, resolved once per run.
struct HostStress {
  arch::CacheHierarchy caches;
  const payload::FunctionDef* fn = nullptr;
  payload::InstructionGroups groups;
  std::vector<int> cpus;
};

HostStress resolve_host(const StressSpec& spec, Report& report) {
  const arch::ProcessorModel cpu = arch::detect_host();
  HostStress host{arch::CacheHierarchy::from_sysfs(), &payload::select_function(cpu), {}, {}};
  if (!cpu.features.covers(host.fn->mix.required))
    throw Error("host CPU lacks the features of " + host.fn->name);
  host.groups = payload::InstructionGroups::parse(host.fn->default_groups);
  host.cpus = last_cpus(spec.workers);
  report.set_fact("function", host.fn->name);
  report.set_fact("groups", host.groups.to_string());
  report.set_fact("workers", std::to_string(spec.workers));
  report.set_fact("load", std::to_string(spec.load));
  return host;
}

/// One round: set up (compile, buffers, spawn, release), measure for
/// `duration_s`, stop and check the outputs. Traced rounds record spans and
/// also time the set-up parts and record the payload's static stats.
void stress_round(const StressSpec& spec, const HostStress& host, std::uint64_t seed,
                  double duration_s, bool traced, Report& report, SpanLog& spans) {
  spans.set_enabled(traced);
  payload::CompileOptions options;
  options.dump_registers = true;  // the register check reads the dump area

  const auto t0 = Clock::now();
  std::optional<payload::CompiledPayload> payload;
  {
    auto span = spans.span("payload.compile");
    payload.emplace(payload::compile_payload(host.fn->mix, host.groups, host.caches, options));
  }
  report.set_fact("flops_per_iter", std::to_string(payload->stats().flops_per_iteration));
  kernel::RunOptions run;
  run.cpus = host.cpus;
  run.seed = seed;
  run.load = spec.load;
  run.period_s = spec.period_s;
  std::optional<kernel::ThreadManager> manager;
  kernel::RegisterSnapshot before;
  {
    auto span = spans.span("kernel.start");
    manager.emplace(*payload, run);
    before = kernel::capture_registers(*manager);
    manager->start();
  }
  report.add(traced ? "traced.setup_s" : "setup_s", "s", seconds_since(t0));

  const std::vector<Window> windows = measure(*manager, host.cpus, duration_s);
  manager->stop();

  const kernel::RegisterSnapshot after = kernel::capture_registers(*manager);
  report.check(manager->total_iterations() > 0, "kernel executed no iterations");
  report.check(!kernel::has_invalid_values(after),
               "register dump holds non-finite or denormal values");
  for (std::size_t w = 0; w < after.values.size(); ++w)
    report.check(after.values[w] != before.values.at(w),
                 "worker " + std::to_string(w) + " did not advance");
  report.check(!windows.empty(), "round too short for a measurement window");

  const std::string prefix = traced ? "traced.window." : "window.";
  for (const Window& window : windows) {
    report.add(prefix + "iterations", "count", window.iterations);
    report.add(prefix + "worker_cpu_s", "s", window.worker_cpu_s);
    report.add(prefix + "wall_s", "s", window.wall_s);
    report.add(prefix + "host_speed", "ratio", window.host_speed);
  }
  if (!traced) return;

  trace_setup_parts(*payload, seed, spans);
  {
    auto span = spans.span("payload.analyze");
    payload::analyze_payload(host.fn->mix, host.groups, host.caches, options);
  }
  spans.set_enabled(false);
  const payload::PayloadStats& stats = payload->stats();
  report.add("payload.loop_bytes", "bytes", stats.loop_bytes);
  // The compiler's own fallback when sysfs reports no L1-I size.
  const std::size_t l1i = host.caches.l1i_size() != 0 ? host.caches.l1i_size() : 32 * 1024;
  report.add("payload.l1i_fill", "fraction",
             static_cast<double>(stats.loop_bytes) / static_cast<double>(l1i));
  report.add("payload.flops_per_iter", "count", stats.flops_per_iteration);
  const char* levels[] = {"l1", "l2", "l3", "ram"};
  for (int level = 1; level < payload::kNumMemoryLevels; ++level)
    report.add(std::string("payload.bytes_per_iter.") + levels[level - 1], "bytes",
               static_cast<double>(stats.bytes_per_iteration[level]));
  report.add("jit.code_bytes", "bytes", static_cast<double>(payload->code_bytes().size()));
}

/// Per-layer set-up figures from the spans traced rounds recorded.
void add_setup_layers(const SpanLog& spans, Report& report) {
  for (const double s : spans.durations("payload.compile")) report.add("payload.compile_ms", "ms", s * 1e3);
  for (const double s : spans.durations("payload.buffer_init"))
    report.add("payload.buffer_init_ms", "ms", s * 1e3);
  for (const double s : spans.durations("payload.analyze")) report.add("payload.analyze_us", "us", s * 1e6);
  for (const double s : spans.durations("jit.map")) report.add("jit.map_us", "us", s * 1e6);
  for (const double s : spans.durations("kernel.start")) report.add("kernel.start_ms", "ms", s * 1e3);
}

void run_stress(const StressSpec& spec, const Args& args, Report& report, SpanLog& spans) {
  const HostStress host = resolve_host(spec, report);
  for (int round = 0; round < kRounds; ++round) {
    // Traced runs alternate untraced and traced rounds so the pair gives
    // the tracing overhead; untraced runs never record spans.
    const bool traced = args.trace && round % 2 == 1;
    stress_round(spec, host, args.seed * 1000 + static_cast<std::uint64_t>(round),
                 args.seconds / kRounds, traced, report, spans);
  }
  spans.set_enabled(false);
  if (args.trace) add_setup_layers(spans, report);
}

}  // namespace

void run_stress_full(const Args& args, Report& report, SpanLog& spans) {
  run_stress(StressSpec{1.0, 0.1}, args, report, spans);
}

// The same groups as stress_full: a memory-level-only mix (RAM_L:2,L3_LS:2,
// L2_LS:6) read 3.2 and 5.5 GFLOP/s per core in one set of ten runs on a
// shared 4-vCPU Xeon KVM guest, as neighbours' memory traffic came and went.
void run_stress_pulsed(const Args& args, Report& report, SpanLog& spans) {
  run_stress(StressSpec{0.5, 0.01}, args, report, spans);
}

void probe_kernel(const Args& args, Report& report, SpanLog& spans) {
  const StressSpec spec{1.0, 0.1, 1};
  stress_round(spec, resolve_host(spec, report), args.seed, 0.75, true, report, spans);
  add_setup_layers(spans, report);
}

}  // namespace fs2::perfbench
