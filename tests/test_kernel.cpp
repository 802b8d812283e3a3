// Tests for the kernel runtime: worker threads actually execute JIT'd
// payloads with pinning and duty-cycling, the register dump captures SIMD
// state, and the watchdog enforces -t.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <ctime>
#include <sstream>
#include <thread>

#include "arch/cpuid.hpp"
#include "kernel/register_dump.hpp"
#include "kernel/selftest.hpp"
#include "kernel/thread_manager.hpp"
#include "kernel/watchdog.hpp"
#include "payload/mix.hpp"
#include "util/error.hpp"

namespace fs2::kernel {
namespace {

bool host_has_fma() {
  return arch::host_identity().features.covers(
      payload::find_function("FUNC_FMA_256_ZEN2").mix.required);
}

payload::CompiledPayload small_payload(bool dump = false) {
  payload::CompileOptions options;
  options.unroll = 64;
  options.ram_region_bytes = 1 << 20;
  options.dump_registers = dump;
  const auto& fn = payload::find_function("FUNC_FMA_256_ZEN2");
  return payload::compile_payload(fn.mix, payload::InstructionGroups::parse("REG:2,L1_L:1"),
                                  arch::CacheHierarchy::zen2(), options);
}

/// A payload whose RAM region no allocator can satisfy (2^52 bytes, aligned
/// to 2^53): WorkBuffer construction fails on whichever thread attempts it.
payload::CompiledPayload unallocatable_payload() {
  payload::CompileOptions options;
  options.unroll = 16;
  options.ram_region_bytes = 1ull << 52;
  const auto& fn = payload::find_function("FUNC_FMA_256_ZEN2");
  return payload::compile_payload(fn.mix, payload::InstructionGroups::parse("REG:1,L1_L:1"),
                                  arch::CacheHierarchy::zen2(), options);
}

/// ASan's and TSan's allocators abort on an impossible request instead of
/// returning ENOMEM, so the allocation-failure tests cannot run under them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kAllocatorAbortsOnHugeRequest = true;
#else
constexpr bool kAllocatorAbortsOnHugeRequest = false;
#endif

RunOptions two_workers(double load = 1.0) {
  RunOptions options;
  options.cpus = {-1, -1};  // unpinned: CI containers restrict affinity
  options.load = load;
  return options;
}

TEST(ThreadManager, RunsAndCountsIterations) {
  if (!host_has_fma()) GTEST_SKIP() << "host lacks FMA";
  auto payload = small_payload();
  ThreadManager manager(payload, two_workers());
  EXPECT_EQ(manager.num_workers(), 2u);
  EXPECT_EQ(manager.total_iterations(), 0u);
  manager.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  manager.stop();
  EXPECT_GT(manager.total_iterations(), 1000u);
}

TEST(ThreadManager, StopIsIdempotentAndFast) {
  if (!host_has_fma()) GTEST_SKIP() << "host lacks FMA";
  auto payload = small_payload();
  ThreadManager manager(payload, two_workers());
  manager.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto t0 = std::chrono::steady_clock::now();
  manager.stop();
  manager.stop();
  const double stop_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(stop_s, 1.0);  // chunked execution keeps stop responsive
}

TEST(ThreadManager, StopWithoutStartJoinsCleanly) {
  if (!host_has_fma()) GTEST_SKIP() << "host lacks FMA";
  auto payload = small_payload();
  ThreadManager manager(payload, two_workers());
  manager.stop();
  EXPECT_EQ(manager.total_iterations(), 0u);
}

/// CPU time this process has consumed, all threads.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

TEST(ThreadManager, DutyCycleReducesThroughput) {
  if (!host_has_fma()) GTEST_SKIP() << "host lacks FMA";
  auto payload = small_payload();
  // Busy CPU time, not iterations: idle windows sleep, so the workers' CPU
  // time tracks the duty cycle directly, while the iteration rate also moves
  // with instrumentation, frequency and cache warm-up (the half-load run
  // could out-iterate the full-load one under ASan).
  auto busy_cpu_s = [&](double load) {
    RunOptions options = two_workers(load);
    options.period_s = 0.04;
    ThreadManager manager(payload, options);
    const double cpu0 = process_cpu_s();
    manager.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    manager.stop();
    return process_cpu_s() - cpu0;
  };
  const double full = busy_cpu_s(1.0);
  const double half = busy_cpu_s(0.5);
  // 50 % duty cycle should land well below full load (generous margin for
  // scheduler noise).
  EXPECT_LT(half, full * 0.85);
}

TEST(ThreadManager, ValidatesOptions) {
  if (!host_has_fma()) GTEST_SKIP() << "host lacks FMA";
  auto payload = small_payload();
  RunOptions no_cpus;
  EXPECT_THROW(ThreadManager(payload, no_cpus), Error);
  RunOptions bad_load = two_workers(1.5);
  EXPECT_THROW(ThreadManager(payload, bad_load), Error);
}

TEST(ThreadManager, ConstructorHandsBackReadyBuffers) {
  if (!host_has_fma()) GTEST_SKIP() << "host lacks FMA";
  auto payload = small_payload();
  ThreadManager manager(payload, two_workers());
  // Before start(): every worker's buffer is allocated and seeded.
  for (std::size_t w = 0; w < manager.num_workers(); ++w) {
    const payload::WorkBuffer& buffer = manager.buffer(w);
    const payload::KernelArgs& args = buffer.args();
    const double* regions[] = {args.l1, args.l2, args.l3, args.ram};
    for (int level = 1; level < payload::kNumMemoryLevels; ++level) {
      const std::size_t doubles =
          (buffer.sizes().bytes[level] + buffer.pad_bytes(static_cast<payload::MemoryLevel>(level))) /
          sizeof(double);
      for (std::size_t i = 0; i < doubles; i += doubles / 64 + 1) {
        const double magnitude = std::abs(regions[level - 1][i]);
        EXPECT_TRUE(magnitude >= 1.0 && magnitude < 2.0)
            << "worker " << w << " level " << level << " [" << i << "] = " << magnitude;
      }
      EXPECT_GE(std::abs(regions[level - 1][doubles - 1]), 1.0);
    }
    for (int i = 0; i < 16 * 8; ++i) EXPECT_EQ(buffer.dump()[i], 0.0);
  }
  // Distinct per-worker seeds give distinct operand streams.
  EXPECT_NE(manager.buffer(0).args().l1[0], manager.buffer(1).args().l1[0]);
}

TEST(ThreadManager, WorkerSetupFailureThrowsOnCaller) {
  if (!host_has_fma()) GTEST_SKIP() << "host lacks FMA";
  if (kAllocatorAbortsOnHugeRequest) GTEST_SKIP() << "sanitizer allocator aborts instead";
  auto payload = unallocatable_payload();
  EXPECT_THROW(ThreadManager(payload, two_workers()), Error);
}

TEST(RegisterDump, CaptureAndFormat) {
  if (!host_has_fma()) GTEST_SKIP() << "host lacks FMA";
  auto payload = small_payload(/*dump=*/true);
  ThreadManager manager(payload, two_workers());
  manager.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  manager.stop();
  const RegisterSnapshot snapshot = capture_registers(manager);
  ASSERT_EQ(snapshot.values.size(), 2u);
  EXPECT_EQ(snapshot.values[0].size(), 44u);  // 11 accumulators x 4 lanes
  EXPECT_FALSE(has_invalid_values(snapshot));

  std::ostringstream out;
  write_dump(out, snapshot);
  EXPECT_NE(out.str().find("worker 0:"), std::string::npos);
  EXPECT_NE(out.str().find("ymm10"), std::string::npos);
}

TEST(RegisterDump, DivergenceDetection) {
  RegisterSnapshot a, b;
  a.values = {{1.0, 2.0, 3.0}};
  b.values = {{1.0, 2.5, 3.0}};
  const auto diverging = diverging_values(a, b);
  ASSERT_EQ(diverging.size(), 1u);
  EXPECT_EQ(diverging[0], 1u);
  EXPECT_TRUE(diverging_values(a, a).empty());
}

TEST(RegisterDump, InvalidValueDetection) {
  RegisterSnapshot inf_snapshot;
  inf_snapshot.values = {{1.0, std::numeric_limits<double>::infinity()}};
  EXPECT_TRUE(has_invalid_values(inf_snapshot));
  RegisterSnapshot denormal;
  denormal.values = {{1e-320}};
  EXPECT_TRUE(has_invalid_values(denormal));
  RegisterSnapshot fine;
  fine.values = {{1.5, -2.25, 0.0}};
  EXPECT_FALSE(has_invalid_values(fine));
}

TEST(Selftest, PassesOnHealthyHardware) {
  if (!host_has_fma()) GTEST_SKIP() << "host lacks FMA";
  auto payload = small_payload(/*dump=*/true);
  const SelftestResult result = run_selftest(payload, {-1, -1, -1}, 20000, 7);
  EXPECT_TRUE(result.passed) << result.describe();
  EXPECT_EQ(result.workers, 3u);
  EXPECT_EQ(result.iterations, 20000u);
  EXPECT_TRUE(result.diverging_workers.empty());
  EXPECT_FALSE(result.invalid_values);
  EXPECT_NE(result.describe().find("PASS"), std::string::npos);
}

TEST(Selftest, DeterministicAcrossInvocations) {
  if (!host_has_fma()) GTEST_SKIP() << "host lacks FMA";
  auto payload = small_payload(/*dump=*/true);
  // Two full self-test rounds must agree with themselves and each other.
  EXPECT_TRUE(run_selftest(payload, {-1, -1}, 5000, 3).passed);
  EXPECT_TRUE(run_selftest(payload, {-1, -1}, 5000, 3).passed);
}

TEST(Selftest, ValidatesArguments) {
  if (!host_has_fma()) GTEST_SKIP() << "host lacks FMA";
  auto payload = small_payload(/*dump=*/true);
  EXPECT_THROW(run_selftest(payload, {}, 100, 1), Error);
  EXPECT_THROW(run_selftest(payload, {-1}, 0, 1), Error);
}

TEST(Selftest, RejectsPayloadWithoutDump) {
  if (!host_has_fma()) GTEST_SKIP() << "host lacks FMA";
  auto payload = small_payload(/*dump=*/false);
  EXPECT_THROW(run_selftest(payload, {-1}, 100, 1), Error);
}

TEST(Selftest, WorkerSetupFailureThrowsOnCaller) {
  if (!host_has_fma()) GTEST_SKIP() << "host lacks FMA";
  if (kAllocatorAbortsOnHugeRequest) GTEST_SKIP() << "sanitizer allocator aborts instead";
  auto payload = unallocatable_payload();
  EXPECT_THROW(run_selftest(payload, {-1, -1}, 100, 1), Error);
}

TEST(Selftest, FailureDescriptionNamesWorkers) {
  SelftestResult result;
  result.workers = 4;
  result.iterations = 10;
  result.diverging_workers = {2, 3};
  EXPECT_NE(result.describe().find("2,3"), std::string::npos);
  result.diverging_workers.clear();
  result.invalid_values = true;
  EXPECT_NE(result.describe().find("non-finite"), std::string::npos);
}

TEST(Watchdog, FiresAfterTimeout) {
  Watchdog watchdog;
  std::atomic<bool> fired{false};
  watchdog.arm(std::chrono::milliseconds(30), [&fired] { fired.store(true); });
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_TRUE(fired.load());
  EXPECT_TRUE(watchdog.fired());
}

TEST(Watchdog, CancelPreventsFiring) {
  Watchdog watchdog;
  std::atomic<bool> fired{false};
  watchdog.arm(std::chrono::milliseconds(80), [&fired] { fired.store(true); });
  watchdog.cancel();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_FALSE(fired.load());
  EXPECT_FALSE(watchdog.fired());
}

TEST(Watchdog, RearmReplacesTimer) {
  Watchdog watchdog;
  std::atomic<int> count{0};
  watchdog.arm(std::chrono::milliseconds(20), [&count] { ++count; });
  watchdog.arm(std::chrono::milliseconds(20), [&count] { ++count; });
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(count.load(), 1);  // the first timer was torn down before firing
}

}  // namespace
}  // namespace fs2::kernel
