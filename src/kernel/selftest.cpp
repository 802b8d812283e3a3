#include "kernel/selftest.hpp"

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <thread>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace fs2::kernel {

std::string SelftestResult::describe() const {
  if (passed)
    return strings::format("PASS: %zu workers bit-identical after %llu iterations", workers,
                           static_cast<unsigned long long>(iterations));
  std::string out = "FAIL:";
  if (!diverging_workers.empty()) {
    out += strings::format(" %zu/%zu workers diverged from worker 0 (",
                           diverging_workers.size(), workers);
    for (std::size_t i = 0; i < diverging_workers.size(); ++i)
      out += (i ? "," : "") + std::to_string(diverging_workers[i]);
    out += ")";
  }
  if (invalid_values) out += " non-finite or denormal register values detected";
  return out;
}

SelftestResult run_selftest(const payload::CompiledPayload& payload,
                            const std::vector<int>& cpus, std::uint64_t iterations,
                            std::uint64_t seed) {
  if (cpus.empty()) throw Error("run_selftest: no CPUs given");
  if (iterations == 0) throw Error("run_selftest: iteration count must be positive");

  const std::size_t n = cpus.size();
  std::vector<std::unique_ptr<payload::WorkBuffer>> buffers(n);
  std::vector<std::exception_ptr> errors(n);
  enum Go : int { kWait, kRun, kAbort };
  std::atomic<int> ready{0};
  std::atomic<int> go{kWait};
  std::vector<std::thread> threads;
  threads.reserve(n);
  auto release_and_join = [&](Go how) {
    go.store(how, std::memory_order_release);
    go.notify_all();
    for (auto& thread : threads) thread.join();
  };
  try {
    for (std::size_t i = 0; i < n; ++i) {
      threads.emplace_back([&, i] {
        if (cpus[i] >= 0) {
          cpu_set_t set;
          CPU_ZERO(&set);
          CPU_SET(static_cast<unsigned>(cpus[i]), &set);
          ::pthread_setaffinity_np(::pthread_self(), sizeof set, &set);
        }
        // Each worker sets up its own buffer on its pinned thread, as a
        // stress worker does. Identical seed on purpose: unlike a stress run
        // (where per-worker data maximizes toggling), the self-test needs
        // every worker to compute the same function.
        try {
          buffers[i] = payload.make_buffer();
          buffers[i]->init(payload::DataInitPolicy::kSafe, seed);
        } catch (...) {
          errors[i] = std::current_exception();
        }
        ready.fetch_add(1, std::memory_order_release);
        ready.notify_all();
        go.wait(kWait, std::memory_order_acquire);
        if (go.load(std::memory_order_acquire) == kRun)
          payload.fn()(&buffers[i]->args(), iterations);
      });
    }
  } catch (...) {
    release_and_join(kAbort);
    throw;
  }
  for (int seen; (seen = ready.load(std::memory_order_acquire)) < static_cast<int>(n);)
    ready.wait(seen, std::memory_order_acquire);
  for (const std::exception_ptr& error : errors) {
    if (!error) continue;
    release_and_join(kAbort);
    std::rethrow_exception(error);
  }
  release_and_join(kRun);

  // Compare register dumps bit-exactly against worker 0 and screen for
  // invalid values. The dump area holds 16 x 8 doubles; only the first 11
  // slots (the accumulators) are written.
  const auto lanes = static_cast<std::size_t>(payload.mix().vector_doubles);
  if (buffers[0]->dump()[0] == 0.0 && buffers[0]->dump()[1] == 0.0)
    throw Error("run_selftest: payload was not compiled with dump_registers");

  SelftestResult result;
  result.workers = n;
  result.iterations = iterations;
  for (std::size_t w = 0; w < n; ++w) {
    bool diverged = false;
    for (std::size_t reg = 0; reg < 11; ++reg) {
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const double value = buffers[w]->dump()[reg * 8 + lane];
        if (!std::isfinite(value) ||
            (value != 0.0 && std::fpclassify(value) == FP_SUBNORMAL))
          result.invalid_values = true;
        if (w > 0) {
          std::uint64_t bits_w, bits_0;
          std::memcpy(&bits_w, &buffers[w]->dump()[reg * 8 + lane], sizeof bits_w);
          std::memcpy(&bits_0, &buffers[0]->dump()[reg * 8 + lane], sizeof bits_0);
          if (bits_w != bits_0) diverged = true;
        }
      }
    }
    if (diverged) result.diverging_workers.push_back(w);
  }
  result.passed = result.diverging_workers.empty() && !result.invalid_values;
  return result;
}

}  // namespace fs2::kernel
