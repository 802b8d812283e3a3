#include "kernel/thread_manager.hpp"

#include <pthread.h>
#include <sched.h>

#include <chrono>
#include <string>

#include "metrics/sysfs.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace fs2::kernel {

namespace {

void pin_to_cpu(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  if (::pthread_setaffinity_np(::pthread_self(), sizeof set, &set) != 0)
    log::warn() << "failed to pin worker to CPU " << cpu << " (continuing unpinned)";
}

/// The host's transparent-huge-page mode: the bracketed word of the sysfs
/// setting ("always", "madvise" or "never"), or "unavailable" without THP.
std::string transparent_huge_page_mode() {
  const std::string setting =
      metrics::read_sysfs_line("/sys/kernel/mm/transparent_hugepage/enabled");
  const auto open = setting.find('[');
  const auto close = setting.find(']', open);
  if (open == std::string::npos || close == std::string::npos) return "unavailable";
  return setting.substr(open + 1, close - open - 1);
}

}  // namespace

ThreadManager::ThreadManager(const payload::CompiledPayload& payload, RunOptions options)
    : payload_(payload), options_(std::move(options)) {
  if (options_.cpus.empty()) throw Error("ThreadManager: no CPUs to run on");
  if (!(options_.load >= 0.0 && options_.load <= 1.0))
    throw Error("ThreadManager: load must be within [0, 1]");
  if (!(options_.period_s > 0.0)) throw Error("ThreadManager: period must be > 0");
  if (!(options_.phase_offset_s >= 0.0))
    throw Error("ThreadManager: phase offset must be >= 0");
  profile_ = options_.profile ? options_.profile
                              : std::make_shared<sched::ConstantProfile>(options_.load);
  const std::size_t n = options_.cpus.size();
  buffers_.resize(n);  // each worker fills its own slot
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) workers_.push_back(std::make_unique<Worker>());
  try {
    for (std::size_t i = 0; i < n; ++i)
      workers_[i]->thread = std::thread(&ThreadManager::worker_main, this, i, options_.cpus[i]);
  } catch (...) {
    stop();  // join the workers already spawned before the members go away
    throw;
  }
  // Wait until every worker set up its operand buffer so start() hits all
  // of them simultaneously (no staggered power ramp). Blocking, not
  // spinning: the set-up takes long enough that a spinning caller would
  // steal time from a worker sharing its CPU.
  for (int ready; (ready = ready_count_.load(std::memory_order_acquire)) < static_cast<int>(n);)
    ready_count_.wait(ready, std::memory_order_acquire);
  for (const auto& worker : workers_) {
    if (!worker->setup_error) continue;
    stop();
    std::rethrow_exception(worker->setup_error);
  }
  // Set-up time is dominated by first-touch page faults, so say how the
  // buffers are backed: a slow set-up under THP "never" explains itself.
  const payload::RegionSizes& sizes = buffers_.front()->sizes();
  std::size_t advised = 0;
  for (const auto& buffer : buffers_) advised += buffer->huge_page_advised_bytes();
  using payload::MemoryLevel;
  log::debug() << "kernel: worker buffers " << log::kv("workers", n) << ' '
               << log::kv("l1_bytes", sizes.bytes[static_cast<int>(MemoryLevel::kL1)]) << ' '
               << log::kv("l2_bytes", sizes.bytes[static_cast<int>(MemoryLevel::kL2)]) << ' '
               << log::kv("l3_bytes", sizes.bytes[static_cast<int>(MemoryLevel::kL3)]) << ' '
               << log::kv("ram_bytes", sizes.bytes[static_cast<int>(MemoryLevel::kRam)]) << ' '
               << log::kv("huge_page_advised_bytes", advised) << ' '
               << log::kv("thp", transparent_huge_page_mode());
}

ThreadManager::~ThreadManager() { stop(); }

void ThreadManager::start() {
  // Anchor the shared epoch immediately before release: the release-store /
  // acquire-load pair on started_ publishes the fresh epoch to every worker,
  // so all modulation windows are counted from the same instant. A cluster
  // run injects the coordinator-agreed epoch instead, aligning windows
  // across machines as well as across workers.
  if (options_.epoch) clock_.restart_at(*options_.epoch);
  else clock_.restart();
  started_.store(true, std::memory_order_release);
  started_.notify_all();
}

void ThreadManager::stop() {
  if (stopped_.exchange(true)) return;
  stop_flag_.store(true, std::memory_order_release);
  started_.store(true, std::memory_order_release);  // unblock workers never started
  started_.notify_all();
  for (auto& worker : workers_)
    if (worker->thread.joinable()) worker->thread.join();
}

std::uint64_t ThreadManager::total_iterations() const {
  std::uint64_t total = 0;
  for (const auto& worker : workers_) total += worker->iterations.load(std::memory_order_relaxed);
  return total;
}

void ThreadManager::worker_main(std::size_t index, int cpu) {
  pin_to_cpu(cpu);
  Worker& self = *workers_[index];
  // Allocate and fill on the pinned thread: the worker first-touches its own
  // pages, and all workers set up in parallel. A failure is handed to the
  // constructor, which rethrows it on the caller's thread.
  try {
    buffers_[index] = payload_.make_buffer();
    // Distinct seed per worker: identical operand streams across cores would
    // underestimate data-toggle power on a real machine.
    buffers_[index]->init(options_.policy, options_.seed + index * 0x9e3779b97f4a7c15ULL);
  } catch (...) {
    self.setup_error = std::current_exception();
  }
  ready_count_.fetch_add(1, std::memory_order_release);
  ready_count_.notify_all();
  if (self.setup_error) return;

  // Block, not spin: a worker burning its CPU between construction and
  // start() would draw power before the measured phase begins.
  started_.wait(false, std::memory_order_acquire);

  const payload::KernelFn kernel = payload_.fn();
  payload::WorkBuffer& buffer = *buffers_[index];
  const sched::LoadProfile& profile = *profile_;
  const double period = options_.period_s;
  // Rotating-load shift: worker i samples the profile `i * offset` into the
  // future, staggering the pattern across workers.
  const double offset = options_.phase_offset_s * static_cast<double>(index);
  const bool full_load = profile.constant() && profile.load_at(0.0) >= 1.0;
  const bool live = profile.live();

  // Clamped profile sample for the window starting at `w`.
  auto sampled_load = [&profile](double w) {
    return std::min(std::max(profile.load_at(w), 0.0), 1.0);
  };

  // Chunk size adapts so one kernel call lasts roughly 5 ms: long enough to
  // amortize the call, short enough for responsive stop and load control.
  std::uint64_t chunk = 64;
  constexpr double kTargetChunkSeconds = 0.005;

  auto run_chunk = [&] {
    const double t0 = clock_.elapsed();
    const std::uint64_t done = kernel(&buffer.args(), chunk);
    self.iterations.fetch_add(done, std::memory_order_relaxed);
    const double elapsed = clock_.elapsed() - t0;
    if (elapsed > 0.0) {
      const double scale = kTargetChunkSeconds / elapsed;
      if (scale > 2.0 && chunk < (1ull << 24)) chunk *= 2;
      else if (scale < 0.5 && chunk > 16) chunk /= 2;
    }
  };

  while (!stop_flag_.load(std::memory_order_acquire)) {
    if (full_load) {  // hot path: no windowing arithmetic at 100 % load
      run_chunk();
      continue;
    }
    // All workers carve time into the same windows relative to the shared
    // epoch: window k spans [k*period, (k+1)*period) and is busy for its
    // first load_at(window start) fraction. Deriving both boundaries from
    // the epoch (not from per-worker clock reads) keeps the workers'
    // low/high phases aligned no matter how long the run lasts.
    const double t = clock_.elapsed() + offset;
    const double window = sched::PhaseClock::window_start(t, period);
    const double load = sampled_load(window);
    double busy_until = window + load * period;
    const double idle_until = window + period;
    if (load > 0.0) {
      do {
        run_chunk();
        if (stop_flag_.load(std::memory_order_acquire)) return;
        // Live profiles (the closed-loop controller) can lower the command
        // mid-window; shrink the busy span so the actuation latency is one
        // kernel chunk (~5 ms), not a whole modulation window.
        if (live) busy_until = window + sampled_load(window) * period;
      } while (clock_.elapsed() + offset < busy_until);
    }
    while (!stop_flag_.load(std::memory_order_acquire) &&
           clock_.elapsed() + offset < idle_until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      // Symmetric live actuation: a raised command must cut the idle span
      // short the same way a lowered one shrinks the busy span — otherwise
      // raising the level would wait out the window (up to a full period)
      // and the controller would see direction-dependent lag.
      if (live &&
          clock_.elapsed() + offset < window + sampled_load(window) * period)
        break;
    }
  }
}

}  // namespace fs2::kernel
