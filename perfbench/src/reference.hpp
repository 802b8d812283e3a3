#pragma once

// Reference loops: fixed code owned by the benchmark, independent of the fs2
// sources, that measure how fast this host runs right now.
//
// On a shared host the CPU time a fixed piece of work needs drifts with
// clock speed, hyperthread siblings and neighbours' cache and memory
// traffic, by 2x between runs minutes apart. Every workload therefore
// interleaves short slices of a reference loop with its own work, on the
// same thread or CPU, and reports work per reference-second: CPU time
// rescaled by the reference's speed at that moment. Host drift moves the
// workload and the reference alike and cancels; a change to fs2's code
// moves only the workload.

#include <vector>

namespace fs2::perfbench {

/// Which fixed loop stands in for a workload's instruction mix.
enum class Reference {
  /// A fixed stress loop in the style of the kernels fs2 generates: 512-bit
  /// FMA groups on registers and on L1, L2, L3 and RAM lines in the host
  /// kernel's default mix and code size (256-bit where the CPU lacks
  /// AVX-512).
  kVector,
  /// Scalar integer and floating-point work with table lookups and
  /// data-dependent branches, like tuning over the simulator.
  kScalar,
  /// Pipe write/read round trips plus scalar work, like the loopback
  /// fleet's mix of socket calls and message handling.
  kSyscall,
};

/// Run `ref` on the calling thread for about `cpu_s` of its CPU time and
/// return the host's speed: the loop's rate over its nominal rate (its
/// rate on the reference host in a quiet hour, so about 1 there). Work
/// per reference-second is work per CPU-second divided by the speed.
double host_speed(Reference ref, double cpu_s);

/// Median of `values` (0 for none).
double median(std::vector<double> values);

}  // namespace fs2::perfbench
