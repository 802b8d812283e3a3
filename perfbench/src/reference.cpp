#include "reference.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "util/error.hpp"

namespace fs2::perfbench {

namespace {

// Nominal rates (operations per CPU-second) of each loop on the reference
// host, a 4-vCPU "Intel(R) Xeon(R) Processor" KVM guest with AVX-512, read
// next to the workloads in a quiet hour. They only scale the figures; any
// fixed value would do.
constexpr double kVectorNominal = 5.5e5;
constexpr double kScalarNominal = 7.0e7;
constexpr double kSyscallNominal = 2.1e5;

/// Operations between CPU-clock reads: about 10-50 us each.
constexpr std::uint64_t kVectorChunk = 8;
constexpr std::uint64_t kScalarChunk = 4096;
constexpr std::uint64_t kSyscallChunk = 16;

volatile double g_sink = 0.0;

// ---- vector loop -----------------------------------------------------------
//
// A fixed stress loop in the style of the kernels fs2 generates, written
// out here so that it never changes with fs2's code generator: 1000
// instruction groups per iteration (about 24 KiB of code, like the host
// kernel), each one or two multiply-adds on 11 rotating accumulators plus
// two integer ops, in the default group mix of the AVX-512 and FMA
// functions. An iteration is one operation.

enum Group : int { kReg, kL1, kL2, kL3, kRam };
constexpr int kGroupCounts[] = {25, 45, 6, 2, 2};  // REG, L1_LS, L2_LS, L3_LS, RAM_L
constexpr int kGroupsPerRound = 80;
constexpr int kGroupsPerIteration = 1000;
constexpr int kAccumulators = 11;

/// Each group kind spread evenly over one round of 80, repeated.
constexpr std::array<int, kGroupsPerIteration> make_sequence() {
  std::array<int, kGroupsPerIteration> sequence{};
  int used[5] = {};
  for (int slot = 0; slot < kGroupsPerRound; ++slot) {
    int best = 0;
    long best_lag = 0;
    for (int g = 0; g < 5; ++g) {
      const long lag = static_cast<long>(kGroupCounts[g]) * (2 * slot + 1) -
                       static_cast<long>(used[g]) * 2 * kGroupsPerRound;
      if (g == 0 || lag > best_lag) best = g, best_lag = lag;
    }
    sequence[slot] = best;
    ++used[best];
  }
  for (int slot = kGroupsPerRound; slot < kGroupsPerIteration; ++slot)
    sequence[slot] = sequence[slot % kGroupsPerRound];
  return sequence;
}
constexpr std::array<int, kGroupsPerIteration> kSequence = make_sequence();

/// How many groups of group I's kind come before it in the iteration: its
/// position in that kind's stream of lines.
template <int I>
constexpr std::size_t kOrdinal = [] {
  std::size_t n = 0;
  for (int i = 0; i < I; ++i) n += kSequence[i] == kSequence[I];
  return n;
}();

/// Groups of one kind per iteration.
constexpr std::size_t groups_of(int kind) {
  std::size_t n = 0;
  for (const int g : kSequence) n += g == kind;
  return n;
}

/// Memory regions in 64-byte lines, sized like the host kernel's on the
/// reference host: half of L1 and of L2, far more than a core's share of
/// L3, and the compiler's 16 MiB RAM default. Each kind of group walks its
/// region line by line; L1 wraps within the iteration, the others stream.
constexpr std::size_t kL1Lines = 512;       // 32 KiB
constexpr std::size_t kL2Lines = 16384;     // 1 MiB
constexpr std::size_t kL3Lines = 1 << 21;   // 128 MiB
constexpr std::size_t kRamLines = 1 << 18;  // 16 MiB

struct Line {
  alignas(64) double d[8];
};

struct Lines {
  std::vector<Line> l1 = std::vector<Line>(kL1Lines);
  std::vector<Line> l2 = std::vector<Line>(kL2Lines);
  std::vector<Line> l3 = std::vector<Line>(kL3Lines);
  std::vector<Line> ram = std::vector<Line>(kRamLines);
  std::size_t p2 = 0, p3 = 0, pram = 0;  // stream cursors, in lines
};

Lines& lines() {
  thread_local Lines regions;
  return regions;
}

/// Vector registers: accumulators 0-10, +x in 12, -x in 13, 1.0 in 14. The
/// asm below names them directly, as generated code does, so the compiler
/// neither spills nor copies them; every statement lists them as clobbered
/// so it keeps nothing of its own there.
#define FS2_VREGS                                                                        \
  "xmm0", "xmm1", "xmm2", "xmm3", "xmm4", "xmm5", "xmm6", "xmm7", "xmm8", "xmm9", "xmm10", \
      "xmm12", "xmm13", "xmm14"

/// Group I of an iteration, on zmm (kZmm) or ymm registers. `l1` is the L1
/// region, the others point at this iteration's place in their stream.
template <int I, bool kZmm>
[[gnu::always_inline]] inline void group(char* l1, char* l2, char* l3, const char* ram,
                                         std::uint64_t& rdx, std::uint64_t& r11,
                                         std::uint64_t rsi) {
  constexpr int kind = kSequence[I];
  constexpr int a1 = I % kAccumulators, a2 = (I + 5) % kAccumulators;
  constexpr int mul = I % 2 == 0 ? 12 : 13, mul_opp = 25 - mul;
  if constexpr (kind == kReg) {
    if constexpr (kZmm)
      asm volatile("vfmadd231pd %%zmm%c2, %%zmm14, %%zmm%c0\n\tvfmadd231pd %%zmm%c3, %%zmm14, %%zmm%c1"
                   :: "i"(a1), "i"(a2), "i"(mul), "i"(mul_opp) : FS2_VREGS);
    else
      asm volatile("vfmadd231pd %%ymm%c2, %%ymm14, %%ymm%c0\n\tvfmadd231pd %%ymm%c3, %%ymm14, %%ymm%c1"
                   :: "i"(a1), "i"(a2), "i"(mul), "i"(mul_opp) : FS2_VREGS);
  } else if constexpr (kind == kRam) {
    constexpr std::size_t load = kOrdinal<I> * 64;
    if constexpr (kZmm)
      asm volatile("vfmadd231pd %c4(%5), %%zmm%c2, %%zmm%c0\n\tvfmadd231pd %%zmm%c3, %%zmm14, %%zmm%c1"
                   :: "i"(a1), "i"(a2), "i"(mul), "i"(mul_opp), "i"(load), "r"(ram) : FS2_VREGS);
    else
      asm volatile("vfmadd231pd %c4(%5), %%ymm%c2, %%ymm%c0\n\tvfmadd231pd %%ymm%c3, %%ymm14, %%ymm%c1"
                   :: "i"(a1), "i"(a2), "i"(mul), "i"(mul_opp), "i"(load), "r"(ram) : FS2_VREGS);
  } else {
    char* base = kind == kL1 ? l1 : kind == kL2 ? l2 : l3;
    constexpr std::size_t load = (kind == kL1 ? (2 * kOrdinal<I>) % kL1Lines : 2 * kOrdinal<I>) * 64;
    constexpr std::size_t store = load + 64;
    if constexpr (kZmm)
      asm volatile("vfmadd231pd %c3(%5), %%zmm%c2, %%zmm%c0\n\tvmovapd %%zmm%c1, %c4(%5)"
                   :: "i"(a1), "i"(a2), "i"(mul), "i"(load), "i"(store), "r"(base)
                   : FS2_VREGS, "memory");
    else
      asm volatile("vfmadd231pd %c3(%5), %%ymm%c2, %%ymm%c0\n\tvmovapd %%ymm%c1, %c4(%5)"
                   :: "i"(a1), "i"(a2), "i"(mul), "i"(load), "i"(store), "r"(base)
                   : FS2_VREGS, "memory");
  }
  // Integer filler, as in the generated kernels: xor and a shift that
  // alternates direction.
  if constexpr (I % 2 == 0) asm volatile("xor %2, %0\n\tshl $1, %1" : "+r"(rdx), "+r"(r11) : "r"(rsi));
  else asm volatile("xor %2, %0\n\tshr $1, %1" : "+r"(rdx), "+r"(r11) : "r"(rsi));
}

template <bool kZmm, std::size_t... I>
[[gnu::always_inline]] inline void groups(std::index_sequence<I...>, char* l1, char* l2, char* l3,
                                          const char* ram, std::uint64_t& rdx, std::uint64_t& r11,
                                          std::uint64_t rsi) {
  (group<static_cast<int>(I), kZmm>(l1, l2, l3, ram, rdx, r11, rsi), ...);
}

constexpr double kConstants[3][8] = {
    {1e-9, 1e-9, 1e-9, 1e-9, 1e-9, 1e-9, 1e-9, 1e-9},
    {-1e-9, -1e-9, -1e-9, -1e-9, -1e-9, -1e-9, -1e-9, -1e-9},
    {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0}};

template <bool kZmm>
[[gnu::always_inline]] inline void vector_iterations(std::uint64_t iterations) {
  Lines& m = lines();
  if constexpr (kZmm)
    asm volatile(
        "vmovupd (%0), %%zmm12\n\tvmovupd 64(%0), %%zmm13\n\tvmovupd 128(%0), %%zmm14\n\t"
        "vmovapd %%zmm14, %%zmm0\n\tvmovapd %%zmm14, %%zmm1\n\tvmovapd %%zmm14, %%zmm2\n\t"
        "vmovapd %%zmm14, %%zmm3\n\tvmovapd %%zmm14, %%zmm4\n\tvmovapd %%zmm14, %%zmm5\n\t"
        "vmovapd %%zmm14, %%zmm6\n\tvmovapd %%zmm14, %%zmm7\n\tvmovapd %%zmm14, %%zmm8\n\t"
        "vmovapd %%zmm14, %%zmm9\n\tvmovapd %%zmm14, %%zmm10"
        :: "r"(kConstants) : FS2_VREGS);
  else
    asm volatile(
        "vmovupd (%0), %%ymm12\n\tvmovupd 64(%0), %%ymm13\n\tvmovupd 128(%0), %%ymm14\n\t"
        "vmovapd %%ymm14, %%ymm0\n\tvmovapd %%ymm14, %%ymm1\n\tvmovapd %%ymm14, %%ymm2\n\t"
        "vmovapd %%ymm14, %%ymm3\n\tvmovapd %%ymm14, %%ymm4\n\tvmovapd %%ymm14, %%ymm5\n\t"
        "vmovapd %%ymm14, %%ymm6\n\tvmovapd %%ymm14, %%ymm7\n\tvmovapd %%ymm14, %%ymm8\n\t"
        "vmovapd %%ymm14, %%ymm9\n\tvmovapd %%ymm14, %%ymm10"
        :: "r"(kConstants) : FS2_VREGS);
  std::uint64_t rdx = 0x5555555555555555ULL, r11 = 0xaaaaaaaaaaaaaaaaULL;
  const std::uint64_t rsi = ~0ULL;
  constexpr std::size_t kL2Stream = 2 * groups_of(kL2), kL3Stream = 2 * groups_of(kL3);
  constexpr std::size_t kRamStream = groups_of(kRam);
  for (std::uint64_t it = 0; it < iterations; ++it) {
    groups<kZmm>(std::make_index_sequence<kGroupsPerIteration>{},
                 reinterpret_cast<char*>(m.l1.data()), reinterpret_cast<char*>(&m.l2[m.p2]),
                 reinterpret_cast<char*>(&m.l3[m.p3]), reinterpret_cast<const char*>(&m.ram[m.pram]),
                 rdx, r11, rsi);
    m.p2 = (m.p2 + kL2Stream) % (kL2Lines - kL2Stream);
    m.p3 = (m.p3 + kL3Stream) % (kL3Lines - kL3Stream);
    m.pram = (m.pram + kRamStream) % (kRamLines - kRamStream);
  }
  g_sink = static_cast<double>(rdx ^ r11);
  asm volatile("vzeroupper" ::: FS2_VREGS);
}

#undef FS2_VREGS

__attribute__((target("avx512f"))) void vector_avx512(std::uint64_t iterations) {
  vector_iterations<true>(iterations);
}
__attribute__((target("avx2,fma"))) void vector_avx2(std::uint64_t iterations) {
  vector_iterations<false>(iterations);
}

void vector_loop(std::uint64_t iterations) {
  static const bool avx512 = __builtin_cpu_supports("avx512f");
  static const bool fma = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (avx512) vector_avx512(iterations);
  else if (fma) vector_avx2(iterations);
  else throw Error("the vector reference loop needs AVX2 and FMA");
}

// ---- scalar and syscall loops ----------------------------------------------

/// Scalar loop, one operation per step: an xorshift step, a lookup in a
/// 64 KiB table, a branch on a random bit; every 256 steps a sort of 32
/// table entries.
void scalar_loop(std::uint64_t steps) {
  thread_local std::vector<double> table = [] {
    std::vector<double> t(8192);
    for (std::size_t i = 0; i < t.size(); ++i) t[i] = 1.0 + static_cast<double>(i % 97) * 1e-3;
    return t;
  }();
  thread_local std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  double acc = 0.0;
  for (std::uint64_t i = 0; i < steps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double v = table[x & (table.size() - 1)];
    if (x & 0x100) acc = acc * 0.5 + v;
    else acc -= v * 1e-3;
    if ((i & 255) == 255) {
      double few[32];
      for (int k = 0; k < 32; ++k) few[k] = table[(x >> k) & (table.size() - 1)];
      std::sort(few, few + 32);
      acc += few[16];
    }
  }
  g_sink = acc;
}

/// A pipe the calling thread writes to and reads back from.
class Pipe {
 public:
  Pipe() {
    if (::pipe(fds_) != 0) throw Error("pipe() failed");
  }
  ~Pipe() {
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;
  void round_trip() {
    char buf[64];
    std::memset(buf, 0x5a, sizeof buf);
    if (::write(fds_[1], buf, sizeof buf) != static_cast<ssize_t>(sizeof buf) ||
        ::read(fds_[0], buf, sizeof buf) != static_cast<ssize_t>(sizeof buf))
      throw Error("reference pipe round trip failed");
  }

 private:
  int fds_[2] = {-1, -1};
};

/// Syscall loop, one operation per 64-byte pipe round trip plus 256 scalar
/// steps.
void syscall_loop(std::uint64_t ops) {
  thread_local Pipe pipe;
  for (std::uint64_t i = 0; i < ops; ++i) {
    pipe.round_trip();
    scalar_loop(256);
  }
}

}  // namespace

double host_speed(Reference ref, double cpu_s) {
  void (*loop)(std::uint64_t) = nullptr;
  std::uint64_t chunk = 0;
  double nominal = 0.0;
  switch (ref) {
    case Reference::kVector: loop = vector_loop, chunk = kVectorChunk, nominal = kVectorNominal; break;
    case Reference::kScalar: loop = scalar_loop, chunk = kScalarChunk, nominal = kScalarNominal; break;
    case Reference::kSyscall: loop = syscall_loop, chunk = kSyscallChunk, nominal = kSyscallNominal; break;
  }
  loop(chunk);  // warm caches and (on first use) the loop's buffers, untimed
  const double t0 = thread_cpu_s();
  double t = t0;
  std::uint64_t ops = 0;
  do {
    loop(chunk);
    ops += chunk;
    t = thread_cpu_s();
  } while (t - t0 < cpu_s);
  return static_cast<double>(ops) / (t - t0) / nominal;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid), values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  return (upper + *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid))) / 2.0;
}

}  // namespace fs2::perfbench
