#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>

#include "arch/cache.hpp"
#include "payload/sequence.hpp"

namespace fs2::payload {

/// How SIMD operands are initialized (paper Sec. III-D).
enum class DataInitPolicy {
  /// FIRESTARTER 2 behaviour: operands are random non-trivial doubles and
  /// the FMA multiplier alternates sign so accumulators stay bounded —
  /// never 0, never +/-inf, never denormal. Keeps the FMA unit out of the
  /// clock-gated trivial-operand fast path (Hickmann patent, US 9,323,500).
  kSafe,
  /// Reproduction of the v1.7.4 bug: the "negative" multiplier constant is
  /// positive too, so register contents accumulate monotonically and reach
  /// +inf within a few hundred loop iterations, dropping FMA power draw.
  kV174InfinityBug,
};

/// Offsets (in doubles) inside the constants block of a work buffer. Every
/// constant occupies one full 512-bit slot so the same block serves the
/// SSE2 (reads 16 B), AVX (32 B), and AVX-512 (64 B) kernels.
struct ConstLayout {
  static constexpr std::size_t kSlotDoubles = 8;  ///< one 512-bit vector
  static constexpr std::size_t kMultPos = 0;      ///< +x
  static constexpr std::size_t kMultNeg = 8;      ///< -x (or +x in bug mode)
  static constexpr std::size_t kOnes = 16;        ///< 1.0
  static constexpr std::size_t kMulUp = 24;       ///< m = 1 + 2^-30
  static constexpr std::size_t kMulDown = 32;     ///< 1/m (to machine precision)
  static constexpr std::size_t kAccSeeds = 40;    ///< 16 x 8 doubles: accumulator seeds
  static constexpr std::size_t kDoubles = 40 + 16 * 8;
};

/// Argument block handed to a JIT-compiled kernel (see PayloadCompiler for
/// the ABI). Field order is fixed: the generated code addresses these
/// fields by byte offset.
struct KernelArgs {
  double* consts = nullptr;  ///< ConstLayout block
  double* l1 = nullptr;      ///< L1 streaming region (aligned to 2x its size)
  double* l2 = nullptr;
  double* l3 = nullptr;
  double* ram = nullptr;
  double* dump = nullptr;    ///< 16x8 doubles register dump area (may be null)
};

/// Sizes for the four streaming regions. All sizes are powers of two so the
/// generated wrap-around code can mask the cursor with a single AND.
struct RegionSizes {
  std::size_t bytes[kNumMemoryLevels] = {};  ///< indexed by MemoryLevel; [kReg] unused

  /// Derive region sizes from the cache hierarchy:
  ///  - L1 region: half the L1-D cache (stays resident),
  ///  - L2 region: half of L2 (forces L1 misses, stays in L2),
  ///  - L3 region: twice the per-thread L3 share, capped to L3 (forces L2
  ///    misses, mostly L3-resident),
  ///  - RAM region: `ram_bytes` per thread (streams through memory).
  /// Regions a workload does not touch are still given one page so the
  /// kernel ABI stays uniform.
  static RegionSizes from_hierarchy(const arch::CacheHierarchy& caches,
                                    std::size_t ram_bytes = 16ull << 20);

  /// Grow regions so the per-iteration cursor advance of `stats` never
  /// exceeds the region size (required for single-AND wrap-around), and
  /// clamp to a one-page minimum. Idempotent. Both the payload compiler
  /// (emitting the wrap masks) and WorkBuffer (allocating) apply this, so
  /// generated code and buffers always agree.
  RegionSizes finalized(const SequenceStats& stats) const;
};

/// Per-thread working memory of a compiled payload: one constants block,
/// four streaming regions (each aligned to twice its size so the kernel can
/// wrap cursors by masking a single address bit), and a register-dump area.
class WorkBuffer {
 public:
  /// Allocate regions of `sizes`, with enough padding for `stats`' maximum
  /// per-iteration line span. The constants block and the dump area start
  /// zeroed; the streaming regions hold unspecified data (and stay untouched,
  /// so unfaulted) until init(). Regions of 2 MiB and more are advised for
  /// transparent huge pages (madvise MADV_HUGEPAGE; the pad is not). Throws
  /// fs2::Error on allocation failure, releasing whatever was already
  /// allocated.
  WorkBuffer(const RegionSizes& sizes, const SequenceStats& stats);
  WorkBuffer(const WorkBuffer&) = delete;
  WorkBuffer& operator=(const WorkBuffer&) = delete;
  WorkBuffer(WorkBuffer&&) = delete;
  WorkBuffer& operator=(WorkBuffer&&) = delete;

  /// (Re-)initialize all operand data under `policy` with deterministic
  /// values derived from `seed`: the constants block and every byte of each
  /// streaming region's size + pad span. The first call first-touches the
  /// regions' pages from the calling thread.
  void init(DataInitPolicy policy, std::uint64_t seed);

  KernelArgs& args() { return args_; }
  const KernelArgs& args() const { return args_; }
  const RegionSizes& sizes() const { return sizes_; }

  /// Bytes allocated past the end of `level`'s region for the kernel's
  /// furthest read-ahead; init() fills them like the region itself.
  std::size_t pad_bytes(MemoryLevel level) const { return pad_bytes_[static_cast<int>(level)]; }

  /// The register dump area (16 vectors x 8 doubles), written by kernels
  /// compiled with dump support. Narrower kernels fill the first 2 (SSE2)
  /// or 4 (AVX) doubles of each vector slot.
  const double* dump() const { return args_.dump; }

  /// Total allocated bytes (diagnostics).
  std::size_t allocated_bytes() const { return allocated_; }

  /// Region bytes the OS accepted huge-page advice for (diagnostics).
  std::size_t huge_page_advised_bytes() const { return huge_page_advised_; }

 private:
  struct Free {
    void operator()(void* mem) const { std::free(mem); }
  };

  RegionSizes sizes_;
  std::size_t pad_bytes_[kNumMemoryLevels] = {};
  KernelArgs args_;
  std::unique_ptr<void, Free> allocations_[6];
  std::size_t allocated_ = 0;
  std::size_t huge_page_advised_ = 0;
};

}  // namespace fs2::payload
