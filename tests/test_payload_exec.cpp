// Execution tests for compiled payloads: the JIT-generated stress kernels
// actually run on the host CPU. Verifies the kernel ABI, loop accounting,
// operand-safety invariants after millions of iterations (Sec. III-D), the
// v1.7.4 infinity-bug reproduction, and the register-dump feature.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "arch/cpuid.hpp"
#include "payload/compiler.hpp"
#include "payload/data.hpp"
#include "payload/mix.hpp"

namespace fs2::payload {
namespace {

const arch::CacheHierarchy& test_caches() {
  static const arch::CacheHierarchy caches = arch::CacheHierarchy::zen2();
  return caches;
}

bool host_supports(const InstructionMix& mix) {
  return arch::host_identity().features.covers(mix.required);
}

CompileOptions small_options(std::uint32_t unroll = 64) {
  CompileOptions options;
  options.unroll = unroll;
  options.ram_region_bytes = 1 << 20;  // keep test allocations small
  return options;
}

/// Stats of a four-level payload whose L3 (4 MiB on zen2) and RAM (2 MiB)
/// regions are large enough for WorkBuffer's huge-page advice.
PayloadStats huge_region_stats() {
  CompileOptions options = small_options(16);
  options.ram_region_bytes = 2 << 20;
  return analyze_payload(find_function("FUNC_FMA_256_ZEN2").mix,
                         InstructionGroups::parse("RAM_L:1,L3_L:1,L2_L:1,L1_L:1"), test_caches(),
                         options);
}

void fnv1a(std::uint64_t& hash, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) hash = (hash ^ p[i]) * 0x100000001b3ULL;
}

/// `VmFlags` of the /proc/self/smaps mapping that holds `addr` ("" if none).
std::string vm_flags_of(const void* addr) {
  const auto target = reinterpret_cast<std::uintptr_t>(addr);
  std::ifstream smaps("/proc/self/smaps");
  bool inside = false;
  for (std::string line; std::getline(smaps, line);) {
    std::uintptr_t begin = 0, end = 0;
    char dash = 0;
    std::istringstream header(line);
    if (header >> std::hex >> begin >> dash >> end && dash == '-') {
      inside = begin <= target && target < end;
    } else if (inside && line.rfind("VmFlags:", 0) == 0) {
      return line.substr(8) + ' ';
    }
  }
  return "";
}

struct ExecCase {
  const char* mix_name;
  const char* groups;
};

class PayloadExecution : public testing::TestWithParam<ExecCase> {};

TEST_P(PayloadExecution, RunsAndReturnsIterationCount) {
  const auto& fn = find_function(GetParam().mix_name);
  if (!host_supports(fn.mix)) GTEST_SKIP() << "host lacks " << fn.mix.name;
  auto payload = compile_payload(fn.mix, InstructionGroups::parse(GetParam().groups),
                                 test_caches(), small_options());
  auto buffer = payload.make_buffer();
  buffer->init(DataInitPolicy::kSafe, 42);
  EXPECT_EQ(payload.fn()(&buffer->args(), 1000), 1000u);
  EXPECT_EQ(payload.fn()(&buffer->args(), 1), 1u);
  EXPECT_EQ(payload.fn()(&buffer->args(), 0), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    MixAndGroups, PayloadExecution,
    testing::Values(ExecCase{"FUNC_FMA_256_ZEN2", "REG:1"},
                    ExecCase{"FUNC_FMA_256_ZEN2", "REG:4,L1_L:2,L2_L:1"},
                    ExecCase{"FUNC_FMA_256_ZEN2", "L1_LS:1"},
                    ExecCase{"FUNC_FMA_256_ZEN2", "L1_2LS:2,REG:1"},
                    ExecCase{"FUNC_FMA_256_ZEN2", "RAM_L:1,L3_LS:1,L2_LS:2,L1_LS:8,REG:4"},
                    ExecCase{"FUNC_FMA_256_ZEN2", "L3_P:1,RAM_P:1,REG:2"},
                    ExecCase{"FUNC_FMA_256_ZEN2", "L2_S:1,L3_S:1,RAM_S:1,REG:3"},
                    ExecCase{"FUNC_AVX_256", "REG:2,L1_LS:2,L2_L:1"},
                    ExecCase{"FUNC_AVX_256", "RAM_LS:1,L3_L:1,REG:4"},
                    ExecCase{"FUNC_AVX512_512_GENERIC", "REG:1"},
                    ExecCase{"FUNC_AVX512_512_GENERIC", "REG:4,L1_L:2,L2_L:1"},
                    ExecCase{"FUNC_AVX512_512_GENERIC", "RAM_LS:1,L3_P:1,L2_S:2,L1_2LS:4,REG:4"},
                    ExecCase{"FUNC_SSE2_128", "REG:2,L1_LS:2,L2_L:1"},
                    ExecCase{"FUNC_SSE2_128", "RAM_L:1,L3_LS:1,L2_S:1,L1_2LS:2,REG:4"}),
    [](const testing::TestParamInfo<ExecCase>& info) {
      std::string name = std::string(info.param.mix_name) + "_" + info.param.groups;
      for (char& c : name)
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

TEST(PayloadSafety, AccumulatorsStayFiniteAfterMillionsOfSets) {
  const auto& fn = find_function("FUNC_FMA_256_ZEN2");
  if (!host_supports(fn.mix)) GTEST_SKIP() << "host lacks FMA";
  CompileOptions options = small_options(128);
  options.dump_registers = true;
  auto payload = compile_payload(fn.mix, InstructionGroups::parse("REG:4,L1_LS:2,L2_L:1"),
                                 test_caches(), options);
  auto buffer = payload.make_buffer();
  buffer->init(DataInitPolicy::kSafe, 7);

  // 100k iterations x 128 sets x 2 FMA = ~25.6M FMA operations.
  EXPECT_EQ(payload.fn()(&buffer->args(), 100000), 100000u);

  const double* dump = buffer->dump();
  int checked = 0;
  for (int reg = 0; reg < 11; ++reg) {
    for (int lane = 0; lane < 4; ++lane) {
      const double v = dump[reg * 8 + lane];  // 64 B dump slots
      EXPECT_TRUE(std::isfinite(v)) << "reg " << reg << " lane " << lane << " = " << v;
      EXPECT_NE(v, 0.0) << "trivial operand in reg " << reg;
      // No denormals: magnitude stays in a sane band around the seeds.
      EXPECT_GT(std::abs(v), 1e-300);
      EXPECT_LT(std::abs(v), 1e10);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 44);
}

TEST(PayloadSafety, V174BugDrivesRegistersToInfinity) {
  const auto& fn = find_function("FUNC_FMA_256_ZEN2");
  if (!host_supports(fn.mix)) GTEST_SKIP() << "host lacks FMA";
  CompileOptions options = small_options(64);
  options.dump_registers = true;
  auto payload =
      compile_payload(fn.mix, InstructionGroups::parse("REG:1"), test_caches(), options);
  auto buffer = payload.make_buffer();
  buffer->init(DataInitPolicy::kV174InfinityBug, 7);

  EXPECT_EQ(payload.fn()(&buffer->args(), 50000), 50000u);

  // With the buggy constants both FMA multipliers are +2^200, so every
  // accumulator races to +inf — exactly the behaviour Sec. III-D describes.
  const double* dump = buffer->dump();
  int infinities = 0;
  for (int reg = 0; reg < 11; ++reg)
    for (int lane = 0; lane < 4; ++lane)
      if (std::isinf(dump[reg * 8 + lane])) ++infinities;
  EXPECT_EQ(infinities, 11 * 4);
}

TEST(PayloadDump, DumpIsDeterministicAcrossRuns) {
  const auto& fn = find_function("FUNC_FMA_256_ZEN2");
  if (!host_supports(fn.mix)) GTEST_SKIP() << "host lacks FMA";
  CompileOptions options = small_options(32);
  options.dump_registers = true;
  auto payload = compile_payload(fn.mix, InstructionGroups::parse("REG:2,L1_L:1"),
                                 test_caches(), options);

  auto run = [&](std::uint64_t seed) {
    auto buffer = payload.make_buffer();
    buffer->init(DataInitPolicy::kSafe, seed);
    payload.fn()(&buffer->args(), 5000);
    return std::vector<double>(buffer->dump(), buffer->dump() + 11 * 8);
  };

  // Same seed -> bit-identical SIMD results (the check the paper's register
  // flushing enables for overclocked systems); different seed -> different.
  EXPECT_EQ(run(123), run(123));
  EXPECT_NE(run(123), run(124));
}

TEST(PayloadDump, WithoutDumpFlagDumpAreaUntouched) {
  const auto& fn = find_function("FUNC_FMA_256_ZEN2");
  if (!host_supports(fn.mix)) GTEST_SKIP() << "host lacks FMA";
  auto payload = compile_payload(fn.mix, InstructionGroups::parse("REG:1"), test_caches(),
                                 small_options(16));
  auto buffer = payload.make_buffer();
  buffer->init(DataInitPolicy::kSafe, 1);
  payload.fn()(&buffer->args(), 100);
  for (int i = 0; i < 16 * 8; ++i) EXPECT_EQ(buffer->dump()[i], 0.0);
}

TEST(PayloadMemory, StoresActuallyWriteTheRegion) {
  const auto& fn = find_function("FUNC_FMA_256_ZEN2");
  if (!host_supports(fn.mix)) GTEST_SKIP() << "host lacks FMA";
  auto payload = compile_payload(fn.mix, InstructionGroups::parse("L1_S:1"), test_caches(),
                                 small_options(16));
  auto buffer = payload.make_buffer();
  buffer->init(DataInitPolicy::kSafe, 3);
  // Snapshot the first lines of the L1 region, run, and expect changes.
  std::vector<double> before(buffer->args().l1, buffer->args().l1 + 64);
  payload.fn()(&buffer->args(), 10);
  std::vector<double> after(buffer->args().l1, buffer->args().l1 + 64);
  EXPECT_NE(before, after);
}

TEST(PayloadMemory, RegOnlyWorkloadLeavesRegionsUntouched) {
  const auto& fn = find_function("FUNC_FMA_256_ZEN2");
  if (!host_supports(fn.mix)) GTEST_SKIP() << "host lacks FMA";
  auto payload = compile_payload(fn.mix, InstructionGroups::parse("REG:1"), test_caches(),
                                 small_options(16));
  auto buffer = payload.make_buffer();
  buffer->init(DataInitPolicy::kSafe, 3);
  std::vector<double> before(buffer->args().ram, buffer->args().ram + 512);
  payload.fn()(&buffer->args(), 1000);
  std::vector<double> after(buffer->args().ram, buffer->args().ram + 512);
  EXPECT_EQ(before, after);
}

TEST(PayloadMemory, StreamingCursorCoversWholeRegionWithoutFaulting) {
  const auto& fn = find_function("FUNC_FMA_256_ZEN2");
  if (!host_supports(fn.mix)) GTEST_SKIP() << "host lacks FMA";
  // Small RAM region so 10k iterations wrap the cursor many times; any
  // out-of-bounds address arithmetic would fault or corrupt the heap.
  CompileOptions options = small_options(32);
  options.ram_region_bytes = 64 * 1024;
  auto payload = compile_payload(fn.mix, InstructionGroups::parse("RAM_LS:1,REG:1"),
                                 test_caches(), options);
  auto buffer = payload.make_buffer();
  buffer->init(DataInitPolicy::kSafe, 11);
  EXPECT_EQ(payload.fn()(&buffer->args(), 10000), 10000u);
}

TEST(PayloadBuffer, AllocationsAlignedToTwiceRegionSize) {
  const auto& fn = find_function("FUNC_FMA_256_ZEN2");
  auto stats = analyze_payload(fn.mix, InstructionGroups::parse("L1_L:1,L2_L:1"), test_caches(),
                               small_options(16));
  WorkBuffer buffer(stats.regions, stats.sequence);
  const auto l1_size = stats.regions.bytes[static_cast<int>(MemoryLevel::kL1)];
  const auto l2_size = stats.regions.bytes[static_cast<int>(MemoryLevel::kL2)];
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buffer.args().l1) % (2 * l1_size), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buffer.args().l2) % (2 * l2_size), 0u);
}

TEST(PayloadBuffer, InitIsDeterministic) {
  const auto& fn = find_function("FUNC_FMA_256_ZEN2");
  auto stats = analyze_payload(fn.mix, InstructionGroups::parse("L1_L:1"), test_caches(),
                               small_options(16));
  WorkBuffer a(stats.regions, stats.sequence);
  WorkBuffer b(stats.regions, stats.sequence);
  a.init(DataInitPolicy::kSafe, 5);
  b.init(DataInitPolicy::kSafe, 5);
  const auto n = stats.regions.bytes[static_cast<int>(MemoryLevel::kL1)] / sizeof(double);
  for (std::size_t i = 0; i < n; i += 97) EXPECT_EQ(a.args().l1[i], b.args().l1[i]);
}

TEST(PayloadBuffer, SafeInitHasNoTrivialOperands) {
  const auto& fn = find_function("FUNC_FMA_256_ZEN2");
  auto stats = analyze_payload(fn.mix, InstructionGroups::parse("L1_L:1"), test_caches(),
                               small_options(16));
  WorkBuffer buffer(stats.regions, stats.sequence);
  buffer.init(DataInitPolicy::kSafe, 5);
  const double* consts = buffer.args().consts;
  for (std::size_t i = 0; i < ConstLayout::kDoubles; ++i) {
    EXPECT_TRUE(std::isfinite(consts[i]));
  }
  // The multiplier toggles are non-zero and of opposite sign.
  EXPECT_GT(consts[ConstLayout::kMultPos], 0.0);
  EXPECT_LT(consts[ConstLayout::kMultNeg], 0.0);
  EXPECT_DOUBLE_EQ(consts[ConstLayout::kMultPos], -consts[ConstLayout::kMultNeg]);
  // m and 1/m are non-trivial (not exactly 1.0).
  EXPECT_NE(consts[ConstLayout::kMulUp], 1.0);
  EXPECT_NE(consts[ConstLayout::kMulDown], 1.0);
}

TEST(PayloadBuffer, InitWritesWholeRegionSpan) {
  // The streaming regions are allocated unzeroed, so init() alone must cover
  // every byte the kernel can read: each region plus its read-ahead pad.
  const auto& fn = find_function("FUNC_FMA_256_ZEN2");
  auto stats = analyze_payload(fn.mix, InstructionGroups::parse("RAM_L:1,L3_L:1,L2_L:1,L1_L:1"),
                               test_caches(), small_options(16));
  WorkBuffer buffer(stats.regions, stats.sequence);
  double* regions[] = {buffer.args().l1, buffer.args().l2, buffer.args().l3, buffer.args().ram};
  std::size_t spans[kNumMemoryLevels] = {};
  for (int level = 1; level < kNumMemoryLevels; ++level) {
    const auto ml = static_cast<MemoryLevel>(level);
    EXPECT_GT(buffer.pad_bytes(ml), 0u);
    spans[level] = (buffer.sizes().bytes[level] + buffer.pad_bytes(ml)) / sizeof(double);
    // Poison first, so a byte init() skips fails whatever the allocator left.
    std::fill_n(regions[level - 1], spans[level], std::nan(""));
  }
  buffer.init(DataInitPolicy::kSafe, 9);
  for (int level = 1; level < kNumMemoryLevels; ++level) {
    const double* region = regions[level - 1];
    std::size_t bad = 0;
    for (std::size_t i = 0; i < spans[level]; ++i) {
      const double sign = (i / 8) % 2 == 0 ? 1.0 : -1.0;
      const double magnitude = sign * region[i];
      if (!(magnitude >= 1.0 && magnitude < 2.0)) ++bad;
    }
    EXPECT_EQ(bad, 0u) << "level " << level << ": " << spans[level] << " doubles";
  }
}

TEST(PayloadBuffer, InitMatchesGoldenHash) {
  // Pins the operand bytes themselves, not just their repeatability: any
  // change to the values, their order or the span init() writes moves the
  // FNV-1a hash of the constants block and every region's size + pad span.
  // The regions are large enough to take the huge-page advice, which must
  // leave the contents alone.
  const auto stats = huge_region_stats();
  WorkBuffer buffer(stats.regions, stats.sequence);
  ASSERT_GE(buffer.sizes().bytes[static_cast<int>(MemoryLevel::kL3)], 2u << 20);
  ASSERT_GE(buffer.sizes().bytes[static_cast<int>(MemoryLevel::kRam)], 2u << 20);
  buffer.init(DataInitPolicy::kSafe, 0x5eed);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  fnv1a(hash, buffer.args().consts, ConstLayout::kDoubles * sizeof(double));
  const double* regions[] = {buffer.args().l1, buffer.args().l2, buffer.args().l3,
                             buffer.args().ram};
  for (int level = 1; level < kNumMemoryLevels; ++level)
    fnv1a(hash, regions[level - 1],
          buffer.sizes().bytes[level] + buffer.pad_bytes(static_cast<MemoryLevel>(level)));
  EXPECT_EQ(hash, 0xd836d9eb1f538dc1ULL) << std::hex << "hash 0x" << hash;
}

TEST(PayloadBuffer, LargeRegionsCarryHugePageAdvice) {
  // Checks the advice (the VMA flag), not AnonHugePages: whether the kernel
  // actually backs the range with huge pages depends on fragmentation.
  if (!std::filesystem::exists("/sys/kernel/mm/transparent_hugepage/enabled"))
    GTEST_SKIP() << "kernel without transparent huge pages";
  const auto stats = huge_region_stats();
  WorkBuffer buffer(stats.regions, stats.sequence);
  EXPECT_NE(vm_flags_of(buffer.args().l3).find(" hg "), std::string::npos)
      << vm_flags_of(buffer.args().l3);
  EXPECT_NE(vm_flags_of(buffer.args().ram).find(" hg "), std::string::npos)
      << vm_flags_of(buffer.args().ram);
  const std::string l1_flags = vm_flags_of(buffer.args().l1);
  ASSERT_FALSE(l1_flags.empty());
  EXPECT_EQ(l1_flags.find(" hg "), std::string::npos) << l1_flags;
}

}  // namespace
}  // namespace fs2::payload
