// Tests for the SFI sandbox substrate: memory policies, MD5 (RFC 1321),
// the hotlist and log-structured-disk workloads, and the harness.
//
// Timing-based overhead percentages are asserted only loosely (this is a
// shared machine); the deterministic invariants — equal digests across
// policies, exact check counts, violations thrown — are asserted exactly.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sfi/harness.hpp"
#include "sfi/hotlist.hpp"
#include "sfi/lld.hpp"
#include "sfi/md5.hpp"
#include "sfi/sandbox.hpp"

namespace gridtrust::sfi {
namespace {

// ---------------------------------------------------------------- sandbox

template <typename T>
class MemoryPolicyTest : public ::testing::Test {};

using Policies = ::testing::Types<NativeMemory, MisfitMemory, SasiMemory>;
TYPED_TEST_SUITE(MemoryPolicyTest, Policies);

TYPED_TEST(MemoryPolicyTest, ByteRoundTrip) {
  TypeParam heap(64);
  heap.store8(3, 0xab);
  EXPECT_EQ(heap.load8(3), 0xab);
  EXPECT_EQ(heap.load8(4), 0x00);
  EXPECT_EQ(heap.size(), 64u);
}

TYPED_TEST(MemoryPolicyTest, WordRoundTrip) {
  TypeParam heap(64);
  heap.store32(8, 0xdeadbeefu);
  EXPECT_EQ(heap.load32(8), 0xdeadbeefu);
  // Little-endian byte view.
  EXPECT_EQ(heap.load8(8), 0xef);
  EXPECT_EQ(heap.load8(11), 0xde);
}

TEST(MisfitMemory, ThrowsOnOutOfBounds) {
  MisfitMemory heap(16);
  EXPECT_THROW(heap.load8(16), SandboxViolation);
  EXPECT_THROW(heap.store8(16, 1), SandboxViolation);
  EXPECT_THROW(heap.load32(13), SandboxViolation);  // 13+4 > 16
  EXPECT_NO_THROW(heap.load32(12));
}

TEST(MisfitMemory, CountsChecks) {
  MisfitMemory heap(16);
  EXPECT_EQ(heap.check_count(), 0u);
  heap.store8(0, 1);
  (void)heap.load8(0);
  (void)heap.load32(4);
  EXPECT_EQ(heap.check_count(), 3u);
}

TEST(SasiMemory, ThrowsOnOutOfBounds) {
  SasiMemory heap(100);  // region rounds up to 128
  EXPECT_THROW(heap.load8(100), SandboxViolation);   // logical bound
  EXPECT_THROW(heap.load8(127), SandboxViolation);   // in region, out of bound
  EXPECT_THROW(heap.load8(4096), SandboxViolation);  // segment escape
  EXPECT_NO_THROW(heap.load8(99));
}

TEST(SasiMemory, ThrowsOnMisalignedWordAccess) {
  SasiMemory heap(64);
  EXPECT_NO_THROW(heap.load32(8));
  EXPECT_THROW(heap.load32(9), SandboxViolation);
  EXPECT_THROW(heap.store32(2, 1), SandboxViolation);
  // Byte accesses have no alignment requirement.
  EXPECT_NO_THROW(heap.load8(9));
}

TEST(SasiMemory, CountsWriteBarriers) {
  SasiMemory heap(64);
  heap.store32(0, 1);
  heap.store8(5, 2);
  (void)heap.load32(0);
  EXPECT_EQ(heap.check_count(), 3u);
  EXPECT_EQ(heap.write_barriers(), 2u);
}

TEST(NativeMemory, ReportsZeroChecks) {
  NativeMemory heap(16);
  heap.store32(0, 7);
  (void)heap.load32(0);
  EXPECT_EQ(heap.check_count(), 0u);
}

TEST(Sandbox, ViolationMessageNamesTheAddress) {
  MisfitMemory heap(8);
  try {
    (void)heap.load8(42);
    FAIL() << "expected violation";
  } catch (const SandboxViolation& e) {
    EXPECT_NE(std::string(e.what()).find("42"), std::string::npos);
  }
}

// ---------------------------------------------------------------- MD5

/// Lowercase hex of a digest.
std::string hex(const Md5Digest& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t byte : digest) {
    out += kHex[byte >> 4];
    out += kHex[byte & 0x0f];
  }
  return out;
}

/// MD5 of `text` stored at `addr` of a native heap: the harness's path.
std::string heap_md5(const std::string& text, std::size_t addr = 0) {
  NativeMemory heap(addr + text.size() + 1);
  for (std::size_t i = 0; i < text.size(); ++i) {
    heap.store8(addr + i, static_cast<std::uint8_t>(text[i]));
  }
  return hex(md5_of_heap(heap, addr, text.size()));
}

TEST(Md5, Rfc1321TestVectors) {
  EXPECT_EQ(heap_md5(""), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(heap_md5("a"), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(heap_md5("abc"), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(heap_md5("message digest"), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(heap_md5("abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(
      heap_md5("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz012345"
               "6789"),
      "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(
      heap_md5("1234567890123456789012345678901234567890123456789012345678"
               "9012345678901234567890"),
      "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, ExactBlockBoundaries) {
  // 55, 56, 63, 64, 65 bytes cross the padding edge cases.
  const std::pair<std::size_t, const char*> cases[] = {
      {55, "04364420e25c512fd958a70738aa8f72"},
      {56, "668a72d5ba17f08e62dabcafad6db14b"},
      {63, "7dc2ca208106a2f703567bdff99d8981"},
      {64, "c1bb4f81d892b2d57947682aeb252456"},
      {65, "1bc932052302d074bdec39795fe00cf6"},
      {128, "d69cb61a6ee87200676eb0d4b90edbcb"}};
  for (const auto& [len, digest] : cases) {
    EXPECT_EQ(heap_md5(std::string(len, 'x')), digest) << len;
  }
}

TEST(Md5, HeapDigestsIdenticalAcrossPolicies) {
  const std::size_t len = 1000;
  Rng rng(3);
  std::vector<std::uint8_t> bytes(len);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));

  NativeMemory native(1024);
  MisfitMemory misfit(1024);
  SasiMemory sasi(1024);
  for (std::size_t i = 0; i < len; ++i) {
    native.store8(i, bytes[i]);
    misfit.store8(i, bytes[i]);
    sasi.store8(i, bytes[i]);
  }
  const Md5Digest reference = md5_of_heap(native, 0, len);
  EXPECT_EQ(md5_of_heap(misfit, 0, len), reference);
  EXPECT_EQ(md5_of_heap(sasi, 0, len), reference);
  EXPECT_GT(misfit.check_count(), 0u);
  // SASI uses word loads on the aligned fast path too; both sandboxes must
  // have touched every block.
  EXPECT_GT(sasi.check_count(), 0u);
}

TEST(Md5, UnalignedStartFallsBackToBytePath) {
  const std::string msg = "the quick brown fox jumps over the lazy dog again";
  EXPECT_EQ(heap_md5(msg, 3), "7f89acce6a42fce6f93fdf425fc38c1d");
  EXPECT_EQ(heap_md5(msg, 3), heap_md5(msg, 0));
}

// ---------------------------------------------------------------- hotlist

TEST(Hotlist, HotCountNeverExceedsCapacity) {
  NativeMemory heap(PageEvictionHotlist<NativeMemory>::heap_bytes(32));
  PageEvictionHotlist<NativeMemory> hotlist(heap, 32, 8);
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    hotlist.access(rng.index(32));
    EXPECT_LE(hotlist.hot_count(), 8u);
  }
  EXPECT_EQ(hotlist.hot_count(), 8u);  // saturated after enough accesses
}

TEST(Hotlist, RepeatAccessKeepsPageInList) {
  NativeMemory heap(PageEvictionHotlist<NativeMemory>::heap_bytes(8));
  PageEvictionHotlist<NativeMemory> hotlist(heap, 8, 2);
  hotlist.access(5);
  hotlist.access(5);
  hotlist.access(5);
  EXPECT_EQ(hotlist.hot_count(), 1u);
}

TEST(Hotlist, EvictionDropsColdestPage) {
  NativeMemory heap(PageEvictionHotlist<NativeMemory>::heap_bytes(8));
  PageEvictionHotlist<NativeMemory> hotlist(heap, 8, 2);
  hotlist.access(0);
  hotlist.access(1);  // list: [1, 0]
  hotlist.access(2);  // evicts 0; list: [2, 1]
  EXPECT_EQ(hotlist.hot_count(), 2u);
  // Re-access 1 then 0: 0's insert evicts 2.
  hotlist.access(1);
  hotlist.access(0);
  EXPECT_EQ(hotlist.hot_count(), 2u);
}

TEST(Hotlist, ChecksumIdenticalAcrossPolicies) {
  const std::size_t pages = 64;
  const auto bytes = PageEvictionHotlist<NativeMemory>::heap_bytes(pages);
  NativeMemory native(bytes);
  MisfitMemory misfit(bytes);
  SasiMemory sasi(bytes);
  PageEvictionHotlist<NativeMemory> a(native, pages, 16);
  PageEvictionHotlist<MisfitMemory> b(misfit, pages, 16);
  PageEvictionHotlist<SasiMemory> c(sasi, pages, 16);
  Rng r1(9);
  Rng r2(9);
  Rng r3(9);
  const auto ca = a.run(2000, r1);
  const auto cb = b.run(2000, r2);
  const auto cc = c.run(2000, r3);
  EXPECT_EQ(ca, cb);
  EXPECT_EQ(ca, cc);
  EXPECT_GT(misfit.check_count(), 0u);
  EXPECT_EQ(misfit.check_count(), sasi.check_count());
}

TEST(Hotlist, Validation) {
  NativeMemory heap(PageEvictionHotlist<NativeMemory>::heap_bytes(4));
  EXPECT_THROW((PageEvictionHotlist<NativeMemory>(heap, 4, 0)),
               PreconditionError);
  EXPECT_THROW((PageEvictionHotlist<NativeMemory>(heap, 4, 5)),
               PreconditionError);
  NativeMemory small(64);
  EXPECT_THROW((PageEvictionHotlist<NativeMemory>(small, 4, 2)),
               PreconditionError);
  PageEvictionHotlist<NativeMemory> ok(heap, 4, 2);
  EXPECT_THROW(ok.access(4), PreconditionError);
}

// ---------------------------------------------------------------- lld

TEST(Lld, WriteThenReadIsStable) {
  NativeMemory heap(LogStructuredDisk<NativeMemory>::heap_bytes(16, 32));
  LogStructuredDisk<NativeMemory> disk(heap, 16, 32);
  EXPECT_EQ(disk.read(3), 0u);  // unwritten
  disk.write(3, 0x1234);
  const std::uint32_t digest = disk.read(3);
  EXPECT_NE(digest, 0u);
  EXPECT_EQ(disk.read(3), digest);  // reads are idempotent
  disk.write(3, 0x9999);
  EXPECT_NE(disk.read(3), digest);  // overwrite changes content
}

TEST(Lld, CleaningPreservesAllLiveBlocks) {
  NativeMemory heap(LogStructuredDisk<NativeMemory>::heap_bytes(8, 12));
  LogStructuredDisk<NativeMemory> disk(heap, 8, 12);
  std::vector<std::uint32_t> digests(8);
  for (std::size_t b = 0; b < 8; ++b) {
    disk.write(b, static_cast<std::uint32_t>(b * 77 + 1));
    digests[b] = disk.read(b);
  }
  // Force cleanings with repeated overwrites of block 0.
  for (int i = 0; i < 40; ++i) disk.write(0, static_cast<std::uint32_t>(i));
  EXPECT_GT(disk.cleanings(), 0u);
  for (std::size_t b = 1; b < 8; ++b) {
    EXPECT_EQ(disk.read(b), digests[b]) << "block " << b;
  }
}

TEST(Lld, DigestIdenticalAcrossPolicies) {
  const auto bytes = LogStructuredDisk<NativeMemory>::heap_bytes(32, 48);
  NativeMemory native(bytes);
  MisfitMemory misfit(bytes);
  SasiMemory sasi(bytes);
  LogStructuredDisk<NativeMemory> a(native, 32, 48);
  LogStructuredDisk<MisfitMemory> b(misfit, 32, 48);
  LogStructuredDisk<SasiMemory> c(sasi, 32, 48);
  Rng r1(21);
  Rng r2(21);
  Rng r3(21);
  const auto da = a.run(3000, r1);
  EXPECT_EQ(da, b.run(3000, r2));
  EXPECT_EQ(da, c.run(3000, r3));
  EXPECT_GT(a.cleanings(), 0u);
  EXPECT_EQ(a.cleanings(), b.cleanings());
}

TEST(Lld, Validation) {
  NativeMemory heap(LogStructuredDisk<NativeMemory>::heap_bytes(8, 12));
  EXPECT_THROW((LogStructuredDisk<NativeMemory>(heap, 8, 8)),
               PreconditionError);  // slots must exceed blocks
  NativeMemory small(64);
  EXPECT_THROW((LogStructuredDisk<NativeMemory>(small, 8, 12)),
               PreconditionError);
  LogStructuredDisk<NativeMemory> ok(heap, 8, 12);
  EXPECT_THROW(ok.write(8, 1), PreconditionError);
  EXPECT_THROW(ok.read(8), PreconditionError);
}

// ---------------------------------------------------------------- harness

TEST(Harness, WorkloadNames) {
  EXPECT_EQ(to_string(Workload::kHotlist), "page-eviction hotlist");
  EXPECT_EQ(to_string(Workload::kLld), "logical log-structured disk");
  EXPECT_EQ(to_string(Workload::kMd5), "MD5");
}

TEST(Harness, RunWorkloadReportsChecksOnlyForSandboxes) {
  const RunResult native = run_workload(Workload::kLld, "native", 1, 5, 1);
  const RunResult misfit = run_workload(Workload::kLld, "misfit", 1, 5, 1);
  EXPECT_EQ(native.checks, 0u);
  EXPECT_GT(misfit.checks, 0u);
  EXPECT_EQ(native.checksum, misfit.checksum);
  EXPECT_GT(native.seconds, 0.0);
  EXPECT_THROW(run_workload(Workload::kLld, "qemu", 1, 5, 1),
               PreconditionError);
}

TEST(Harness, MeasureOverheadsChecksumsMatchEverywhere) {
  const auto rows = measure_overheads(1, 3, 1);
  ASSERT_EQ(rows.size(), 3u);
  for (const OverheadRow& row : rows) {
    EXPECT_TRUE(row.checksums_match) << to_string(row.workload);
    EXPECT_GT(row.native_seconds, 0.0);
  }
}

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define GRIDTRUST_UNDER_SANITIZER 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GRIDTRUST_UNDER_SANITIZER 1
#endif

TEST(Harness, SandboxingIsNotFree) {
#ifdef GRIDTRUST_UNDER_SANITIZER
  // Sanitizer instrumentation distorts the relative cost of the bounds
  // checks this test measures; the ratio assertion below flakes under it.
  // Checksum correctness still runs in the tests above.
  GTEST_SKIP() << "relative wall-time assertion is noise under sanitizers";
#endif
  // Loose, machine-independent assertion: summed over the two memory-bound
  // workloads, each sandbox must cost something.
  const auto rows = measure_overheads(1, 3, 3);
  double misfit_total = 0.0;
  double sasi_total = 0.0;
  for (const OverheadRow& row : rows) {
    if (row.workload == Workload::kMd5) continue;
    misfit_total += row.misfit_overhead_pct;
    sasi_total += row.sasi_overhead_pct;
  }
  EXPECT_GT(misfit_total, 10.0);
  EXPECT_GT(sasi_total, misfit_total);
}

TEST(Harness, TableListsAllWorkloadsAndPaperColumns) {
  const auto rows = measure_overheads(1, 3, 1);
  const TextTable table = sfi_table(rows);
  const std::string out = table.to_string();
  EXPECT_NE(out.find("page-eviction hotlist"), std::string::npos);
  EXPECT_NE(out.find("MD5"), std::string::npos);
  EXPECT_NE(out.find("137%"), std::string::npos);  // paper reference column
  EXPECT_NE(out.find("264%"), std::string::npos);
  EXPECT_EQ(table.row_count(), 3u);
}

}  // namespace
}  // namespace gridtrust::sfi
