#include "sim/memory.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace acs::sim {
namespace {

TEST(Memory, MapAndReadWrite) {
  AddressSpace mem;
  mem.map(0x1000, 0x1000, kPermRw, "data");
  EXPECT_FALSE(mem.write_u64(0x1000, 0xdeadbeefcafef00dULL));
  const auto access = mem.read_u64(0x1000);
  ASSERT_TRUE(access.ok());
  EXPECT_EQ(access.value, 0xdeadbeefcafef00dULL);
}

TEST(Memory, LittleEndianBytes) {
  AddressSpace mem;
  mem.map(0x1000, 0x100, kPermRw, "data");
  ASSERT_FALSE(mem.write_u64(0x1000, 0x0102030405060708ULL));
  EXPECT_EQ(mem.read_u8(0x1000).value, 0x08U);
  EXPECT_EQ(mem.read_u8(0x1007).value, 0x01U);
}

TEST(Memory, UnmappedFaults) {
  AddressSpace mem;
  const auto access = mem.read_u64(0x9999);
  EXPECT_FALSE(access.ok());
  EXPECT_EQ(access.fault.kind, FaultKind::kTranslation);
  EXPECT_EQ(mem.write_u64(0x9999, 1).kind, FaultKind::kTranslation);
}

TEST(Memory, StraddlingRegionEndFaults) {
  AddressSpace mem;
  mem.map(0x1000, 0x10, kPermRw, "tiny");
  EXPECT_TRUE(mem.read_u64(0x1008).ok());
  EXPECT_FALSE(mem.read_u64(0x100C).ok());  // crosses the region end
}

TEST(Memory, PermissionEnforcement) {
  AddressSpace mem;
  mem.map(0x1000, 0x100, kPermRo, "ro");
  EXPECT_TRUE(mem.read_u64(0x1000).ok());
  EXPECT_EQ(mem.write_u64(0x1000, 1).kind, FaultKind::kPermission);
}

TEST(Memory, WxPolicyRejectsWritableExecutable) {
  AddressSpace mem;
  EXPECT_THROW(mem.map(0x1000, 0x100, Perms{true, true, true}, "wx"),
               std::invalid_argument);
}

TEST(Memory, OverlapRejected) {
  AddressSpace mem;
  mem.map(0x1000, 0x1000, kPermRw, "a");
  EXPECT_THROW(mem.map(0x1800, 0x1000, kPermRw, "b"), std::invalid_argument);
  EXPECT_THROW(mem.map(0x0800, 0x900, kPermRw, "c"), std::invalid_argument);
  EXPECT_NO_THROW(mem.map(0x2000, 0x100, kPermRw, "d"));
}

TEST(Memory, ZeroSizeRejected) {
  AddressSpace mem;
  EXPECT_THROW(mem.map(0x1000, 0, kPermRw, "z"), std::invalid_argument);
}

TEST(Memory, AdversaryReadsEverythingMapped) {
  AddressSpace mem;
  mem.map(0x1000, 0x100, kPermRx, "code");  // execute-only for CPU writes
  mem.raw_write_u64(0x1000, 42);
  EXPECT_EQ(mem.adversary_read_u64(0x1000), 42U);
  EXPECT_EQ(mem.adversary_read_u64(0x5000), std::nullopt);
}

TEST(Memory, AdversaryCannotWriteCode) {
  // Assumption A1 (W^X): code pages are not writable even for the
  // arbitrary-write adversary.
  AddressSpace mem;
  mem.map(0x1000, 0x100, kPermRx, "code");
  mem.map(0x2000, 0x100, kPermRo, "rodata");
  EXPECT_FALSE(mem.adversary_write_u64(0x1000, 1));
  // Non-executable pages are fair game regardless of the W bit (the
  // adversary models arbitrary memory corruption, not the MMU).
  EXPECT_TRUE(mem.adversary_write_u64(0x2000, 7));
  EXPECT_EQ(mem.adversary_read_u64(0x2000), 7U);
}

TEST(Memory, RegionInfoLookup) {
  AddressSpace mem;
  mem.map(0x1000, 0x100, kPermRw, "data");
  const auto* info = mem.region_at(0x1050);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->name, "data");
  EXPECT_EQ(mem.region_at(0x5000), nullptr);
  EXPECT_TRUE(mem.is_mapped(0x10FF));
  EXPECT_FALSE(mem.is_mapped(0x1100));
  EXPECT_FALSE(mem.is_executable(0x1000));
}

// Regression: an 8-byte access whose end (`addr + len`) wraps past 2^64
// used to match a low region (the wrapped end compared below `base + size`)
// and write out of bounds of the host page buffer. It must be a clean
// translation fault.
TEST(Memory, WraparoundAccessFaults) {
  AddressSpace mem;
  mem.map(0x0, 0x1000, kPermRw, "low");
  for (const u64 addr : {~u64{0} - 3, ~u64{0} - 6, ~u64{0}}) {
    const auto access = mem.read_u64(addr);
    EXPECT_FALSE(access.ok()) << "addr " << addr;
    EXPECT_EQ(access.fault.kind, FaultKind::kTranslation);
    EXPECT_EQ(mem.write_u64(addr, 1).kind, FaultKind::kTranslation);
  }
  // Even a 1-byte access at the very top wraps its exclusive end to 0.
  EXPECT_FALSE(mem.read_u8(~u64{0}).ok());
}

// An access spanning the seam between two *adjacent* regions is a
// translation fault by design: each access must lie entirely within one
// region (documented contract in sim/memory.h).
TEST(Memory, AdjacentRegionSeamFaults) {
  AddressSpace mem;
  mem.map(0x1000, 0x1000, kPermRw, "a");
  mem.map(0x2000, 0x1000, kPermRw, "b");
  EXPECT_TRUE(mem.read_u64(0x1FF8).ok());   // last slot of "a"
  EXPECT_TRUE(mem.read_u64(0x2000).ok());   // first slot of "b"
  const auto seam = mem.read_u64(0x1FFC);   // 4 bytes in each
  EXPECT_FALSE(seam.ok());
  EXPECT_EQ(seam.fault.kind, FaultKind::kTranslation);
  EXPECT_EQ(mem.write_u64(0x1FFC, 1).kind, FaultKind::kTranslation);
}

// Accesses crossing a *page* seam inside one region are ordinary accesses
// (pages are a storage detail, not an addressing one).
TEST(Memory, PageSeamWithinRegionWorks) {
  AddressSpace mem;
  mem.map(0x0, 3 * AddressSpace::kPageSize, kPermRw, "data");
  const u64 seam = AddressSpace::kPageSize - 4;
  ASSERT_FALSE(mem.write_u64(seam, 0x1122334455667788ULL));
  EXPECT_EQ(mem.read_u64(seam).value, 0x1122334455667788ULL);
  // Little-endian: bytes 88 77 66 55 fill the first page's tail, 44 33 22
  // 11 land at the start of the second.
  EXPECT_EQ(mem.read_u8(AddressSpace::kPageSize - 1).value, 0x55U);
  EXPECT_EQ(mem.read_u8(AddressSpace::kPageSize).value, 0x44U);
}

TEST(Memory, CopyIsCowAndWritesDiverge) {
  AddressSpace master;
  master.map(0x1000, 4 * AddressSpace::kPageSize, kPermRw, "data");
  ASSERT_FALSE(master.write_u64(0x1000, 111));
  ASSERT_FALSE(master.write_u64(0x1000 + AddressSpace::kPageSize, 222));

  AddressSpace fork = master;  // CoW: shares every materialized page
  EXPECT_EQ(fork.private_pages(), 0U);
  EXPECT_EQ(fork.read_u64(0x1000).value, 111U);

  // Fork-side write: master unchanged, fork owns exactly the touched page.
  ASSERT_FALSE(fork.write_u64(0x1000, 999));
  EXPECT_EQ(fork.read_u64(0x1000).value, 999U);
  EXPECT_EQ(master.read_u64(0x1000).value, 111U);
  EXPECT_EQ(fork.private_pages(), 1U);
  // The untouched page stays shared in both directions.
  EXPECT_EQ(fork.read_u64(0x1000 + AddressSpace::kPageSize).value, 222U);

  // Master-side write (no forks may be running concurrently — this is the
  // single-threaded direction check): fork keeps its pre-write view.
  ASSERT_FALSE(master.write_u64(0x1000 + AddressSpace::kPageSize, 333));
  EXPECT_EQ(master.read_u64(0x1000 + AddressSpace::kPageSize).value, 333U);
  EXPECT_EQ(fork.read_u64(0x1000 + AddressSpace::kPageSize).value, 222U);
}

TEST(Memory, FreshPagesMaterializeOnWriteOnly) {
  AddressSpace mem;
  mem.map(0x0, 16 * AddressSpace::kPageSize, kPermRw, "lazy");
  EXPECT_EQ(mem.private_pages(), 0U);  // reads of zeros cost nothing
  EXPECT_EQ(mem.read_u64(0x8000).value, 0U);
  EXPECT_EQ(mem.private_pages(), 0U);
  ASSERT_FALSE(mem.write_u8(0x8000, 1));
  EXPECT_EQ(mem.private_pages(), 1U);
}

TEST(Memory, LayoutVersionBumpsOnMap) {
  AddressSpace mem;
  const u64 v0 = mem.layout_version();
  mem.map(0x1000, 0x100, kPermRw, "a");
  EXPECT_NE(mem.layout_version(), v0);
  const u64 v1 = mem.layout_version();
  ASSERT_FALSE(mem.write_u64(0x1000, 1));  // writes do not change layout
  EXPECT_EQ(mem.layout_version(), v1);
}

// Span cache: more pages, in more regions, than the cache has entries,
// visited round-robin so every access past the first lap evicts an entry
// another page is about to need.
TEST(Memory, SpanCacheRoundRobinOverManyPagesReadsBack) {
  constexpr u64 kPage = AddressSpace::kPageSize;
  AddressSpace mem;
  std::vector<u64> addrs;
  for (u64 r = 0; r < 3; ++r) {
    const u64 base = 0x10'0000 * (r + 1);
    mem.map(base, 3 * kPage, kPermRw, "data");
    for (u64 p = 0; p < 3; ++p) addrs.push_back(base + p * kPage + 8 * r);
  }
  for (u64 lap = 0; lap < 4; ++lap) {
    for (std::size_t i = 0; i < addrs.size(); ++i) {
      ASSERT_FALSE(mem.write_u64(addrs[i], lap * 100 + i));
    }
    for (std::size_t i = 0; i < addrs.size(); ++i) {
      EXPECT_EQ(mem.read_u64(addrs[i]).value, lap * 100 + i) << i;
      // A neighbouring word of the same page stays untouched.
      EXPECT_EQ(mem.read_u64(addrs[i] + 8).value, 0U) << i;
    }
  }
  EXPECT_EQ(mem.private_pages(), addrs.size());
}

// A copy taken while the source caches a writable page shares that page:
// the source's next write must CoW-clone it, not write it in place.
TEST(Memory, SpanCacheCopyAfterCachedWriteKeepsSidesApart) {
  AddressSpace master;
  master.map(0x1000, AddressSpace::kPageSize, kPermRw, "data");
  ASSERT_FALSE(master.write_u64(0x1000, 1));  // cached, exclusively owned
  AddressSpace fork = master;
  ASSERT_FALSE(master.write_u64(0x1008, 2));
  EXPECT_EQ(fork.read_u64(0x1008).value, 0U);
  ASSERT_FALSE(fork.write_u64(0x1010, 3));
  EXPECT_EQ(master.read_u64(0x1010).value, 0U);
  EXPECT_EQ(master.read_u64(0x1008).value, 2U);
  EXPECT_EQ(fork.read_u64(0x1010).value, 3U);
  EXPECT_EQ(fork.read_u64(0x1000).value, 1U);
}

// The source reads a page, a copy shares it, then the source writes it: the
// CoW clone replaces the page the source's cache pointed at, so that entry
// must go, and each side reads back its own value.
TEST(Memory, SpanCacheCowCloneDropsTheStaleEntry) {
  AddressSpace master;
  master.map(0x1000, AddressSpace::kPageSize, kPermRw, "data");
  ASSERT_FALSE(master.write_u64(0x1000, 10));
  EXPECT_EQ(master.read_u64(0x1000).value, 10U);
  const AddressSpace fork = master;
  ASSERT_FALSE(master.write_u64(0x1000, 20));
  EXPECT_EQ(master.read_u64(0x1000).value, 20U);
  EXPECT_EQ(fork.read_u64(0x1000).value, 10U);
}

// Writes that bypass the span cache (byte stores, the adversary's and the
// loader's word writes) are seen by the next cached read, whether they
// write the cached page in place or CoW-clone it away from a copy.
TEST(Memory, SpanCacheSeesUncachedWrites) {
  for (const bool shared : {false, true}) {
    AddressSpace mem;
    mem.map(0x1000, AddressSpace::kPageSize, kPermRw, "data");
    std::vector<AddressSpace> copies;
    const auto warm = [&](u64 addr, u64 value) {
      ASSERT_FALSE(mem.write_u64(addr, value));
      ASSERT_EQ(mem.read_u64(addr).value, value);
      if (shared) copies.push_back(mem);  // the next write must clone
    };
    warm(0x1000, 1);
    ASSERT_TRUE(mem.adversary_write_u64(0x1000, 2));
    EXPECT_EQ(mem.read_u64(0x1000).value, 2U) << shared;
    warm(0x1008, 3);
    mem.raw_write_u64(0x1008, 4);
    EXPECT_EQ(mem.read_u64(0x1008).value, 4U) << shared;
    warm(0x1010, 5);
    ASSERT_FALSE(mem.write_u8(0x1010, 0xAA));
    EXPECT_EQ(mem.read_u64(0x1010).value, 0xAAU) << shared;
    for (std::size_t i = 0; i < copies.size(); ++i) {
      EXPECT_EQ(copies[i].read_u64(0x1000).value, i == 0 ? 1U : 2U);
    }
  }
}

// A move hands the cached pages over with the region table: the target
// reads through them, and the emptied source maps nothing, cached or not.
TEST(Memory, SpanCacheMovesWithTheRegionTable) {
  AddressSpace mem;
  mem.map(0x1000, AddressSpace::kPageSize, kPermRw, "data");
  ASSERT_FALSE(mem.write_u64(0x1000, 5));
  AddressSpace moved = std::move(mem);
  EXPECT_EQ(moved.read_u64(0x1000).value, 5U);
  EXPECT_FALSE(mem.read_u64(0x1000).ok());
  EXPECT_TRUE(mem.write_u64(0x1000, 6));  
  AddressSpace assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.read_u64(0x1000).value, 5U);
  EXPECT_FALSE(moved.read_u64(0x1000).ok());
}

// A warm cache changes no fault: seam-straddling and wrapping accesses next
// to a cached page still fault, and a clipped region tail still reads.
TEST(Memory, SpanCacheKeepsSeamAndWraparoundFaults) {
  AddressSpace mem;
  mem.map(0x0, 0x1000, kPermRw, "low");
  mem.map(0x1000, 0x1000, kPermRw, "a");
  mem.map(0x2000, 0x1004, kPermRw, "b");  // a 4-byte clipped last page
  for (const u64 addr : {u64{0x0}, u64{0x1FF8}, u64{0x2000}}) {
    ASSERT_FALSE(mem.write_u64(addr, 7));
    ASSERT_EQ(mem.read_u64(addr).value, 7U);
  }
  EXPECT_EQ(mem.read_u64(0x1FFC).fault.kind, FaultKind::kTranslation);
  EXPECT_EQ(mem.write_u64(0x1FFC, 1).kind, FaultKind::kTranslation);
  for (const u64 addr : {~u64{0} - 3, ~u64{0} - 6, ~u64{0}}) {
    EXPECT_EQ(mem.read_u64(addr).fault.kind, FaultKind::kTranslation);
    EXPECT_EQ(mem.write_u64(addr, 1).kind, FaultKind::kTranslation);
  }
  // Page seam inside "b": the word straddles the clipped tail page.
  ASSERT_FALSE(mem.write_u64(0x2FFC, 0x1122334455667788ULL));
  EXPECT_EQ(mem.read_u64(0x2FFC).value, 0x1122334455667788ULL);
  EXPECT_EQ(mem.read_u64(0x2FFD).fault.kind, FaultKind::kTranslation);
  EXPECT_EQ(mem.read_u64(0x0).value, 7U);
}

TEST(Memory, RawAccessors) {
  AddressSpace mem;
  mem.map(0x1000, 0x100, kPermRo, "ro");
  mem.raw_write_u64(0x1000, 99);  // loader bypasses permissions
  EXPECT_EQ(mem.raw_read_u64(0x1000), 99U);
  EXPECT_THROW(mem.raw_write_u64(0x9000, 1), std::out_of_range);
  EXPECT_THROW((void)mem.raw_read_u64(0x9000), std::out_of_range);
}

}  // namespace
}  // namespace acs::sim
