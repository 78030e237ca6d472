// The simulated user-space address space.
//
// Regions with page-style permissions; a W^X policy (assumption A1) is
// enforced structurally: a region can never be both writable and
// executable. The adversary of Section 3 gets separate accessors
// (adversary_read/adversary_write) that bypass R/W permission checks on
// data pages — "arbitrary control of process memory" — but still cannot
// write executable pages (A1) and, because kernel state lives outside this
// object entirely, cannot touch kernel-saved register contexts or PA keys.
//
// Storage is page-granular and copy-on-write: copying an AddressSpace
// shares its pages with the source (O(regions) pointer copies, no byte
// copies); the first write to a shared page clones just that page. A null
// page pointer means "all zeros", so freshly mapped regions cost no bytes
// until touched. This is what makes kernel::Machine forking and fork(2)
// O(pages-touched) — see docs/simulator.md. The CoW sharing is safe across
// threads only under the repo-wide contract that a master image is never
// written while forks taken from it are live.
#pragma once

#include <array>
#include <bit>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/fault.h"

namespace acs::sim {

/// Region permission bits.
struct Perms {
  bool r = false;
  bool w = false;
  bool x = false;
};

inline constexpr Perms kPermRw{true, true, false};
inline constexpr Perms kPermRo{true, false, false};
inline constexpr Perms kPermRx{true, false, true};

class AddressSpace {
 public:
  /// CoW page granularity (region-relative, regions need not be aligned).
  static constexpr u64 kPageSize = 4096;

  /// Map a new zero-filled region. Throws std::invalid_argument on overlap,
  /// zero size, or an R+W+X request (W^X violation).
  void map(u64 base, u64 size, Perms perms, std::string name);

  /// Result of a checked access: value (for reads) or a fault.
  struct Access {
    u64 value = 0;
    Fault fault{};
    [[nodiscard]] bool ok() const noexcept { return !fault; }
  };

  // Checked CPU accesses (respect permissions; little-endian). An access
  // must lie entirely within one mapped region; spanning the seam between
  // two adjacent regions is a translation fault by design (pinned in
  // sim_memory_test). The bodies below are the hot-span fast path, kept in
  // the header so the CPU's load/store handlers inline them; everything
  // else goes through the out-of-line _slow variants.
  [[nodiscard]] Access read_u64(u64 addr) const noexcept {
    for (const SpanEntry& e : spans_) {
      if (addr - e.base < e.limit && e.readable) {
        return {load_le64(e.data + (addr - e.base)), Fault{}};
      }
    }
    return read_u64_slow(addr);
  }
  [[nodiscard]] Access read_u8(u64 addr) const noexcept;
  [[nodiscard]] Fault write_u64(u64 addr, u64 value) noexcept {
    // Exclusive ownership is re-checked per write, so a page shared with a
    // fork taken since the fill is never written in place (it falls
    // through and CoW-clones in the slow path).
    for (const SpanEntry& e : spans_) {
      if (addr - e.base < e.limit) {
        if (!e.writable || e.slot->use_count() != 1) break;
        store_le64(e.data + (addr - e.base), value);
        return Fault{};
      }
    }
    return write_u64_slow(addr, value);
  }
  [[nodiscard]] Fault write_u8(u64 addr, u8 value) noexcept;

  // Adversary accesses (Section 3): arbitrary read of any mapped page and
  // write to any non-executable mapped page. Returns nullopt / false for
  // unmapped addresses or W^X-protected targets.
  [[nodiscard]] std::optional<u64> adversary_read_u64(u64 addr) const noexcept;
  [[nodiscard]] bool adversary_write_u64(u64 addr, u64 value) noexcept;

  // Infrastructure accesses for loaders/kernels (no permission checks).
  [[nodiscard]] u64 raw_read_u64(u64 addr) const;
  void raw_write_u64(u64 addr, u64 value);

  /// True if `addr` lies in an executable region (used for fetch checks).
  [[nodiscard]] bool is_executable(u64 addr) const noexcept;
  [[nodiscard]] bool is_mapped(u64 addr) const noexcept;

  /// Region metadata lookup (nullptr when unmapped).
  struct RegionInfo {
    u64 base = 0;
    u64 size = 0;
    Perms perms{};
    std::string name;
  };
  [[nodiscard]] const RegionInfo* region_at(u64 addr) const noexcept;
  [[nodiscard]] std::vector<RegionInfo> regions() const;

  /// Bumped on every map(); lets callers (Cpu's fetch fast path) cache
  /// region lookups and invalidate when the layout changes.
  [[nodiscard]] u64 layout_version() const noexcept { return version_; }

  /// Pages owned exclusively by this address space (materialized and not
  /// shared with any CoW sibling). A fresh fork reports 0; the count grows
  /// only with pages actually written — the O(pages-touched) guarantee.
  [[nodiscard]] u64 private_pages() const noexcept;

  AddressSpace() = default;
  // Copying shares pages CoW. The span cache points into this object's own
  // page slots, so the copy starts with an empty cache; the source is not
  // written (forks may be taken concurrently from one master). A move hands
  // the region table, and with it the cached slots, to the target and
  // empties the source's cache along with its table.
  AddressSpace(const AddressSpace& other)
      : regions_(other.regions_),
        last_hit_(other.last_hit_),
        version_(other.version_) {}
  AddressSpace& operator=(const AddressSpace& other);
  AddressSpace(AddressSpace&& other) noexcept
      : regions_(std::move(other.regions_)),
        last_hit_(other.last_hit_),
        spans_(other.spans_),
        span_next_(other.span_next_),
        version_(other.version_) {
    other.clear_spans();
  }
  AddressSpace& operator=(AddressSpace&& other) noexcept;

 private:
  // Null page = 4 KiB of zeros. Pages index region-relative byte ranges
  // [i * kPageSize, (i + 1) * kPageSize) clipped to the region size.
  using PagePtr = std::shared_ptr<std::vector<u8>>;

  struct Region {
    RegionInfo info;
    std::vector<PagePtr> pages;
  };

  // Span cache: the last few materialized pages touched by a checked
  // access, looked up linearly and refilled round-robin. An entry holds the
  // page's host bytes directly, so a read hit is a range test and one load.
  // Nothing is revalidated per hit: every path that replaces a slot's page
  // pointer (own_page) or the region table (map, assignment) clears the
  // cache instead. A write hit still re-checks exclusive ownership
  // (use_count == 1) through the slot, so a page shared with a fork taken
  // since the fill is never written in place.
  struct SpanEntry {
    u64 base = 0;   ///< VA of the first byte of the cached span
    u64 limit = 0;  ///< span length - 7 (an 8-byte access fits below it);
                    ///< 0 marks an empty entry, which no address matches
    u8* data = nullptr;             ///< the page's host bytes
    const PagePtr* slot = nullptr;  ///< the region's slot holding the page
    bool readable = false;
    bool writable = false;
  };
  static constexpr std::size_t kSpanEntries = 4;

  [[nodiscard]] const Region* find(u64 addr, u64 len) const noexcept;
  [[nodiscard]] Region* find(u64 addr, u64 len) noexcept;

  // Byte-wise access at a region-relative offset, handling page seams.
  // read_u64/write_u64 only fall back here for page-spanning accesses;
  // the in-page common case is a single page lookup + 8-byte load/store.
  static u64 region_read(const Region& region, u64 off, unsigned len) noexcept;
  void region_write(Region& region, u64 off, u64 value, unsigned len) noexcept;
  /// Materialize (null → zero page) or un-share (CoW clone) so the page is
  /// exclusively owned and writable in place. A CoW clone clears the span
  /// cache, which may hold the shared page's bytes.
  std::vector<u8>& own_page(PagePtr& page);

  /// Put the page under `addr` into the next round-robin span-cache entry,
  /// from a region the access was just validated against (materialized
  /// pages only).
  void fill_span_cache(const Region& region, u64 addr) const noexcept;
  void clear_spans() const noexcept { spans_ = {}; }

  // Out-of-line halves of the checked accessors (find + permission checks
  // + CoW materialization + cache refill).
  [[nodiscard]] Access read_u64_slow(u64 addr) const noexcept;
  [[nodiscard]] Fault write_u64_slow(u64 addr, u64 value) noexcept;

  // Little-endian u64 load/store against raw page bytes. On a little-
  // endian host this is a single memcpy (folded to one move); the byte
  // loop keeps the architectural LE contract on big-endian hosts.
  [[nodiscard]] static u64 load_le64(const u8* p) noexcept {
    if constexpr (std::endian::native == std::endian::little) {
      u64 value;
      std::memcpy(&value, p, sizeof value);
      return value;
    } else {
      u64 value = 0;
      for (unsigned i = 0; i < 8; ++i) {
        value |= static_cast<u64>(p[i]) << (8 * i);
      }
      return value;
    }
  }
  static void store_le64(u8* p, u64 value) noexcept {
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(p, &value, sizeof value);
    } else {
      for (unsigned i = 0; i < 8; ++i) {
        p[i] = static_cast<u8>(value >> (8 * i));
      }
    }
  }

  std::vector<Region> regions_;  // sorted by base, non-overlapping
  mutable std::size_t last_hit_ = 0;  // index cache for find()
  mutable std::array<SpanEntry, kSpanEntries> spans_{};
  mutable std::size_t span_next_ = 0;  // round-robin fill cursor
  u64 version_ = 0;
};

}  // namespace acs::sim
