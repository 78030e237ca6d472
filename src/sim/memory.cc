#include "sim/memory.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace acs::sim {

AddressSpace& AddressSpace::operator=(const AddressSpace& other) {
  if (this != &other) {
    regions_ = other.regions_;
    last_hit_ = other.last_hit_;
    version_ = other.version_;
    clear_spans();  // the cached slots belonged to the old region table
  }
  return *this;
}

AddressSpace& AddressSpace::operator=(AddressSpace&& other) noexcept {
  if (this != &other) {
    regions_ = std::move(other.regions_);
    last_hit_ = other.last_hit_;
    spans_ = other.spans_;  // the slots moved over with the region table
    span_next_ = other.span_next_;
    version_ = other.version_;
    other.clear_spans();
  }
  return *this;
}

void AddressSpace::map(u64 base, u64 size, Perms perms, std::string name) {
  if (size == 0) throw std::invalid_argument{"map: zero-sized region"};
  if (perms.w && perms.x) {
    throw std::invalid_argument{"map: W^X forbids writable+executable"};
  }
  if (base + size < base) throw std::invalid_argument{"map: address overflow"};
  for (const auto& region : regions_) {
    const u64 r_end = region.info.base + region.info.size;
    if (base < r_end && region.info.base < base + size) {
      throw std::invalid_argument{"map: overlaps region " + region.info.name};
    }
  }
  Region region;
  region.info = RegionInfo{base, size, perms, std::move(name)};
  // All pages start null ("all zeros"); bytes materialize on first write.
  region.pages.resize((size + kPageSize - 1) / kPageSize);
  const auto pos = std::upper_bound(
      regions_.begin(), regions_.end(), base,
      [](u64 b, const Region& r) { return b < r.info.base; });
  regions_.insert(pos, std::move(region));
  last_hit_ = 0;
  clear_spans();  // the region table may have reallocated
  ++version_;
}

void AddressSpace::fill_span_cache(const Region& region,
                                   u64 addr) const noexcept {
  const u64 off = addr - region.info.base;
  const u64 page = off / kPageSize;
  const PagePtr& slot = region.pages[page];
  if (slot == nullptr) return;  // zero pages have no bytes to point at
  const u64 len = std::min(kPageSize, region.info.size - page * kPageSize);
  if (len < 8) return;  // clipped tail spans are not worth caching
  spans_[span_next_] = SpanEntry{region.info.base + page * kPageSize,
                                 len - 7,
                                 slot->data(),
                                 &slot,
                                 region.info.perms.r,
                                 region.info.perms.w};
  span_next_ = (span_next_ + 1) % kSpanEntries;
}

const AddressSpace::Region* AddressSpace::find(u64 addr,
                                               u64 len) const noexcept {
  const u64 end = addr + len;
  if (end < addr) return nullptr;  // wraparound near UINT64_MAX — unmapped
  // Hot accesses hit the same region repeatedly; check the last hit first.
  if (last_hit_ < regions_.size()) {
    const Region& cached = regions_[last_hit_];
    if (addr >= cached.info.base &&
        end <= cached.info.base + cached.info.size) {
      return &cached;
    }
  }
  // Regions are sorted by base: the only candidate is the last region whose
  // base is <= addr.
  const auto it = std::upper_bound(
      regions_.begin(), regions_.end(), addr,
      [](u64 a, const Region& r) { return a < r.info.base; });
  if (it == regions_.begin()) return nullptr;
  const Region& region = *std::prev(it);
  if (end <= region.info.base + region.info.size) {
    last_hit_ = static_cast<std::size_t>(std::prev(it) - regions_.begin());
    return &region;
  }
  return nullptr;
}

AddressSpace::Region* AddressSpace::find(u64 addr, u64 len) noexcept {
  return const_cast<Region*>(std::as_const(*this).find(addr, len));
}

u64 AddressSpace::region_read(const Region& region, u64 off,
                              unsigned len) noexcept {
  u64 value = 0;
  for (unsigned i = 0; i < len; ++i) {
    const PagePtr& page = region.pages[(off + i) / kPageSize];
    if (page != nullptr) {
      value |= static_cast<u64>((*page)[(off + i) % kPageSize]) << (8 * i);
    }
  }
  return value;
}

std::vector<u8>& AddressSpace::own_page(PagePtr& page) {
  if (page == nullptr) {
    // No span entry holds a null slot, so materializing needs no clear.
    page = std::make_shared<std::vector<u8>>(kPageSize, u8{0});
  } else if (page.use_count() > 1) {
    page = std::make_shared<std::vector<u8>>(*page);  // CoW: clone this page
    clear_spans();  // an entry may hold the shared page's bytes
  }
  return *page;
}

void AddressSpace::region_write(Region& region, u64 off, u64 value,
                                unsigned len) noexcept {
  for (unsigned i = 0; i < len; ++i) {
    const u64 at = off + i;
    own_page(region.pages[at / kPageSize])[at % kPageSize] =
        static_cast<u8>(value >> (8 * i));
  }
}

AddressSpace::Access AddressSpace::read_u64_slow(u64 addr) const noexcept {
  const Region* region = find(addr, 8);
  if (region == nullptr) {
    return {0, Fault{FaultKind::kTranslation, addr, 0}};
  }
  if (!region->info.perms.r) {
    return {0, Fault{FaultKind::kPermission, addr, 0}};
  }
  const u64 off = addr - region->info.base;
  const u64 page_off = off % kPageSize;
  if (page_off <= kPageSize - 8) {  // access lies within one page
    const PagePtr& page = region->pages[off / kPageSize];
    if (page == nullptr) return {0, Fault{}};  // untouched page reads as zero
    fill_span_cache(*region, addr);
    return {load_le64(page->data() + page_off), Fault{}};
  }
  return {region_read(*region, off, 8), Fault{}};
}

AddressSpace::Access AddressSpace::read_u8(u64 addr) const noexcept {
  const Region* region = find(addr, 1);
  if (region == nullptr) return {0, Fault{FaultKind::kTranslation, addr, 0}};
  if (!region->info.perms.r) return {0, Fault{FaultKind::kPermission, addr, 0}};
  return {region_read(*region, addr - region->info.base, 1), Fault{}};
}

Fault AddressSpace::write_u64_slow(u64 addr, u64 value) noexcept {
  Region* region = find(addr, 8);
  if (region == nullptr) return Fault{FaultKind::kTranslation, addr, 0};
  if (!region->info.perms.w) return Fault{FaultKind::kPermission, addr, 0};
  const u64 off = addr - region->info.base;
  const u64 page_off = off % kPageSize;
  if (page_off <= kPageSize - 8) {  // access lies within one page
    PagePtr& page = region->pages[off / kPageSize];
    std::vector<u8>& bytes =
        (page != nullptr && page.use_count() == 1) ? *page : own_page(page);
    store_le64(bytes.data() + page_off, value);
    fill_span_cache(*region, addr);
    return Fault{};
  }
  region_write(*region, off, value, 8);
  return Fault{};
}

Fault AddressSpace::write_u8(u64 addr, u8 value) noexcept {
  Region* region = find(addr, 1);
  if (region == nullptr) return Fault{FaultKind::kTranslation, addr, 0};
  if (!region->info.perms.w) return Fault{FaultKind::kPermission, addr, 0};
  region_write(*region, addr - region->info.base, value, 1);
  return Fault{};
}

std::optional<u64> AddressSpace::adversary_read_u64(u64 addr) const noexcept {
  const Region* region = find(addr, 8);
  if (region == nullptr) return std::nullopt;
  return region_read(*region, addr - region->info.base, 8);
}

bool AddressSpace::adversary_write_u64(u64 addr, u64 value) noexcept {
  Region* region = find(addr, 8);
  if (region == nullptr) return false;
  if (region->info.perms.x) return false;  // W^X (assumption A1)
  region_write(*region, addr - region->info.base, value, 8);
  return true;
}

u64 AddressSpace::raw_read_u64(u64 addr) const {
  // Permission faults do not apply to infrastructure reads.
  const Region* region = find(addr, 8);
  if (region == nullptr) {
    throw std::out_of_range{"raw_read_u64: unmapped address"};
  }
  return region_read(*region, addr - region->info.base, 8);
}

void AddressSpace::raw_write_u64(u64 addr, u64 value) {
  Region* region = find(addr, 8);
  if (region == nullptr) throw std::out_of_range{"raw_write_u64: unmapped"};
  region_write(*region, addr - region->info.base, value, 8);
}

bool AddressSpace::is_executable(u64 addr) const noexcept {
  const Region* region = find(addr, 1);
  return region != nullptr && region->info.perms.x;
}

bool AddressSpace::is_mapped(u64 addr) const noexcept {
  return find(addr, 1) != nullptr;
}

const AddressSpace::RegionInfo* AddressSpace::region_at(
    u64 addr) const noexcept {
  const Region* region = find(addr, 1);
  return region == nullptr ? nullptr : &region->info;
}

std::vector<AddressSpace::RegionInfo> AddressSpace::regions() const {
  std::vector<RegionInfo> out;
  out.reserve(regions_.size());
  for (const auto& region : regions_) out.push_back(region.info);
  return out;
}

u64 AddressSpace::private_pages() const noexcept {
  u64 count = 0;
  for (const auto& region : regions_) {
    for (const auto& page : region.pages) {
      if (page != nullptr && page.use_count() == 1) ++count;
    }
  }
  return count;
}

}  // namespace acs::sim
