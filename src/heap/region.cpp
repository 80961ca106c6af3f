#include "heap/region.h"

#include <bit>
#include <mutex>

#include "heap/poison.h"
#include "support/check.h"

namespace mgc {

const char* region_type_name(RegionType t) {
  switch (t) {
    case RegionType::kFree: return "free";
    case RegionType::kEden: return "eden";
    case RegionType::kSurvivor: return "survivor";
    case RegionType::kOld: return "old";
    case RegionType::kHumongousHead: return "humongous";
    case RegionType::kHumongousCont: return "humongous-cont";
  }
  return "?";
}

void Region::walk(const std::function<void(Obj*)>& fn) const {
  for_each_cell(base, top(), fn);
}

void Region::reset_for_reuse() {
  // Zap what was allocated, then poison the whole region until it is handed
  // out again (the unused tail lost its poison when the region was
  // allocated).
  poison::zap_and_poison(base, used(), poison::kRegionZap);
  poison::poison(base, capacity());
  set_type(RegionType::kFree);
  set_top(base);
  set_tams(base);
  live_bytes.store(0, std::memory_order_relaxed);
  evac_failed.store(false, std::memory_order_relaxed);
  in_cset.store(false, std::memory_order_relaxed);
  rset.clear();
  humongous_head = nullptr;
}

void RegionManager::initialize(char* base, std::size_t bytes,
                               std::size_t region_bytes) {
  MGC_CHECK(std::has_single_bit(region_bytes));
  MGC_CHECK(bytes >= region_bytes);
  base_ = base;
  region_bytes_ = region_bytes;
  shift_ = static_cast<unsigned>(std::countr_zero(region_bytes));
  const std::size_t n = bytes / region_bytes;
  covered_bytes_ = n * region_bytes;
  regions_ = std::vector<Region>(n);
  free_list_.clear();
  free_list_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Region& r = regions_[i];
    r.index = static_cast<std::uint32_t>(i);
    r.base = base_ + i * region_bytes;
    r.end = r.base + region_bytes;
    r.set_top(r.base);
    r.set_tams(r.base);
  }
  // LIFO pop from the back; push low indices last so allocation prefers
  // low addresses (keeps the heap compact-ish, like HotSpot).
  for (std::size_t i = n; i-- > 0;)
    free_list_.push_back(static_cast<std::uint32_t>(i));
  poison::poison(base_, covered_bytes_);
}

Region* RegionManager::allocate_region(RegionType type) {
  MGC_CHECK(type != RegionType::kFree);
  SpinLockGuard g(free_lock_);
  if (free_list_.empty()) return nullptr;
  Region& r = regions_[free_list_.back()];
  free_list_.pop_back();
  MGC_DCHECK(r.is_free());
  r.set_type(type);
  poison::unpoison(r.base, r.capacity());
  return &r;
}

Region* RegionManager::allocate_humongous(std::size_t count) {
  MGC_CHECK(count >= 1);
  SpinLockGuard g(free_lock_);
  // Find `count` physically contiguous free regions (linear scan; humongous
  // allocation is rare).
  std::size_t run = 0;
  std::size_t run_start = 0;
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    if (regions_[i].is_free()) {
      if (run == 0) run_start = i;
      if (++run == count) {
        for (std::size_t j = run_start; j <= i; ++j) {
          regions_[j].set_type(j == run_start ? RegionType::kHumongousHead
                                              : RegionType::kHumongousCont);
          regions_[j].humongous_head = &regions_[run_start];
          std::erase(free_list_, static_cast<std::uint32_t>(j));
          poison::unpoison(regions_[j].base, regions_[j].capacity());
        }
        return &regions_[run_start];
      }
    } else {
      run = 0;
    }
  }
  return nullptr;
}

std::size_t RegionManager::humongous_span(const Region& head) const {
  MGC_DCHECK(head.type() == RegionType::kHumongousHead);
  std::size_t n = 1;
  while (head.index + n < regions_.size() &&
         regions_[head.index + n].type() == RegionType::kHumongousCont &&
         regions_[head.index + n].humongous_head == &head) {
    ++n;
  }
  return n;
}

void RegionManager::free_region(Region* r) {
  MGC_CHECK(r != nullptr && !r->is_free());
  r->reset_for_reuse();
  SpinLockGuard g(free_lock_);
  free_list_.push_back(r->index);
}

std::size_t RegionManager::free_region_count() const {
  SpinLockGuard g(free_lock_);
  return free_list_.size();
}

std::size_t RegionManager::count_of(RegionType t) const {
  std::size_t n = 0;
  for (const Region& r : regions_) {
    if (r.type() == t) ++n;
  }
  return n;
}

void RegionManager::for_each_region(const std::function<void(Region&)>& fn) {
  for (Region& r : regions_) fn(r);
}

void RegionManager::rebuild(const std::function<bool(Region&)>& keep) {
  SpinLockGuard g(free_lock_);
  free_list_.clear();
  for (std::size_t i = regions_.size(); i-- > 0;) {
    Region& r = regions_[i];
    if (!keep(r)) {
      r.reset_for_reuse();
      free_list_.push_back(r.index);
    }
  }
}

}  // namespace mgc
