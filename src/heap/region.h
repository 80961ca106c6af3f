// G1 heap regions. The whole reservation is divided into equal power-of-two
// regions; each is bump-allocated and linearly parsable. Humongous objects
// span a head region plus zero or more continuation regions.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "heap/arena.h"
#include "heap/object.h"
#include "heap/remembered_set.h"
#include "support/spinlock.h"

namespace mgc {

enum class RegionType : std::uint8_t {
  kFree,
  kEden,
  kSurvivor,
  kOld,
  kHumongousHead,
  kHumongousCont,
};

const char* region_type_name(RegionType t);

class Region {
 public:
  std::uint32_t index = 0;
  char* base = nullptr;
  char* end = nullptr;

  RegionType type() const { return type_.load(std::memory_order_acquire); }
  void set_type(RegionType t) { type_.store(t, std::memory_order_release); }
  bool is_free() const { return type() == RegionType::kFree; }
  bool is_young() const {
    const RegionType t = type();
    return t == RegionType::kEden || t == RegionType::kSurvivor;
  }
  bool is_old_or_humongous() const {
    const RegionType t = type();
    return t == RegionType::kOld || t == RegionType::kHumongousHead ||
           t == RegionType::kHumongousCont;
  }

  char* top() const { return top_.load(std::memory_order_acquire); }
  void set_top(char* t) { top_.store(t, std::memory_order_release); }
  std::size_t used() const { return static_cast<std::size_t>(top() - base); }
  std::size_t free_bytes() const {
    return static_cast<std::size_t>(end - top());
  }
  std::size_t capacity() const { return static_cast<std::size_t>(end - base); }
  bool contains(const void* p) const {
    const char* c = static_cast<const char*>(p);
    return c >= base && c < end;
  }

  // Thread-safe bump allocation within the region.
  char* par_alloc(std::size_t bytes) { return par_bump(top_, end, bytes); }

  // Walks cells [base, top). Pause-time only.
  void walk(const std::function<void(Obj*)>& fn) const;

  // --- concurrent-marking metadata ---------------------------------------
  // Top-at-mark-start: objects allocated at/above this address during a
  // marking cycle are implicitly live.
  char* tams() const { return tams_.load(std::memory_order_acquire); }
  void set_tams(char* t) { tams_.store(t, std::memory_order_release); }

  // Live bytes computed by the last completed marking (old regions only).
  std::atomic<std::size_t> live_bytes{0};

  // Set if an evacuation failed while copying out of this region; the
  // region is then kept in place and retyped old.
  std::atomic<bool> evac_failed{false};

  // Member of the current collection set (valid only inside an evacuation
  // pause).
  std::atomic<bool> in_cset{false};

  // Incoming-reference remembered set.
  RememberedSet rset;

  // Humongous bookkeeping: continuation regions point at their head.
  Region* humongous_head = nullptr;

  void reset_for_reuse();

 private:
  std::atomic<RegionType> type_{RegionType::kFree};
  std::atomic<char*> top_{nullptr};
  std::atomic<char*> tams_{nullptr};
};

// Owns the region array over one arena and the free-region list.
class RegionManager {
 public:
  void initialize(char* base, std::size_t bytes, std::size_t region_bytes);

  std::size_t region_bytes() const { return region_bytes_; }
  std::size_t num_regions() const { return regions_.size(); }
  char* heap_base() const { return base_; }
  char* heap_end() const { return base_ + covered_bytes_; }
  bool contains(const void* p) const {
    const char* c = static_cast<const char*>(p);
    return c >= base_ && c < heap_end();
  }

  Region& region_at(std::size_t i) { return regions_[i]; }
  const Region& region_at(std::size_t i) const { return regions_[i]; }

  Region* region_of(const void* p) {
    MGC_DCHECK(contains(p));
    const auto off =
        static_cast<std::size_t>(static_cast<const char*>(p) - base_);
    return &regions_[off >> shift_];
  }
  const Region* region_of(const void* p) const {
    return const_cast<RegionManager*>(this)->region_of(p);
  }

  // Pops a free region and retypes it. Returns nullptr when exhausted.
  Region* allocate_region(RegionType type);
  // Allocates `count` physically contiguous regions for a humongous object.
  Region* allocate_humongous(std::size_t count);
  // Regions the humongous object headed at `head` occupies: the head and
  // its continuations.
  std::size_t humongous_span(const Region& head) const;
  void free_region(Region* r);

  std::size_t free_region_count() const;
  std::size_t count_of(RegionType t) const;

  void for_each_region(const std::function<void(Region&)>& fn);

  // Full-GC support: resets every region for which keep(r) is false and
  // rebuilds the free list from scratch (ascending indices popped first).
  void rebuild(const std::function<bool(Region&)>& keep);

 private:
  char* base_ = nullptr;
  std::size_t covered_bytes_ = 0;
  std::size_t region_bytes_ = 0;
  unsigned shift_ = 0;
  std::vector<Region> regions_;

  mutable SpinLock free_lock_{LockRank::kRegionFree, "region-free"};
  // LIFO of free region indices
  std::vector<std::uint32_t> free_list_ MGC_GUARDED_BY(free_lock_);
};

}  // namespace mgc
