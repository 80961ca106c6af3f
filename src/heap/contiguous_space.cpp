#include "heap/contiguous_space.h"

#include "heap/poison.h"
#include "support/check.h"

namespace mgc {

void ContiguousSpace::initialize(std::string name, char* base,
                                 std::size_t bytes) {
  MGC_CHECK(base != nullptr);
  MGC_CHECK(reinterpret_cast<std::uintptr_t>(base) % kObjAlignment == 0);
  name_ = std::move(name);
  base_ = base;
  end_ = base + bytes;
  top_.store(base, std::memory_order_release);
  // Virgin space is off-limits until an allocation carves it out.
  poison::poison(base_, bytes);
}

void ContiguousSpace::reset() {
  char* const old_top = top();
  top_.store(base_, std::memory_order_release);
  poison::zap_and_poison(base_, static_cast<std::size_t>(old_top - base_),
                         poison::kFromSpaceZap);
}

void ContiguousSpace::set_top(char* t) {
  char* const old_top = top();
  top_.store(t, std::memory_order_release);
  if (t < old_top) {
    poison::zap_and_poison(t, static_cast<std::size_t>(old_top - t),
                           poison::kFromSpaceZap);
  }
}

char* ContiguousSpace::par_alloc(std::size_t bytes) {
  MGC_DCHECK(bytes % kObjAlignment == 0);
  char* const p = par_bump(top_, end_, bytes);
  if (p != nullptr) poison::unpoison(p, bytes);
  return p;
}

char* ContiguousSpace::serial_alloc(std::size_t bytes) {
  MGC_DCHECK(bytes % kObjAlignment == 0);
  char* cur = top_.load(std::memory_order_relaxed);
  if (static_cast<std::size_t>(end_ - cur) < bytes) return nullptr;
  top_.store(cur + bytes, std::memory_order_relaxed);
  poison::unpoison(cur, bytes);
  return cur;
}

void ContiguousSpace::walk(const std::function<void(Obj*)>& fn) const {
  char* const limit = top();
  MGC_CHECK_MSG(for_each_cell(base_, limit, fn) == limit,
                "heap walk overran top");
}

}  // namespace mgc
