// Promotion/GC-local allocation buffer: a per-worker bump region carved out
// of a shared destination space so parallel copying rarely touches the
// shared allocation pointer.
//
// In `parsable` mode (used for the CMS free-list old generation, which
// concurrent card scanners walk while promotion is happening) the PLAB
// maintains the invariant that its unused tail is always covered by a
// filler cell *before* carved memory is handed out: a walker either sees
// the pre-carve cell layout or the post-carve one, never torn bytes.
#pragma once

#include <cstddef>
#include <cstring>

#include "heap/block_offset_table.h"
#include "heap/object.h"
#include "heap/poison.h"
#include "support/fault.h"

namespace mgc {

// Copies `o` (`bytes` long) to `dest` and races other copiers to install
// the forwarding pointer; returns the winning copy. The copy protocol keeps
// concurrent heap walkers safe (CMS card scanning runs while other workers
// promote): body first, header fields next, num_refs last, so a walker sees
// either a 0-ref cell of the right size or the whole object. The copy is
// one age older. before_race(copy) runs once the copy is parsable; a losing
// copy stays behind as a dead 0-ref filler.
template <typename BeforeRace>
Obj* copy_and_forward(Obj* o, char* dest, std::size_t bytes,
                      BeforeRace before_race) {
  auto* d = reinterpret_cast<Obj*>(dest);
  std::memcpy(dest + sizeof(ObjHeader), o->start() + sizeof(ObjHeader),
              bytes - sizeof(ObjHeader));
  d->set_size_words_atomic(static_cast<std::uint32_t>(bytes / kWordSize));
  const std::uint8_t age = o->age();
  d->header().age = static_cast<std::uint8_t>(age >= 15 ? 15 : age + 1);
  d->header().forward.store(nullptr, std::memory_order_relaxed);
  d->header().flags.store(0, std::memory_order_release);
  d->set_num_refs_atomic(o->num_refs());
  before_race(d);
  Obj* winner = o->forward_atomic(d);
  if (winner != d) {
    d->set_num_refs_atomic(0);
    d->header().flags.store(objflag::kDeadCopy, std::memory_order_release);
  }
  return winner;
}

class Plab {
 public:
  explicit Plab(std::size_t plab_bytes, BlockOffsetTable* bot = nullptr,
                bool parsable = false)
      : plab_bytes_(plab_bytes), bot_(bot), parsable_(parsable) {}

  std::size_t plab_bytes() const { return plab_bytes_; }

  char* alloc(std::size_t bytes) {
    if (static_cast<std::size_t>(end_ - top_) < bytes) return nullptr;
    char* p = top_;
    top_ += bytes;
    if (parsable_ && top_ < end_) {
      // Re-cover the tail before the caller writes the object header: the
      // tail only becomes reachable to walkers once the caller's header
      // (written with release ordering) shrinks the current cell.
      Obj::init_filler(top_, static_cast<std::size_t>(end_ - top_) / kWordSize);
      if (bot_ != nullptr) bot_->record_block(top_, end_);
    }
    return p;
  }

  // Allocate from the PLAB, refilling from `refill` (any callable
  // `char*(std::size_t)`; a template so the per-object evacuation path
  // never materializes a std::function) on demand. Objects larger than
  // half a PLAB bypass it. Returns nullptr when the underlying space is
  // exhausted.
  template <typename RefillFn>
  char* alloc_refill(std::size_t bytes, RefillFn&& refill) {
    if (char* p = alloc(bytes)) return p;
    if (bytes > plab_bytes_ / 2) return refill(bytes);
    char* fresh = refill(plab_bytes_);
    if (fresh == nullptr) {
      // The space may still fit this object even if a whole PLAB does not.
      return refill(bytes);
    }
    retire();
    top_ = fresh;
    end_ = fresh + plab_bytes_;
    if (parsable_) {
      // The free-list allocator installed a provisional cell covering the
      // whole PLAB; keep it that way until the first carve.
    }
    return alloc(bytes);
  }

  // Plugs the unused tail with a filler cell so the space stays parsable.
  // The filler's payload is dead memory: zap it (the header must stay
  // readable for space walks).
  void retire() {
    if (top_ != nullptr && top_ < end_) {
      const auto words = static_cast<std::size_t>(end_ - top_) / kWordSize;
      Obj::init_filler(top_, words);
      if (bot_ != nullptr) bot_->record_block(top_, end_);
      poison::zap_and_poison(
          top_ + sizeof(ObjHeader),
          static_cast<std::size_t>(end_ - top_) - sizeof(ObjHeader),
          poison::kLabTailZap);
    }
    top_ = end_ = nullptr;
  }

 private:
  std::size_t plab_bytes_;
  BlockOffsetTable* bot_;
  bool parsable_;
  char* top_ = nullptr;
  char* end_ = nullptr;
};

// Where a copying collector puts a surviving object: the survivor PLAB
// while the object is younger than the tenuring threshold, else (or on
// survivor overflow) the old PLAB, each refilled through refill(to_old,
// bytes). Returns nullptr once both are exhausted, or when the `forced_fail`
// fault site fires (the deterministic analogue of an exhausted heap, which
// consumes no destination); kPlabRefill and kOldAlloc fail one side each.
// *to_old reports the side used.
template <typename Refill>
char* alloc_copy_dest(std::size_t bytes, bool tenured, fault::Site forced_fail,
                      Plab& surv, Plab& old, Refill refill, bool* to_old) {
  *to_old = false;
  if (fault::should_fire(forced_fail)) return nullptr;
  if (!tenured && !fault::should_fire(fault::Site::kPlabRefill)) {
    if (char* p = surv.alloc_refill(
            bytes, [&](std::size_t b) { return refill(false, b); })) {
      return p;
    }
  }
  if (fault::should_fire(fault::Site::kOldAlloc)) return nullptr;
  char* p =
      old.alloc_refill(bytes, [&](std::size_t b) { return refill(true, b); });
  *to_old = p != nullptr;
  return p;
}

}  // namespace mgc
