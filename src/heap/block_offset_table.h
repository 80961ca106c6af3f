// Block-offset table: for each 512-byte card of a covered range, records
// how far back (in words) the cell that covers the card's first word
// starts. This lets card scanning resolve "first object on card" in O(1)
// instead of walking the space from its base — the reason young-collection
// pauses stay O(young size) even with a large old generation.
//
// Entries are maintained by every bump/free-list allocation and rebuilt by
// compaction. One u32 per card is 0.8% space overhead at our card size.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "heap/card_table.h"
#include "heap/layout.h"
#include "heap/object.h"
#include "support/check.h"

namespace mgc {

class BlockOffsetTable {
 public:
  BlockOffsetTable() = default;

  void initialize(char* base, std::size_t bytes) {
    base_ = base;
    covered_bytes_ = bytes;
    entries_.assign(bytes / kCardSize + 1, 0);
  }

  void clear() { std::fill(entries_.begin(), entries_.end(), 0); }

  // Resets entries covering [start, end); used when a G1 region is recycled.
  void clear_range(const char* start, const char* end) {
    if (start >= end) return;
    for (std::size_t c = card_of(start); c <= card_of(end - 1); ++c)
      entries_[c] = 0;
  }

  // Records a block [start, end). Must be called for every allocated cell
  // (object, filler or free chunk) whose span crosses a card boundary.
  void record_block(const char* start, const char* end) {
    MGC_DCHECK(start >= base_ && end <= base_ + covered_bytes_);
    std::size_t c = card_of(start);
    // The card containing `start` belongs to the previous block unless the
    // block begins exactly at the card base.
    if (card_base(c) != start) ++c;
    const std::size_t last = card_of(end - 1);
    for (; c <= last; ++c) {
      // Relaxed-atomic: concurrent GC workers record adjacent blocks while
      // card scanners read. A reader seeing a stale entry starts its walk
      // at an older (still parsable) block and walks forward — safe.
      std::atomic_ref<std::uint32_t>(entries_[c])
          .store(static_cast<std::uint32_t>((card_base(c) - start) / kWordSize),
                 std::memory_order_relaxed);
    }
  }

  // Start of the cell covering `addr`'s card base. The caller then walks
  // forward from it to the cell covering `addr` itself.
  char* block_start_for_card(std::size_t card_index) const {
    MGC_DCHECK(card_index < entries_.size());
    const std::uint32_t entry =
        std::atomic_ref<std::uint32_t>(
            const_cast<std::uint32_t&>(entries_[card_index]))
            .load(std::memory_order_relaxed);
    return card_base(card_index) - static_cast<std::ptrdiff_t>(entry) * kWordSize;
  }

  // The cell that covers `addr`. `addr` must be below the space's top.
  Obj* cell_covering(const char* addr) const {
    char* cur = block_start_for_card(card_of(addr));
    while (true) {
      auto* o = reinterpret_cast<Obj*>(cur);
      MGC_DCHECK(o->size_words() >= kMinObjWords);
      if (addr < o->end()) return o;
      cur = o->end();
    }
  }

  std::size_t card_of(const char* addr) const {
    MGC_DCHECK(addr >= base_ && addr < base_ + covered_bytes_);
    return static_cast<std::size_t>(addr - base_) >> kCardShift;
  }
  char* card_base(std::size_t card_index) const {
    return const_cast<char*>(base_) + (card_index << kCardShift);
  }

 private:
  const char* base_ = nullptr;
  std::size_t covered_bytes_ = 0;
  std::vector<std::uint32_t> entries_;
};

// Calls visit(cell, slot) for every reference slot that card `card_idx`
// owns: the slots physically on the card, whatever cell they belong to. A
// cell that spans several cards has its slots split between them, so the
// cards of a range together visit each slot exactly once (and parallel
// scanners partition big objects for free). The walk starts at the BOT cell
// covering the card base and ends at the card end, or at the first cell
// that starts at or above `limit(cell_start)`, the end of the parsable
// space holding that cell. Free chunks own no slots.
template <typename Limit, typename Visit>
inline void for_each_slot_on_card(const BlockOffsetTable& bot,
                                  const CardTable& cards, std::size_t card_idx,
                                  Limit limit, Visit visit) {
  char* const card_base = cards.card_base(card_idx);
  char* const card_end = cards.card_end(card_idx);
  if (card_base >= limit(card_base)) return;
  for (Obj* cell = bot.cell_covering(card_base);
       cell->start() < card_end && cell->start() < limit(cell->start());
       cell = cell->next_in_space()) {
    if (cell->is_free_chunk()) continue;
    const std::size_t nrefs = cell->num_refs();
    char* const slots_begin = cell->start() + sizeof(ObjHeader);
    std::size_t i = 0;
    if (card_base > slots_begin) {
      i = static_cast<std::size_t>(card_base - slots_begin + kWordSize - 1) /
          kWordSize;
    }
    for (; i < nrefs && slots_begin + i * sizeof(RefSlot) < card_end; ++i) {
      visit(cell, cell->refs()[i]);
    }
  }
}

}  // namespace mgc
