// Card-marking table over the whole heap reservation. One byte per
// 512-byte card; the mutator write barrier dirties the card of the updated
// reference slot. Young collections scan dirty old-generation cards to find
// old->young references; the CMS remark phase rescans cards dirtied during
// concurrent marking (incremental-update barrier).
//
// Scanning is word-wise: the table is padded to a multiple of 8 cards and
// visitors load 8 card bytes per 64-bit load, skipping fully-clean words.
// At the dirty densities young collections see in practice (<< 5%), almost
// every word is zero, so the sweep runs at memory bandwidth instead of one
// atomic byte load per card. The `visit_dirty` template takes any callable
// (no `std::function` allocation on the pause critical path) and works on
// an explicit card-index range so parallel GC workers can claim fixed-size
// card strips directly.
//
// Memory-ordering contract
// ------------------------
//   * `dirty*` (mutator write barrier) uses release stores; scanners use
//     acquire loads (`is_dirty` / `needs_young_scan` / `visit_dirty`), so a
//     scanned card's slot contents are visible to the scanner.
//   * `clear_all` / `clear_range` use *release-store-once* semantics: the
//     individual card bytes are cleared with relaxed (word-wise) stores and
//     a single trailing release fence publishes the whole batch. They are
//     only called from stop-the-world phases or from the collector thread
//     that owns the subsequent rescan, so no reader re-checks a card while
//     a clear is in flight; readers that start after the fence (paired with
//     their acquire loads) observe every cleared byte.
//   * `try_preclean` is the only read-modify-write; it synchronizes with
//     racing barrier stores via acq_rel.
//
// A `ModUnionTable` accumulates cards that a young collection is about to
// clean while a CMS cycle is active, so remark information survives young
// collections (HotSpot's mod-union table).
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "heap/layout.h"
#include "support/check.h"

namespace mgc {

class CardTable {
 public:
  static constexpr std::uint8_t kClean = 0;
  static constexpr std::uint8_t kDirty = 1;
  // CMS precleaning: the card's targets were marked concurrently; remark
  // may skip it unless the mutator re-dirtied it afterwards.
  static constexpr std::uint8_t kPrecleaned = 2;

  // Cards per word-wise scan step (one 64-bit load).
  static constexpr std::size_t kCardsPerWord = sizeof(std::uint64_t);

  void initialize(char* base, std::size_t bytes);

  std::size_t num_cards() const { return cards_.size(); }
  char* covered_base() const { return base_; }

  std::size_t index_of(const void* addr) const {
    const char* c = static_cast<const char*>(addr);
    MGC_DCHECK(c >= base_ && c < base_ + covered_bytes_);
    return static_cast<std::size_t>(c - base_) >> kCardShift;
  }
  char* card_base(std::size_t index) const {
    return base_ + (index << kCardShift);
  }
  char* card_end(std::size_t index) const { return card_base(index) + kCardSize; }

  void dirty(const void* addr) {
    cards_[index_of(addr)].store(kDirty, std::memory_order_release);
  }
  void dirty_index(std::size_t index) {
    cards_[index].store(kDirty, std::memory_order_release);
  }
  void dirty_range(const void* from, const void* to);

  bool is_dirty(std::size_t index) const {
    return cards_[index].load(std::memory_order_acquire) == kDirty;
  }
  // Dirty OR precleaned: cards the generational young-GC scan must visit.
  bool needs_young_scan(std::size_t index) const {
    return cards_[index].load(std::memory_order_acquire) != kClean;
  }
  // Preclean transition: only succeeds if the card is still kDirty (a
  // concurrent barrier write may race and re-dirty afterwards, which is
  // exactly what remark looks for).
  bool try_preclean(std::size_t index) {
    std::uint8_t expected = kDirty;
    return cards_[index].compare_exchange_strong(expected, kPrecleaned,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_relaxed);
  }
  void clear_index(std::size_t index) {
    cards_[index].store(kClean, std::memory_order_release);
  }
  void clear_all();
  void clear_range(const void* from, const void* to);

  // Word-wise visitor: invokes fn(card_index) for every card in the card
  // *index* range [first, last) needing a young-GC scan (dirty or
  // precleaned). Does not clear. Eight cards are inspected per 64-bit load;
  // fully clean words cost one load total. Safe to run from several GC
  // workers concurrently over disjoint (or even overlapping, since it only
  // reads) ranges.
  template <typename Visitor>
  void visit_dirty(std::size_t first, std::size_t last, Visitor&& fn) const {
    MGC_DCHECK(last <= cards_.size());
    std::size_t i = first;
    if (i >= last) return;
    // Leading partial word.
    const std::size_t lead_end =
        std::min(last, align_up(i + 1, kCardsPerWord));
    for (; i < lead_end && (i % kCardsPerWord) != 0; ++i) {
      if (needs_young_scan(i)) fn(i);
    }
    // Full words: skip clean ones with a single load. For nonzero words the
    // dirty cards are extracted from the loaded value itself (lowest nonzero
    // byte first via countr_zero) — no per-card re-load, no 8-iteration
    // inner loop. The word's acquire load provides the ordering the per-card
    // acquire loads used to.
    while (i + kCardsPerWord <= last) {
      std::uint64_t w = load_word(i / kCardsPerWord);
      if (w != 0) {
        if constexpr (std::endian::native == std::endian::little) {
          do {
            const int k = std::countr_zero(w) >> 3;  // lowest nonzero byte
            fn(i + static_cast<std::size_t>(k));
            w &= ~(std::uint64_t{0xff} << (k * 8));
          } while (w != 0);
        } else {
          for (std::size_t j = i; j < i + kCardsPerWord; ++j) {
            if (needs_young_scan(j)) fn(j);
          }
        }
      }
      i += kCardsPerWord;
    }
    // Trailing partial word.
    for (; i < last; ++i) {
      if (needs_young_scan(i)) fn(i);
    }
  }

  // Address-window form of visit_dirty: visits every card whose base lies
  // in [from, to).
  template <typename Visitor>
  void for_each_dirty(const void* from, const void* to, Visitor&& fn) const {
    if (from >= to) return;
    const std::size_t first = index_of(from);
    const std::size_t last = index_of(static_cast<const char*>(to) - 1) + 1;
    visit_dirty(first, last, static_cast<Visitor&&>(fn));
  }

  std::size_t count_dirty(const void* from, const void* to) const;

 private:
  // One 64-bit acquire load covering cards [8w, 8w+8). The card bytes are
  // individually atomic; the word view is the C++20 atomic_ref over the
  // same (suitably aligned, padded) storage — the idiom HotSpot's card
  // scanners use, expressible without UB-prone plain aliasing.
  std::uint64_t load_word(std::size_t word_index) const {
    auto* bytes = reinterpret_cast<std::uint64_t*>(
        const_cast<std::atomic<std::uint8_t>*>(cards_.data()) +
        word_index * kCardsPerWord);
    return std::atomic_ref<std::uint64_t>(*bytes).load(
        std::memory_order_acquire);
  }
  void store_word_relaxed(std::size_t word_index, std::uint64_t value) {
    auto* bytes = reinterpret_cast<std::uint64_t*>(cards_.data() +
                                                   word_index * kCardsPerWord);
    std::atomic_ref<std::uint64_t>(*bytes).store(value,
                                                 std::memory_order_relaxed);
  }
  // Relaxed per-card/word stores of `value` over the inclusive card range;
  // callers add the single trailing release fence (see the ordering
  // contract above).
  void fill_span_relaxed(std::size_t first, std::size_t last_inclusive,
                         std::uint8_t value);

  char* base_ = nullptr;
  std::size_t covered_bytes_ = 0;
  std::vector<std::atomic<std::uint8_t>> cards_;
};

// One bit of state per card, OR-accumulated across young collections while
// a concurrent old-generation cycle runs.
class ModUnionTable {
 public:
  void initialize(std::size_t num_cards) {
    bits_.assign(align_up(num_cards, kWordBytes), 0);
  }
  void clear() { std::fill(bits_.begin(), bits_.end(), 0); }
  void record(std::size_t card_index) { bits_[card_index] = 1; }
  bool is_set(std::size_t card_index) const { return bits_[card_index] != 0; }

  // Word-wise sweep over the recorded cards, mirroring
  // CardTable::visit_dirty. Single-threaded use only (remark pause).
  template <typename Visitor>
  void for_each_set(Visitor&& fn) const {
    for (std::size_t i = 0; i < bits_.size(); i += kWordBytes) {
      std::uint64_t w;
      std::memcpy(&w, bits_.data() + i, sizeof(w));
      if (w == 0) continue;
      for (std::size_t j = i; j < i + kWordBytes; ++j) {
        if (bits_[j] != 0) fn(j);
      }
    }
  }

 private:
  static constexpr std::size_t kWordBytes = sizeof(std::uint64_t);
  std::vector<std::uint8_t> bits_;
};

}  // namespace mgc
