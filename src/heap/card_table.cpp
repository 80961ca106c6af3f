#include "heap/card_table.h"

#include "support/check.h"

namespace mgc {

void CardTable::initialize(char* base, std::size_t bytes) {
  base_ = base;
  covered_bytes_ = bytes;
  // Pad to a whole number of scan words so the word-wise visitors never
  // need a bounds check inside a word. Padding cards are never dirtied
  // (index_of bounds-checks against the covered window).
  const std::size_t n = align_up((bytes >> kCardShift) + 1, kCardsPerWord);
  cards_ = std::vector<std::atomic<std::uint8_t>>(n);
  clear_all();
}

void CardTable::dirty_range(const void* from, const void* to) {
  if (from >= to) return;
  fill_span_relaxed(index_of(from),
                    index_of(static_cast<const char*>(to) - 1), kDirty);
  // Publish the batch with one fence (see the header's ordering contract).
  std::atomic_thread_fence(std::memory_order_release);
}

void CardTable::fill_span_relaxed(std::size_t first,
                                  std::size_t last_inclusive,
                                  std::uint8_t value) {
  std::size_t i = first;
  for (; i <= last_inclusive && (i % kCardsPerWord) != 0; ++i) {
    cards_[i].store(value, std::memory_order_relaxed);
  }
  const std::uint64_t word = value * 0x0101010101010101ULL;
  for (; i + kCardsPerWord <= last_inclusive + 1; i += kCardsPerWord) {
    store_word_relaxed(i / kCardsPerWord, word);
  }
  for (; i <= last_inclusive; ++i) {
    cards_[i].store(value, std::memory_order_relaxed);
  }
}

void CardTable::clear_all() {
  if (cards_.empty()) return;
  fill_span_relaxed(0, cards_.size() - 1, kClean);
  std::atomic_thread_fence(std::memory_order_release);
}

void CardTable::clear_range(const void* from, const void* to) {
  if (from >= to) return;
  fill_span_relaxed(index_of(from),
                    index_of(static_cast<const char*>(to) - 1), kClean);
  std::atomic_thread_fence(std::memory_order_release);
}

std::size_t CardTable::count_dirty(const void* from, const void* to) const {
  std::size_t n = 0;
  for_each_dirty(from, to, [&n](std::size_t) { ++n; });
  return n;
}

}  // namespace mgc
