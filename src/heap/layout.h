// Fundamental heap layout constants shared by all spaces and collectors.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace mgc {

using word_t = std::uint64_t;
inline constexpr std::size_t kWordSize = sizeof(word_t);
inline constexpr std::size_t kObjAlignment = 16;  // header size; all objects 16B-aligned

// Card geometry (matches HotSpot: 512-byte cards).
inline constexpr std::size_t kCardShift = 9;
inline constexpr std::size_t kCardSize = std::size_t{1} << kCardShift;

inline constexpr std::size_t words_to_bytes(std::size_t words) {
  return words * kWordSize;
}
inline constexpr std::size_t bytes_to_words(std::size_t bytes) {
  return (bytes + kWordSize - 1) / kWordSize;
}

inline constexpr std::size_t align_up(std::size_t v, std::size_t alignment) {
  return (v + alignment - 1) & ~(alignment - 1);
}

inline char* align_up_ptr(char* p, std::size_t alignment) {
  return reinterpret_cast<char*>(
      align_up(reinterpret_cast<std::size_t>(p), alignment));
}

// Lock-free bump allocation of `bytes` below `end`: the shared fast path of
// every contiguous space and G1 region. nullptr when they do not fit.
inline char* par_bump(std::atomic<char*>& top, const char* end,
                      std::size_t bytes) {
  char* cur = top.load(std::memory_order_relaxed);
  do {
    if (static_cast<std::size_t>(end - cur) < bytes) return nullptr;
  } while (!top.compare_exchange_weak(cur, cur + bytes,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed));
  return cur;
}

}  // namespace mgc
