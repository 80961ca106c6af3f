// The managed object model.
//
// Every heap cell starts with a 16-byte header followed by `num_refs`
// reference slots (atomic object pointers — mutators and concurrent marking
// may race on them) and then raw payload words:
//
//   +----------------+-------------------+----------------------+
//   | ObjHeader 16 B | refs[num_refs]    | payload words        |
//   +----------------+-------------------+----------------------+
//
// The header carries the object size (making every space linearly
// parsable), the reference count, the GC age (tenuring), atomic flag bits
// (mark bit for tracing collectors, free-chunk bit for the CMS free-list
// space, dead-copy bit for abandoned racing copies) and a forwarding
// pointer used by copying and compacting phases.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>

#include "heap/layout.h"
#include "support/check.h"

namespace mgc {

class Obj;
using RefSlot = std::atomic<Obj*>;

namespace objflag {
inline constexpr std::uint8_t kMarked = 1u << 0;    // live per current trace
inline constexpr std::uint8_t kFreeChunk = 1u << 1; // CMS free-list chunk, not an object
inline constexpr std::uint8_t kDeadCopy = 1u << 2;  // abandoned duplicate from a copy race
inline constexpr std::uint8_t kHumongous = 1u << 3; // G1 humongous allocation
inline constexpr std::uint8_t kFiller = 1u << 4;    // heap filler (retired TLAB/PLAB tail)
}  // namespace objflag

struct ObjHeader {
  std::uint32_t size_words;  // total cell size in words, header included
  std::uint16_t num_refs;
  std::uint8_t age;
  std::atomic<std::uint8_t> flags;
  std::atomic<Obj*> forward;
};
static_assert(sizeof(ObjHeader) == 16, "header must stay 2 words");

inline constexpr std::size_t kHeaderWords = sizeof(ObjHeader) / kWordSize;
inline constexpr std::size_t kMinObjWords = kHeaderWords;

// An Obj* points at its header. The class has no data members of its own;
// it is a typed view over heap memory.
class Obj {
 public:
  ObjHeader& header() { return *reinterpret_cast<ObjHeader*>(this); }
  const ObjHeader& header() const {
    return *reinterpret_cast<const ObjHeader*>(this);
  }

  // Size and ref-count reads go through atomic_ref: heap walkers (card
  // scanning, sweeping) race with in-place cell rewrites (chunk splitting,
  // promotion); the write protocols guarantee every observable field
  // combination is parsable, but the individual accesses must not tear.
  std::size_t size_words() const {
    return std::atomic_ref<std::uint32_t>(
               const_cast<ObjHeader&>(header()).size_words)
        .load(std::memory_order_acquire);
  }
  std::size_t size_bytes() const { return words_to_bytes(size_words()); }
  std::uint16_t num_refs() const {
    return std::atomic_ref<std::uint16_t>(
               const_cast<ObjHeader&>(header()).num_refs)
        .load(std::memory_order_acquire);
  }
  std::uint8_t age() const { return header().age; }

  void set_size_words_atomic(std::uint32_t words) {
    std::atomic_ref<std::uint32_t>(header().size_words)
        .store(words, std::memory_order_release);
  }
  void set_num_refs_atomic(std::uint16_t n) {
    std::atomic_ref<std::uint16_t>(header().num_refs)
        .store(n, std::memory_order_release);
  }

  char* start() { return reinterpret_cast<char*>(this); }
  const char* start() const { return reinterpret_cast<const char*>(this); }
  char* end() { return start() + size_bytes(); }
  Obj* next_in_space() { return reinterpret_cast<Obj*>(end()); }

  RefSlot* refs() {
    return reinterpret_cast<RefSlot*>(start() + sizeof(ObjHeader));
  }
  const RefSlot* refs() const {
    return reinterpret_cast<const RefSlot*>(start() + sizeof(ObjHeader));
  }

  Obj* ref(std::size_t i) const {
    MGC_DCHECK(i < num_refs());
    return refs()[i].load(std::memory_order_acquire);
  }
  // Raw slot store; write barriers live in the Mutator, not here.
  void set_ref_raw(std::size_t i, Obj* v) {
    MGC_DCHECK(i < num_refs());
    refs()[i].store(v, std::memory_order_release);
  }

  word_t* payload() {
    return reinterpret_cast<word_t*>(start() + sizeof(ObjHeader) +
                                     num_refs() * sizeof(RefSlot));
  }
  const word_t* payload() const {
    return const_cast<Obj*>(this)->payload();
  }
  std::size_t payload_words() const {
    return size_words() - kHeaderWords - num_refs();
  }

  word_t field(std::size_t i) const {
    MGC_DCHECK(i < payload_words());
    return payload()[i];
  }
  void set_field(std::size_t i, word_t v) {
    MGC_DCHECK(i < payload_words());
    payload()[i] = v;
  }

  // --- flag bits ---------------------------------------------------------
  std::uint8_t flags() const {
    return header().flags.load(std::memory_order_acquire);
  }
  bool is_marked() const { return flags() & objflag::kMarked; }
  bool is_free_chunk() const { return flags() & objflag::kFreeChunk; }
  bool is_humongous() const { return flags() & objflag::kHumongous; }
  bool is_filler() const {
    return flags() & (objflag::kFiller | objflag::kDeadCopy);
  }

  // Atomically sets the mark bit; returns true if this call won the race
  // (i.e. the object was previously unmarked). Parallel markers use this
  // to claim objects exactly once.
  bool try_mark() {
    std::uint8_t old = header().flags.load(std::memory_order_relaxed);
    do {
      if (old & objflag::kMarked) return false;
    } while (!header().flags.compare_exchange_weak(
        old, old | objflag::kMarked, std::memory_order_acq_rel,
        std::memory_order_relaxed));
    return true;
  }
  void clear_mark() {
    header().flags.fetch_and(static_cast<std::uint8_t>(~objflag::kMarked),
                             std::memory_order_acq_rel);
  }
  void set_flag(std::uint8_t f) {
    header().flags.fetch_or(f, std::memory_order_acq_rel);
  }

  // --- forwarding --------------------------------------------------------
  Obj* forwardee() const {
    return header().forward.load(std::memory_order_acquire);
  }
  bool is_forwarded() const { return forwardee() != nullptr; }
  void set_forward(Obj* to) {
    header().forward.store(to, std::memory_order_release);
  }
  // Returns the winning forwardee: `to` if this call installed it, the
  // previously installed pointer otherwise.
  Obj* forward_atomic(Obj* to) {
    Obj* expected = nullptr;
    if (header().forward.compare_exchange_strong(expected, to,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_acquire)) {
      return to;
    }
    return expected;
  }

  // Initializes a header in raw memory and zero-fills ref slots.
  static Obj* init(void* mem, std::size_t size_words, std::uint16_t num_refs);
  // Initializes a non-reference "filler" cell covering `size_words`.
  static Obj* init_filler(void* mem, std::size_t size_words);

  // Total words needed for an object with the given shape.
  static std::size_t shape_words(std::uint16_t num_refs,
                                 std::size_t payload_words) {
    std::size_t w = kHeaderWords + num_refs + payload_words;
    return align_up(w, kObjAlignment / kWordSize);
  }
};

// Calls fn(cell) for each cell of the linearly parsable range [from, to)
// and returns where the walk ended (`to`, unless the last cell overruns
// it).
template <typename Fn>
char* for_each_cell(char* from, char* to, Fn&& fn) {
  char* cur = from;
  while (cur < to) {
    auto* o = reinterpret_cast<Obj*>(cur);
    MGC_CHECK_MSG(o->size_words() >= kMinObjWords, "heap not parsable");
    fn(o);
    cur = o->end();
  }
  return cur;
}

// A deterministic checksum of an object's identity (shape + payload), used
// by tests to verify that copying/compacting preserves contents.
std::uint64_t object_checksum(const Obj* o);

}  // namespace mgc
