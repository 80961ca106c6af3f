#include "heap/free_list_space.h"

#include <mutex>
#include <sstream>
#include <unordered_set>

#include "heap/poison.h"
#include "support/check.h"

namespace mgc {
namespace {

// Metadata prefix of a free chunk that must stay readable/writable while the
// rest of the payload is zapped: the ObjHeader (size/flags/forward=next) plus
// the first payload word (prev link).
constexpr std::size_t kChunkPreserveBytes = sizeof(ObjHeader) + kWordSize;

// Free-chunk link accessors: `forward` is next, payload word 0 is prev.
void set_next(Obj* c, Obj* n) { c->set_forward(n); }
Obj* next_of(Obj* c) { return c->forwardee(); }
void set_prev(Obj* c, Obj* p) {
  reinterpret_cast<word_t*>(c->start() + sizeof(ObjHeader))[0] =
      reinterpret_cast<word_t>(p);
}
Obj* prev_of(Obj* c) {
  return reinterpret_cast<Obj*>(
      reinterpret_cast<word_t*>(c->start() + sizeof(ObjHeader))[0]);
}

}  // namespace

void FreeListSpace::initialize(std::string name, char* base, std::size_t bytes,
                               BlockOffsetTable* bot) {
  MGC_CHECK(bytes % kObjAlignment == 0);
  MGC_CHECK(bytes / kWordSize >= kMinChunkWords);
  name_ = std::move(name);
  base_ = base;
  end_ = base + bytes;
  bot_ = bot;
  bins_.exact.assign((kMaxExactWords - kMinChunkWords) / 2 + 1, nullptr);
  bins_.dict.clear();
  free_bytes_.store(0, std::memory_order_relaxed);
  SpinLockGuard g(lock_);
  insert_locked(base_, bytes);
  free_bytes_.store(bytes, std::memory_order_release);
}

Obj* FreeListSpace::make_chunk(char* start, std::size_t bytes) {
  auto* o = static_cast<Obj*>(static_cast<void*>(start));
  ObjHeader& h = o->header();
  o->set_num_refs_atomic(0);
  o->set_size_words_atomic(static_cast<std::uint32_t>(bytes / kWordSize));
  h.age = 0;
  h.flags.store(objflag::kFreeChunk, std::memory_order_release);
  h.forward.store(nullptr, std::memory_order_relaxed);
  if (bot_ != nullptr) bot_->record_block(start, start + bytes);
  return o;
}

Obj*& FreeListSpace::head_for(std::size_t words) {
  if (words <= kMaxExactWords) return bins_.exact[exact_index(words)];
  return bins_.dict[words];
}

void FreeListSpace::insert_locked(char* start, std::size_t bytes) {
  MGC_DCHECK(bytes % kObjAlignment == 0);
  const std::size_t words = bytes / kWordSize;
  if (words < kMinChunkWords) {
    // Dark matter: too small to link; becomes a filler cell counted as used.
    // May start inside a previously poisoned chunk payload (split
    // remainders), so lift the poison before writing the filler header.
    poison::unpoison(start, bytes);
    Obj::init_filler(start, words);
    if (bot_ != nullptr) bot_->record_block(start, start + bytes);
    return;
  }
  poison::unpoison(start, kChunkPreserveBytes);
  Obj* chunk = make_chunk(start, bytes);
  Obj*& head = head_for(words);
  set_next(chunk, head);
  set_prev(chunk, nullptr);
  if (head != nullptr) set_prev(head, chunk);
  head = chunk;
  poison::zap_and_poison(start + kChunkPreserveBytes,
                         bytes - kChunkPreserveBytes, poison::kFreeChunkZap);
}

void FreeListSpace::unlink_locked(Obj* chunk) {
  Obj* prev = prev_of(chunk);
  Obj* next = next_of(chunk);
  if (next != nullptr) set_prev(next, prev);
  if (prev != nullptr) {
    set_next(prev, next);
    return;
  }
  // Chunk is a bin head.
  const std::size_t words = chunk->size_words();
  if (words <= kMaxExactWords) {
    MGC_DCHECK(bins_.exact[exact_index(words)] == chunk);
    bins_.exact[exact_index(words)] = next;
  } else {
    auto it = bins_.dict.find(words);
    MGC_DCHECK(it != bins_.dict.end() && it->second == chunk);
    if (next == nullptr) {
      bins_.dict.erase(it);
    } else {
      it->second = next;
    }
  }
}

char* FreeListSpace::pop_fit_locked(std::size_t words) {
  if (words < kMinChunkWords) words = kMinChunkWords;
  Obj* found = nullptr;
  if (words <= kMaxExactWords) {
    for (std::size_t idx = exact_index(words); idx < bins_.exact.size();
         ++idx) {
      if (bins_.exact[idx] != nullptr) {
        found = bins_.exact[idx];
        break;
      }
    }
  }
  if (found == nullptr) {
    auto it = bins_.dict.lower_bound(words);
    if (it != bins_.dict.end()) found = it->second;
  }
  if (found == nullptr) return nullptr;
  unlink_locked(found);

  const std::size_t chunk_words = found->size_words();
  MGC_DCHECK(chunk_words >= words);
  const std::size_t rem = chunk_words - words;
  if (rem > 0) {
    insert_locked(found->start() + words_to_bytes(words),
                  words_to_bytes(rem));
    if (rem < kMinChunkWords) {
      // Remainder became dark matter; account it as used.
      free_bytes_.fetch_sub(words_to_bytes(rem), std::memory_order_acq_rel);
    }
  }
  return found->start();
}

char* FreeListSpace::alloc(std::size_t bytes) {
  bytes = align_up(bytes, kObjAlignment);
  const std::size_t words = bytes / kWordSize;
  SpinLockGuard g(lock_);
  char* p = pop_fit_locked(words);
  if (p == nullptr) return nullptr;
  free_bytes_.fetch_sub(bytes, std::memory_order_acq_rel);
  poison::unpoison(p, bytes);
  // Provisional parsable cell; blackened via the bitmap so a concurrent
  // sweep reaching this address treats it as live.
  Obj::init(p, words, 0);
  if (allocate_black_.load(std::memory_order_acquire) && live_bits_ != nullptr)
    live_bits_->mark(p);
  if (bot_ != nullptr) bot_->record_block(p, p + bytes);
  return p;
}

Obj* FreeListSpace::alloc_obj(std::size_t size_words, std::uint16_t num_refs,
                              bool black) {
  const std::size_t bytes = words_to_bytes(size_words);
  SpinLockGuard g(lock_);
  char* p = pop_fit_locked(size_words);
  if (p == nullptr) return nullptr;
  free_bytes_.fetch_sub(bytes, std::memory_order_acq_rel);
  poison::unpoison(p, bytes);
  Obj* o = Obj::init(p, size_words, num_refs);
  if ((black || allocate_black_.load(std::memory_order_acquire)) &&
      live_bits_ != nullptr) {
    live_bits_->mark(p);
  }
  if (bot_ != nullptr) bot_->record_block(p, p + bytes);
  return o;
}

void FreeListSpace::free_chunk(char* start, std::size_t bytes) {
  SpinLockGuard g(lock_);
  insert_locked(start, bytes);
  if (bytes / kWordSize >= kMinChunkWords)
    free_bytes_.fetch_add(bytes, std::memory_order_acq_rel);
}

void FreeListSpace::expand(std::size_t bytes) {
  MGC_CHECK(bytes % kObjAlignment == 0);
  MGC_CHECK(bytes / kWordSize >= kMinChunkWords);
  char* start = end_;
  end_ = start + bytes;
  free_chunk(start, bytes);
}

void FreeListSpace::walk(const std::function<void(Obj*)>& fn) const {
  for_each_cell(base_, end_, fn);
}

void FreeListSpace::begin_sweep() {
  SpinLockGuard g(lock_);
  MGC_CHECK(!sweeping_.load(std::memory_order_relaxed));
  sweep_cursor_ = base_;
  pending_run_start_ = nullptr;
  sweeping_.store(true, std::memory_order_release);
}

bool FreeListSpace::sweep_step(std::size_t max_cells,
                               std::size_t* reclaimed_bytes) {
  SpinLockGuard g(lock_);
  MGC_CHECK(sweeping_.load(std::memory_order_relaxed));
  std::size_t processed = 0;
  std::size_t reclaimed = 0;
  auto close_run = [&](char* run_end) {
    if (pending_run_start_ == nullptr) return;
    const auto run = static_cast<std::size_t>(run_end - pending_run_start_);
    insert_locked(pending_run_start_, run);
    if (run / kWordSize >= kMinChunkWords)
      free_bytes_.fetch_add(run, std::memory_order_acq_rel);
    pending_run_start_ = nullptr;
  };
  while (sweep_cursor_ < end_ && processed < max_cells) {
    auto* cell = reinterpret_cast<Obj*>(sweep_cursor_);
    char* const cell_end = cell->end();
    if (cell->is_free_chunk()) {
      // Absorb into the current run; eagerly unlink so the bins never hold
      // a chunk whose memory was coalesced into a larger one.
      unlink_locked(cell);
      free_bytes_.fetch_sub(cell->size_bytes(), std::memory_order_acq_rel);
      if (pending_run_start_ == nullptr) pending_run_start_ = cell->start();
    } else if (live_bits_ != nullptr && live_bits_->is_marked(cell)) {
      close_run(cell->start());
    } else {
      // Dead object, filler, or abandoned copy.
      reclaimed += cell->size_bytes();
      if (pending_run_start_ == nullptr) pending_run_start_ = cell->start();
    }
    sweep_cursor_ = cell_end;
    ++processed;
  }
  if (sweep_cursor_ >= end_) close_run(end_);
  if (reclaimed_bytes != nullptr) *reclaimed_bytes = reclaimed;
  return sweep_cursor_ < end_;
}

void FreeListSpace::abort_sweep() {
  SpinLockGuard g(lock_);
  pending_run_start_ = nullptr;
  sweep_cursor_ = end_;
  sweeping_.store(false, std::memory_order_release);
}

void FreeListSpace::end_sweep() {
  SpinLockGuard g(lock_);
  MGC_CHECK(sweep_cursor_ == end_);
  MGC_CHECK(pending_run_start_ == nullptr);
  sweeping_.store(false, std::memory_order_release);
}

void FreeListSpace::reset_after_compact(char* new_top) {
  SpinLockGuard g(lock_);
  MGC_CHECK(!sweeping_.load(std::memory_order_relaxed));
  bins_.exact.assign(bins_.exact.size(), nullptr);
  bins_.dict.clear();
  free_bytes_.store(0, std::memory_order_release);
  const auto tail = static_cast<std::size_t>(end_ - new_top);
  if (tail == 0) return;
  insert_locked(new_top, tail);
  if (tail / kWordSize >= kMinChunkWords)
    free_bytes_.store(tail, std::memory_order_release);
}

std::size_t FreeListSpace::verify_integrity(std::vector<std::string>& problems,
                                            std::size_t max_problems) const {
  SpinLockGuard g(lock_);
  auto report = [&](const char* what, const void* at) {
    if (problems.size() >= max_problems) return;
    std::ostringstream oss;
    oss << name_ << ": " << what << " at " << at;
    problems.push_back(oss.str());
  };

  std::unordered_set<const Obj*> linked;
  std::size_t linked_bytes = 0;
  const std::size_t max_chunks = capacity() / words_to_bytes(kMinChunkWords);
  auto check_chain = [&](Obj* head, std::size_t expected_words) {
    Obj* prev = nullptr;
    for (Obj* c = head; c != nullptr; c = next_of(c)) {
      if (!linked.insert(c).second) {
        report("free chunk linked twice (chain cycle or shared node)", c);
        return;
      }
      if (linked.size() > max_chunks) {
        report("free-list chain longer than the space can hold", c);
        return;
      }
      if (!contains(c) || c->start() + words_to_bytes(expected_words) > end_) {
        report("linked free chunk outside the space", c);
        return;
      }
      if (!c->is_free_chunk()) report("linked chunk missing the free flag", c);
      if (c->size_words() != expected_words)
        report("free chunk in the wrong size-class bin", c);
      if (prev_of(c) != prev) report("free chunk with a broken prev link", c);
      linked_bytes += words_to_bytes(expected_words);
      prev = c;
    }
  };

  for (std::size_t idx = 0; idx < bins_.exact.size(); ++idx)
    check_chain(bins_.exact[idx], kMinChunkWords + 2 * idx);
  for (const auto& [words, head] : bins_.dict) {
    if (head == nullptr) {
      report("empty chain left in the ordered dictionary",
             reinterpret_cast<const void*>(words));
      continue;
    }
    if (words <= kMaxExactWords)
      report("exact-size chunk filed in the ordered dictionary", head);
    check_chain(head, words);
  }

  if (linked_bytes != free_bytes()) {
    std::ostringstream oss;
    oss << name_ << ": free-byte accounting mismatch (bins hold "
        << linked_bytes << ", counter says " << free_bytes() << ")";
    if (problems.size() < max_problems) problems.push_back(oss.str());
  }

  // A mid-flight sweep legitimately holds unlinked free chunks in its
  // pending coalescing run, so the space walk only applies when quiescent.
  if (!sweep_in_progress()) {
    char* cur = base_;
    while (cur < end_) {
      auto* o = reinterpret_cast<Obj*>(cur);
      const std::size_t words = o->size_words();
      if (words < kMinObjWords ||
          words_to_bytes(words) > static_cast<std::size_t>(end_ - cur)) {
        report("unparsable cell stops the free-list space walk", o);
        break;
      }
      if (o->is_free_chunk() && linked.count(o) == 0)
        report("in-space free chunk not linked in any bin", o);
      cur = o->end();
    }
  }
  return linked.size();
}

std::size_t FreeListSpace::largest_free_chunk() const {
  SpinLockGuard g(lock_);
  if (!bins_.dict.empty()) {
    return words_to_bytes(bins_.dict.rbegin()->first);
  }
  for (std::size_t idx = bins_.exact.size(); idx-- > 0;) {
    if (bins_.exact[idx] != nullptr)
      return words_to_bytes(kMinChunkWords + 2 * idx);
  }
  return 0;
}

}  // namespace mgc
