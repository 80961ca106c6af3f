// Minimal stand-in for the runtime headers so the corpus files parse
// standalone: the libclang engine compiles them without the real tree, and
// the lexical engine only needs the token shapes in the .cpp files.
// Mirrors the surface of src/runtime/mutator.h and src/heap/obj.h that the
// checks care about — do not add behavior here.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>

#if defined(__clang__)
#define MGC_GC_UNSAFE __attribute__((annotate("mgc::gc_unsafe")))
#else
#define MGC_GC_UNSAFE
#endif
#define MGC_LINT_SUPPRESS(check)

namespace mgc {

using word_t = std::uint64_t;

struct Obj {
  word_t field(int) const { return 0; }
  void set_field(int, word_t) {}
  Obj* ref(int) const { return nullptr; }
  void set_ref_raw(int, Obj*) {}
  std::atomic<Obj*>* refs() { return slots_; }
  std::atomic<Obj*> slots_[4];
};

// Rank table mirror: enumerator values match src/support/lock_rank.h (the
// lexical engine reads the real header; these exist so the libclang engine
// can compile the corpus standalone).
enum class LockRank : unsigned {
  kUnranked = 0,
  kKvShard = 30,
  kAppData = 40,
  kCommitLog = 60,
  kSsTable = 80,
  kSafepoint = 130,
  kGcLog = 160,
  kGcBarrier = 170,
  kRemSet = 210,
  kNetSink = 250,
};

class SpinLock {
 public:
  SpinLock() = default;
  SpinLock(LockRank, const char*) {}
  void lock() {}
  bool try_lock() { return true; }
  void unlock() {}
};

class SpinLockGuard {
 public:
  explicit SpinLockGuard(SpinLock&) {}
};

class Mutex {
 public:
  Mutex() = default;
  Mutex(LockRank, const char*) {}
  void set_rank(LockRank, const char*) {}
  void lock() {}
  bool try_lock() { return true; }
  void unlock() {}
};

class MutexLock {
 public:
  explicit MutexLock(Mutex&) {}
  void lock() {}
  void unlock() {}
};

class Mutator {
 public:
  Obj* alloc(int, int) { return nullptr; }
  void poll() {}
  void system_gc() {}
  void enter_blocked() {}
  void leave_blocked() {}
  void set_ref(Obj*, int, Obj*) {}
};

class Local {
 public:
  explicit Local(Mutator&) {}
  Local(Mutator&, Obj*) {}
  Obj* get() const { return obj_; }
  void set(Obj* o) { obj_ = o; }
  Obj* operator->() const { return obj_; }
  Obj* obj_ = nullptr;
};

template <typename M>
class GuardedLock {
 public:
  GuardedLock(Mutator&, M&) {}
};

}  // namespace mgc
