#include "gc/marking.h"

#include <atomic>

#include "gc/parallel_work.h"
#include "heap/object.h"
#include "runtime/vm.h"

namespace mgc {

MarkStats mark_from_roots(Vm& vm, GcWorkerPool* pool, int workers) {
  WorkSet<Obj*> work(workers);
  std::atomic<std::size_t> live_objects{0};
  std::atomic<std::size_t> live_bytes{0};

  // Seed with roots, spread round-robin across workers.
  {
    int w = 0;
    vm.for_each_root_slot([&](Obj** slot) {
      Obj* o = *slot;
      if (o != nullptr && o->try_mark()) {
        work.push(w, o);
        w = (w + 1) % workers;
      }
    });
  }

  auto worker_body = [&](int w) {
    std::size_t objs = 0;
    std::size_t bytes = 0;
    work.drain(w, [&](Obj* o) {
      ++objs;
      bytes += o->size_bytes();
      const std::size_t n = o->num_refs();
      for (std::size_t i = 0; i < n; ++i) {
        Obj* child = o->ref(i);
        if (child != nullptr && child->try_mark()) work.push(w, child);
      }
    });
    live_objects.fetch_add(objs, std::memory_order_relaxed);
    live_bytes.fetch_add(bytes, std::memory_order_relaxed);
  };

  run_workers(pool, workers, worker_body);

  MarkStats s;
  s.live_objects = live_objects.load(std::memory_order_relaxed);
  s.live_bytes = live_bytes.load(std::memory_order_relaxed);
  return s;
}

void update_refs_to_forwardees(Vm& vm, const std::vector<Obj*>& live,
                               GcWorkerPool* pool, int workers) {
  std::vector<Obj**> root_slots;
  vm.for_each_root_slot([&](Obj** slot) { root_slots.push_back(slot); });
  ChunkClaimer roots(root_slots.size(), 128);
  ChunkClaimer objs(live.size(), 256);
  auto worker_body = [&](int /*worker*/) {
    std::size_t b, e;
    while (roots.claim(&b, &e)) {
      for (std::size_t i = b; i < e; ++i) {
        Obj*& target = *root_slots[i];
        if (target != nullptr) {
          Obj* fwd = target->forwardee();
          MGC_DCHECK(fwd != nullptr);
          target = fwd;
        }
      }
    }
    while (objs.claim(&b, &e)) {
      for (std::size_t i = b; i < e; ++i) {
        Obj* o = live[i];
        const std::size_t n = o->num_refs();
        for (std::size_t r = 0; r < n; ++r) {
          Obj* t = o->refs()[r].load(std::memory_order_relaxed);
          if (t != nullptr) {
            o->refs()[r].store(t->forwardee(), std::memory_order_relaxed);
          }
        }
      }
    }
  };
  run_workers(pool, workers, worker_body);
}

}  // namespace mgc
