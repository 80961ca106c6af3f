#include "runtime/vm.h"

#include "support/env.h"
#include "support/fault.h"

namespace mgc {

Vm::Vm(VmConfig cfg) : cfg_(cfg) {
  // Apply MGC_FAULT / MGC_FAULT_SEED before any subsystem can hit a fault
  // site (once per process; later Vms see the same armed state).
  fault::init_from_env();
  cfg_.validate();
  log_.set_verbose(cfg_.verbose_gc || env::verbose_gc());
  workers_ = std::make_unique<GcWorkerPool>(cfg_.effective_gc_threads());
  collector_ = make_collector(*this, cfg_);
  barrier_ = collector_->barrier_descriptor();
  vm_thread_ = std::thread([this] { vm_thread_main(); });
  collector_->start_background();
  log_.set_origin(now_ns());
}

Vm::~Vm() {
  collector_->stop_background();
  {
    MutexLock g(ops_mu_);
    shutdown_ = true;
  }
  ops_cv_.notify_all();
  vm_thread_.join();
  {
    MutexLock g(mutators_mu_);
    MGC_CHECK_MSG(mutators_.empty(), "VM destroyed with attached mutators");
  }
}

// --- mutators ----------------------------------------------------------------

Vm::MutatorScope::MutatorScope(Vm& vm, std::string name)
    : m_(std::make_unique<Mutator>(vm, std::move(name),
                                   env::seed() ^ std::hash<std::string>{}(
                                                     std::string("mutator")))) {}

Vm::MutatorScope::~MutatorScope() = default;

void Vm::run_mutators(int count, const std::function<void(Mutator&, int)>& fn) {
  MGC_CHECK(count >= 1);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    threads.emplace_back([this, &fn, i] {
      Mutator m(*this, "mutator-" + std::to_string(i),
                env::seed() + 0x9e3779b9u * static_cast<std::uint64_t>(i + 1));
      fn(m, i);
    });
  }
  for (auto& t : threads) t.join();
}

void Vm::add_mutator(Mutator* m) {
  // Register with the safepoint protocol *before* joining the scan list:
  // a registered-but-unlisted thread has no roots yet, which is safe; the
  // reverse order could deadlock against an in-progress pause.
  sp_.register_thread();
  MutexLock g(mutators_mu_);
  mutators_.push_back(m);
}

int Vm::mutator_count() {
  MutexLock g(mutators_mu_);
  return static_cast<int>(mutators_.size());
}

void Vm::remove_mutator(Mutator* m) {
  {
    MutexLock g(mutators_mu_);
    // Bank the thread's cost contributions before it disappears from the
    // scan list; cost_snapshot holds the same lock, so a detach is never
    // double-counted (still listed + already folded).
    m->fold_cost_into(cost_);
    detached_allocated_bytes_.fetch_add(m->allocated_bytes(),
                                        std::memory_order_relaxed);
    std::erase(mutators_, m);
  }
  sp_.unregister_thread();
}

std::uint64_t Vm::total_allocated_bytes() {
  MutexLock g(mutators_mu_);
  std::uint64_t total =
      detached_allocated_bytes_.load(std::memory_order_relaxed);
  for (Mutator* m : mutators_) total += m->allocated_bytes();
  return total;
}

GcCostSnapshot Vm::cost_snapshot() {
  MutexLock g(mutators_mu_);
  GcCostCounters folded;
  for (Mutator* m : mutators_) m->fold_cost_into(folded);
  GcCostSnapshot live = folded.snapshot(log_);
  GcCostSnapshot s = cost_.snapshot(log_);
  // Both snapshots folded the log's pause totals; keep one copy.
  s.alloc_slow_ns += live.alloc_slow_ns;
  s.alloc_slow_calls += live.alloc_slow_calls;
  s.barrier_card_ops += live.barrier_card_ops;
  s.barrier_satb_ops += live.barrier_satb_ops;
  s.barrier_rset_ops += live.barrier_rset_ops;
  return s;
}

// --- global roots --------------------------------------------------------------

std::size_t Vm::create_global_root() {
  MutexLock g(groots_mu_);
  global_roots_.push_back(nullptr);
  return global_roots_.size() - 1;
}

Obj* Vm::global_root(std::size_t idx) const {
  MutexLock g(groots_mu_);
  return global_roots_[idx];
}

void Vm::set_global_root(std::size_t idx, Obj* o) {
  MutexLock g(groots_mu_);
  global_roots_[idx] = o;
}

// --- memory-pressure hooks ------------------------------------------------------

std::size_t Vm::add_memory_pressure_hook(std::function<void()> fn) {
  MutexLock g(pressure_mu_);
  const std::size_t id = next_pressure_id_++;
  pressure_hooks_.emplace_back(id, std::move(fn));
  return id;
}

void Vm::remove_memory_pressure_hook(std::size_t id) {
  MutexLock g(pressure_mu_);
  std::erase_if(pressure_hooks_, [id](const auto& h) { return h.first == id; });
}

void Vm::run_memory_pressure_hooks() {
  MutexLock g(pressure_mu_);
  for (auto& h : pressure_hooks_) h.second();
}

// --- collection ------------------------------------------------------------------

void Vm::collect(Mutator* requester, bool full, GcCause cause) {
  const std::uint64_t seen =
      full ? full_epoch_.load(std::memory_order_acquire)
           : epoch_.load(std::memory_order_acquire);
  const std::function<PauseOutcome()> fn = [this, full, cause, seen] {
    if (cause == GcCause::kAllocFailure) {
      // Coalesce: if another thread's request already ran a (full enough)
      // collection since this one was posted, skip.
      const std::uint64_t now =
          full ? full_epoch_.load(std::memory_order_relaxed)
               : epoch_.load(std::memory_order_relaxed);
      if (now != seen) {
        PauseOutcome out;
        out.skipped = true;
        return out;
      }
    }
    return full ? collector_->collect_full(cause)
                : collector_->collect_young(cause);
  };
  run_vm_op(cause, requester != nullptr, fn);
}

void Vm::run_vm_op(GcCause cause, bool caller_is_registered,
                   const std::function<PauseOutcome()>& fn) {
  VmOp op;
  op.fn = &fn;
  op.cause = cause;
  auto wait_done = [&] {
    MutexLock l(ops_mu_);
    ops_.push_back(&op);
    ops_cv_.notify_all();
    op.cv.wait(l, [&] { return op.done; });
  };
  if (caller_is_registered) {
    SafepointCoordinator::BlockedScope blocked(sp_);
    wait_done();
  } else {
    wait_done();
  }
}

void Vm::vm_thread_main() {
  while (true) {
    VmOp* op = nullptr;
    {
      MutexLock l(ops_mu_);
      ops_cv_.wait(l, [&]() MGC_REQUIRES(ops_mu_) { return shutdown_ || !ops_.empty(); });
      if (ops_.empty() && shutdown_) return;
      op = ops_.front();
      ops_.pop_front();
    }

    PauseEvent ev;
    ev.cause = op->cause;
    ev.start_ns = now_ns();
    sp_.begin();
    ev.used_before = collector_->usage().used;
    const PauseOutcome out = (*op->fn)();
    ev.used_after = collector_->usage().used;
    // Stamped while the world is still stopped: once end() wakes the
    // mutators this thread may not run again for a scheduler slice.
    ev.end_ns = now_ns();
    sp_.end();

    if (!out.skipped) {
      ev.kind = out.kind;
      ev.full = out.full;
      ev.cause = out.cause;
      ev.phases = out.phases;
      ev.failures = out.failures;
      log_.add(ev);
      epoch_.fetch_add(1, std::memory_order_acq_rel);
      if (out.full) full_epoch_.fetch_add(1, std::memory_order_acq_rel);
    }

    {
      // Notify while holding the lock: the waiter owns the VmOp (and its
      // condition variable) and destroys it the moment it observes done,
      // so notifying after unlocking would race with that destruction.
      MutexLock l(ops_mu_);
      op->done = true;
      op->cv.notify_all();
    }
  }
}

// --- collector support -------------------------------------------------------------

void Vm::for_each_root_slot(const std::function<void(Obj**)>& fn) {
  {
    MutexLock g(mutators_mu_);
    for (Mutator* m : mutators_) {
      for (Obj*& r : m->roots_for_gc()) fn(&r);
    }
  }
  {
    MutexLock g(groots_mu_);
    for (Obj*& r : global_roots_) fn(&r);
  }
}

std::vector<std::vector<Obj*>*> Vm::root_vectors() {
  std::vector<std::vector<Obj*>*> out;
  {
    MutexLock g(mutators_mu_);
    out.reserve(mutators_.size() + 1);
    for (Mutator* m : mutators_) out.push_back(&m->roots_for_gc());
  }
  {
    // Taking groots_mu_ here is not optional politeness: create_global_root
    // may be mid-push_back on another (blocked) thread, and reading the
    // vector's internals unlocked races with its reallocation.
    MutexLock g(groots_mu_);
    out.push_back(&global_roots_);
  }
  return out;
}

void Vm::retire_all_tlabs() {
  MutexLock g(mutators_mu_);
  for (Mutator* m : mutators_) m->retire_tlab();
}

}  // namespace mgc
