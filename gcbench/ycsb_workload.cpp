// ycsb-parallelold / ycsb-cms: the Cassandra-like store in the paper's
// stress configuration (memtable and commit log never flushed), 12k rows,
// 50/50 read/update zipfian traffic over loopback TCP into one event loop,
// one shard and one worker. The generator is an open loop: requests are due
// on a fixed schedule at the offered rate, spread over two connections, and
// every latency is timed from the request's due time, so a server stall
// also charges the requests queued behind it.
//
// The server is reached only through kv::Server, kv::ShardedStore,
// net::NetServer and net::BlockingClient::call_once; service time is timed
// by a RequestSink wrapper between the NetServer and the kv::Server.
#include <sys/prctl.h>

#include <algorithm>
#include <memory>
#include <thread>

#include "bench.h"
#include "kvstore/server.h"
#include "kvstore/sharded_store.h"
#include "net/blocking_client.h"
#include "net/net_server.h"
#include "runtime/heap_verifier.h"
#include "runtime/vm.h"
#include "support/clock.h"
#include "support/rng.h"
#include "support/units.h"

namespace gcbench {
namespace {

constexpr std::uint64_t kRecords = 12000;
constexpr int kConnections = 2;           // one generator thread each
constexpr double kWarmupS = 0.5;
constexpr double kSloMs = 10.0;
constexpr std::size_t kBlockOps = 1000;  // one "iteration" of requests
constexpr std::int64_t kDrainGraceNs = 10'000'000'000;  // after the window

// Offered rate over all connections. CMS gets half of ParallelOld's: at
// 10k ops/s its back-to-back concurrent cycles pause the server ~18% of the
// time and the open loop runs at capacity (see NOTES.md).
double offered_rate(mgc::GcKind gc) {
  return gc == mgc::GcKind::kCms ? 5000.0 : 10000.0;
}

// The paper's §4 server configuration: 64 GB heap, 12 GB young generation
// (scaled), and Cassandra's own CMS initiating occupancy.
mgc::VmConfig server_vm_config(mgc::GcKind gc) {
  mgc::VmConfig cfg = mgc::VmConfig::baseline(gc);
  cfg.heap_bytes = 64ULL * 1024 * mgc::scale::MB;
  cfg.young_bytes = 12ULL * 1024 * mgc::scale::MB;
  cfg.cms_trigger_occupancy = 0.55;
  return cfg;
}

// Times every accepted request from try_submit to its completion. Spans
// are recorded only while `recording` is set (the traced slices of a
// traced run); rejections are always counted.
class TimingSink final : public mgc::kv::RequestSink {
 public:
  struct ServiceSpan {
    std::uint64_t key = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  TimingSink(mgc::kv::RequestSink& backend, std::size_t capacity)
      : backend_(backend), spans_(capacity) {}
  TimingSink(const TimingSink&) = delete;
  TimingSink& operator=(const TimingSink&) = delete;

  mgc::kv::SubmitResult try_submit(const mgc::kv::Request& req,
                                   CompletionFn done) override {
    mgc::kv::SubmitResult r;
    if (recording.load(std::memory_order_relaxed)) {
      const std::int64_t t0 = mgc::now_ns();
      r = backend_.try_submit(
          req, [this, done = std::move(done), t0, key = req.key](
                   const mgc::kv::Response& resp) {
            const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
            if (i < spans_.size()) spans_[i] = {key, t0, mgc::now_ns()};
            done(resp);
          });
    } else {
      r = backend_.try_submit(req, std::move(done));
    }
    if (r != mgc::kv::SubmitResult::kAccepted) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
    }
    return r;
  }

  // Valid once the NetServer has shut down (every completion has run).
  std::vector<ServiceSpan> spans() const {
    const std::size_t n = std::min(next_.load(), spans_.size());
    return {spans_.begin(), spans_.begin() + static_cast<std::ptrdiff_t>(n)};
  }
  std::uint64_t rejected() const { return rejected_.load(); }

  std::atomic<bool> recording{false};

 private:
  mgc::kv::RequestSink& backend_;
  std::vector<ServiceSpan> spans_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

// One server process: VM, one-shard store, one-worker server, the timing
// wrapper and a one-loop NetServer. Members are destroyed in reverse, so
// the front-end stops before the server and the server before the VM.
struct ServerStack {
  ServerStack(mgc::GcKind gc, std::size_t span_capacity)
      : cfg(server_vm_config(gc)),
        vm(cfg),
        store(vm, mgc::kv::StoreConfig::stress_config(cfg.heap_bytes), 1),
        server(vm, store, mgc::kv::ServerConfig{}),
        sink(server, span_capacity),
        net(sink, mgc::net::NetServerConfig{}) {}

  mgc::VmConfig cfg;
  mgc::Vm vm;
  mgc::kv::ShardedStore store;
  mgc::kv::Server server;
  TimingSink sink;
  mgc::net::NetServer net;
};

enum class Result : std::uint8_t { kOk, kFailed, kNotFound, kUnfinished };

struct Sample {
  std::int64_t due_ns = 0;
  // Earliest moment the generator could send: the due time, or the
  // previous response on this connection if that came later.
  std::int64_t ready_ns = 0;
  std::int64_t send_ns = 0;
  std::int64_t done_ns = 0;
  std::uint64_t key = 0;
  mgc::kv::OpType op = mgc::kv::OpType::kRead;
  Result result = Result::kOk;
};

struct Schedule {
  double rate = 0.0;  // requests due per second, all connections
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;       // no request is due at or after this
  std::int64_t deadline_ns = 0;  // requests not sent by now are unfinished
};

// One generator thread: its share of the fixed-rate schedule over its own
// connection. Request content comes only from (seed, thread, index).
void generate(std::uint16_t port, int thread, const Schedule& sched,
              std::uint64_t seed, std::size_t value_len, Progress* progress,
              std::vector<Sample>* out, std::int64_t* cpu_ns) {
  using namespace mgc;
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // wake on time, not +50us
  const std::int64_t cpu0 = thread_cpu_ns();
  net::BlockingClient client("127.0.0.1", port);
  Rng rng(seed * 1000003 + static_cast<std::uint64_t>(thread) + 1);
  const ScrambledZipfian zipf(kRecords);
  std::int64_t prev_done = 0;
  for (std::uint64_t k = 0;; ++k) {
    Sample s;
    s.due_ns = sched.start_ns +
               static_cast<std::int64_t>(
                   static_cast<double>(k * kConnections + static_cast<std::uint64_t>(thread)) *
                   1e9 / sched.rate);
    if (s.due_ns >= sched.end_ns) break;
    s.op = rng.chance(0.5) ? kv::OpType::kRead : kv::OpType::kUpdate;
    s.key = zipf.sample(rng);
    if (progress != nullptr) progress->attempted.fetch_add(1);
    if (now_ns() >= sched.deadline_ns) {
      s.result = Result::kUnfinished;
    } else {
      std::this_thread::sleep_until(TimePoint(std::chrono::nanoseconds(s.due_ns)));
      s.ready_ns = std::max(s.due_ns, prev_done);
      s.send_ns = now_ns();
      kv::Request req;
      req.op = s.op;
      req.key = s.key;
      req.value_len = value_len;
      net::ResponseFrame resp;
      const bool ok = client.call_once(req, &resp);
      s.done_ns = now_ns();
      prev_done = s.done_ns;
      if (!ok || resp.status != kv::ExecStatus::kOk) {
        s.result = Result::kFailed;
      } else if (s.op == kv::OpType::kRead && !resp.found) {
        s.result = Result::kNotFound;
      }
    }
    if (progress != nullptr) {
      if (s.result != Result::kOk) progress->failed.fetch_add(1);
      progress->completed.fetch_add(1);
    }
    out->push_back(s);
  }
  *cpu_ns = thread_cpu_ns() - cpu0;
}

// Runs every generator thread over `sched` and returns all samples in due
// order, with the generators' summed thread CPU time.
std::vector<Sample> drive(ServerStack& stack, const Schedule& sched,
                          std::uint64_t seed, Progress* progress,
                          std::int64_t* cpu_ns) {
  const std::size_t value_len =
      mgc::kv::StoreConfig::stress_config(stack.cfg.heap_bytes).value_len;
  std::vector<std::vector<Sample>> per(kConnections);
  std::vector<std::int64_t> cpu(kConnections, 0);
  const double window_s = mgc::ns_to_s(sched.end_ns - sched.start_ns);
  std::vector<std::thread> threads;
  for (int t = 0; t < kConnections; ++t) {
    per[t].reserve(static_cast<std::size_t>(window_s * sched.rate / kConnections) + 16);
    threads.emplace_back(generate, stack.net.port(), t, std::cref(sched), seed,
                         value_len, progress, &per[t], &cpu[t]);
  }
  for (std::thread& th : threads) th.join();
  std::vector<Sample> all;
  *cpu_ns = 0;
  for (int t = 0; t < kConnections; ++t) {
    all.insert(all.end(), per[t].begin(), per[t].end());
    *cpu_ns += cpu[t];
  }
  std::sort(all.begin(), all.end(),
            [](const Sample& a, const Sample& b) { return a.due_ns < b.due_ns; });
  return all;
}

Schedule schedule_from_now(double rate, double seconds) {
  Schedule s;
  s.rate = rate;
  s.start_ns = mgc::now_ns() + 1'000'000;  // 1 ms for the threads to start
  s.end_ns = s.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  s.deadline_ns = s.end_ns + kDrainGraceNs;
  return s;
}

// Builds a server, loads every record in-process and warms it up with the
// generator. Returns nullptr after recording a problem if the load fails.
std::unique_ptr<ServerStack> set_up(mgc::GcKind gc, std::uint64_t seed,
                                    std::size_t span_capacity,
                                    std::vector<std::string>* problems) {
  using namespace mgc;
  auto stack = std::make_unique<ServerStack>(gc, span_capacity);
  const std::size_t value_len =
      kv::StoreConfig::stress_config(stack->cfg.heap_bytes).value_len;
  for (std::uint64_t key = 0; key < kRecords; ++key) {
    kv::Request req;
    req.op = kv::OpType::kInsert;
    req.key = key;
    req.value_len = value_len;
    if (stack->server.execute(req).status != kv::ExecStatus::kOk) {
      problems->push_back("load phase: insert of key " + std::to_string(key) +
                          " failed");
      return nullptr;
    }
  }
  std::int64_t cpu = 0;
  drive(*stack, schedule_from_now(offered_rate(gc), kWarmupS), seed ^ 0x5741524d, nullptr, &cpu);
  return stack;
}

}  // namespace

Outcome run_ycsb(const Args& args, const Trial& trial, mgc::GcKind gc,
                 Progress& progress) {
  using namespace mgc;
  Outcome out;
  const std::size_t span_capacity =
      static_cast<std::size_t>(trial.seconds * offered_rate(gc)) + 1024;

  Stopwatch setup_watch;
  std::unique_ptr<ServerStack> stack =
      set_up(gc, trial.seed, span_capacity, &out.problems);
  if (stack == nullptr) return out;
  const double setup_s = setup_watch.elapsed_s();
  ServerStack& st = *stack;
  progress.publish_vm(&st.vm);

  // Timed window.
  const GcCostSnapshot cost0 = st.vm.cost_snapshot();
  const std::uint64_t alloc0 = st.vm.total_allocated_bytes();
  const HostWindow host;
  const Schedule sched = schedule_from_now(offered_rate(gc), trial.seconds);
  progress.window_end_ns.store(sched.end_ns);
  // With tracing on, the wrapper records service spans in the traced slices.
  std::atomic<bool> window_done{false};
  std::thread tracer;
  if (args.trace) {
    tracer = std::thread([&st, &sched, &window_done] {
      for (std::int64_t t = sched.start_ns; !window_done.load(); t += kTraceSliceNs) {
        std::this_thread::sleep_until(TimePoint(std::chrono::nanoseconds(t)));
        st.sink.recording.store(in_traced_slice(true, sched.start_ns, t));
      }
      st.sink.recording.store(false);
    });
  }
  std::int64_t client_cpu_ns = 0;
  std::vector<Sample> samples;
  {
    const WindowFaults faults(args.fault);
    samples = drive(st, sched, trial.seed, &progress, &client_cpu_ns);
  }
  window_done.store(true);
  if (tracer.joinable()) tracer.join();
  const std::int64_t stop = now_ns();
  const GcCostSnapshot cost1 = st.vm.cost_snapshot();
  const std::uint64_t alloc1 = st.vm.total_allocated_bytes();
  std::vector<Metric> host_metrics;
  host.finish(&host_metrics);

  // Correctness, outside the timed window: drain equalities per loop, no
  // flush under the stress configuration, a clean heap.
  st.net.shutdown();
  const std::vector<net::NetServerStats> loops = st.net.per_loop_stats();
  for (std::size_t i = 0; i < loops.size(); ++i) {
    const net::NetServerStats& l = loops[i];
    if (l.frames_out + l.dropped_responses != l.frames_in) {
      out.problems.push_back("net loop " + std::to_string(i) + ": frames_out " +
                             std::to_string(l.frames_out) + " + dropped " +
                             std::to_string(l.dropped_responses) + " != frames_in " +
                             std::to_string(l.frames_in));
    }
    if (l.accepted != l.closed) {
      out.problems.push_back("net loop " + std::to_string(i) + ": accepted " +
                             std::to_string(l.accepted) + " != closed " +
                             std::to_string(l.closed));
    }
  }
  const net::NetServerStats net_stats = st.net.stats();
  st.server.shutdown();
  if (st.store.flush_count() != 0) {
    out.problems.push_back("stress configuration flushed the memtable " +
                           std::to_string(st.store.flush_count()) + " times");
  }
  {
    Vm::MutatorScope scope(st.vm, "gcbench-verify");
    const VerifyReport rep = verify_heap_at_safepoint(scope.mutator());
    for (const std::string& p : rep.problems) {
      out.problems.push_back("heap verifier: " + p);
    }
  }
  const std::vector<PauseEvent> window =
      pauses_in(st.vm.gc_log().snapshot(), sched.start_ns, stop);
  progress.publish_vm(nullptr);

  // --- end to end ---
  std::vector<double> lat_ms, lat_untraced, lat_traced, late_ms, read_ms,
      update_ms, block_ms, pause_ms;
  std::size_t failed = 0, within_slo = 0, not_found = 0, failed_reads = 0;
  std::int64_t block_due = 0, block_done = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    if (i % kBlockOps == 0) {
      block_due = s.due_ns;
      block_done = 0;
    }
    if (s.result == Result::kUnfinished) {
      ++failed;
      continue;
    }
    block_done = std::max(block_done, s.done_ns);
    if (i % kBlockOps == kBlockOps - 1) block_ms.push_back(ns_to_ms(block_done - block_due));
    const double ms = ns_to_ms(s.done_ns - s.due_ns);
    lat_ms.push_back(ms);
    (in_traced_slice(args.trace, sched.start_ns, s.send_ns) ? lat_traced : lat_untraced)
        .push_back(ms);
    late_ms.push_back(ns_to_ms(s.send_ns - s.ready_ns));
    (s.op == kv::OpType::kRead ? read_ms : update_ms).push_back(ms);
    if (s.result != Result::kOk) {
      ++failed;
      if (s.op == kv::OpType::kRead) ++failed_reads;
      if (s.result == Result::kNotFound) ++not_found;
    } else if (ms <= kSloMs) {
      ++within_slo;
    }
  }
  if (not_found != 0) {
    out.problems.push_back(std::to_string(not_found) +
                           " reads of loaded keys returned found=false");
  }
  if (failed_reads != not_found && args.fault.empty()) {
    out.problems.push_back(std::to_string(failed_reads - not_found) +
                           " reads of loaded keys did not return kOk");
  }
  for (const PauseEvent& e : window) pause_ms.push_back(e.duration_ms());
  out.attempted = samples.size();
  out.failed = failed;
  out.samples.setup_s = {setup_s};
  out.samples.iter_ms = block_ms;
  out.samples.pause_ms = pause_ms;
  out.samples.lat_ms = lat_ms;
  out.samples.slo_met = within_slo;
  out.samples.slo_total = samples.size();

  // --- per layer ---
  auto& layer = out.per_layer;
  add_gc_layer_metrics(window, cost0, cost1, alloc1 - alloc0,
                       ns_to_s(stop - sched.start_ns), st.cfg.heap_bytes, &layer);
  layer.push_back({"kvstore.rejected", static_cast<double>(st.sink.rejected()),
                   "count", 1});
  layer.push_back({"kvstore.shed", static_cast<double>(st.server.shed_count(0)),
                   "count", 1});
  layer.push_back({"kvstore.flushes", static_cast<double>(st.store.flush_count()),
                   "count", 1});
  layer.push_back({"net.protocol_errors",
                   static_cast<double>(net_stats.protocol_errors), "count", 1});
  layer.push_back({"net.dropped_responses",
                   static_cast<double>(net_stats.dropped_responses), "count", 1});
  layer.push_back({"ycsb.late_p99_ms", quantile(late_ms, 0.99), "ms", late_ms.size()});
  layer.push_back({"ycsb.read_p99_ms", quantile(read_ms, 0.99), "ms", read_ms.size()});
  layer.push_back({"ycsb.update_p99_ms", quantile(update_ms, 0.99), "ms",
                   update_ms.size()});
  layer.push_back({"ycsb.client_cpu_s", ns_to_s(client_cpu_ns), "s", kConnections});
  layer.insert(layer.end(), host_metrics.begin(), host_metrics.end());

  if (args.trace) {
    // Client request spans with the wrapper's service span as the child,
    // matched by key and containment (one request in flight per
    // connection). Self time of a request span = net + client time.
    std::vector<TimingSink::ServiceSpan> service = st.sink.spans();
    std::sort(service.begin(), service.end(),
              [](const auto& a, const auto& b) { return a.start_ns < b.start_ns; });
    std::vector<bool> used(service.size(), false);
    std::vector<Span> spans;
    std::vector<double> service_us, overhead_us;
    std::uint64_t next_id = 1;
    for (const Sample& s : samples) {
      if (s.result == Result::kUnfinished ||
          !in_traced_slice(true, sched.start_ns, s.send_ns)) {
        continue;
      }
      const std::uint64_t req_id = next_id++;
      spans.push_back({req_id, 0, "ycsb.request", s.send_ns, s.done_ns});
      auto it = std::lower_bound(
          service.begin(), service.end(), s.send_ns,
          [](const auto& sp, std::int64_t t) { return sp.start_ns < t; });
      for (; it != service.end() && it->start_ns <= s.done_ns; ++it) {
        const std::size_t idx = static_cast<std::size_t>(it - service.begin());
        if (used[idx] || it->key != s.key || it->end_ns > s.done_ns) continue;
        used[idx] = true;
        spans.push_back({next_id++, req_id, "kvstore.service", it->start_ns, it->end_ns});
        const double svc = static_cast<double>(it->end_ns - it->start_ns) / 1e3;
        service_us.push_back(svc);
        overhead_us.push_back(static_cast<double>(s.done_ns - s.send_ns) / 1e3 - svc);
        break;
      }
    }
    layer.push_back({"kvstore.service_us_p50", quantile(service_us, 0.50), "us",
                     service_us.size()});
    layer.push_back({"kvstore.service_us_p99", quantile(service_us, 0.99), "us",
                     service_us.size()});
    layer.push_back({"net.overhead_us_p50", quantile(overhead_us, 0.50), "us",
                     overhead_us.size()});
    const double untraced = median(lat_untraced);
    layer.push_back({"trace.overhead_share",
                     untraced == 0.0 ? 0.0 : median(lat_traced) / untraced - 1.0,
                     "share", lat_traced.size()});
    const std::string path = trace_path(args, trial);
    if (!write_spans(path, spans, sched.start_ns)) {
      out.problems.push_back("cannot write spans to " + path);
    }
  }

  out.stamp.emplace_back("offered_ops_per_s", std::to_string(sched.rate));
  out.stamp.emplace_back("connections", std::to_string(kConnections));
  out.stamp.emplace_back("records", std::to_string(kRecords));
  out.stamp.emplace_back("gc_threads", std::to_string(st.cfg.effective_gc_threads()));
  return out;
}

}  // namespace gcbench
