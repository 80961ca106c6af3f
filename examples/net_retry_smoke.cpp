// End-to-end smoke of the net client's retry/backoff/reconnect path: a
// loopback kv server with fault sites armed (load shedding, server-side
// EPIPE, byte-at-a-time short I/O) takes a closed-loop run of inserts and
// reads through BlockingClient::execute(). Every operation must end in a
// typed response — kOk here, since the armed faults are all survivable —
// and the run must make retry/reconnect traffic actually happen, or the
// smoke is vacuous. Exits non-zero on any untyped/failed op, on silent
// retry paths, or on a lost write.
//
//   net_retry_smoke [--quick]   (--quick: CI-sized run, ~300 ops)
#include <cstring>
#include <iostream>
#include <string>

#include "kvstore/server.h"
#include "net/blocking_client.h"
#include "net/net_server.h"
#include "support/fault.h"
#include "support/units.h"

int main(int argc, char** argv) {
  using namespace mgc;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::uint64_t ops = quick ? 300 : 5000;

  VmConfig cfg;
  cfg.gc = GcKind::kParNew;
  cfg.heap_bytes = 24 * MiB;
  cfg.young_bytes = 6 * MiB;
  cfg.gc_threads = 2;
  Vm vm(cfg);
  kv::ShardedStore store(vm, kv::StoreConfig::default_config(cfg.heap_bytes),
                        /*shards=*/1);
  kv::Server server(vm, store, {.workers_per_shard = 2});
  net::NetServer netfe(server);

  // Low-probability but persistent faults: enough that a few-hundred-op
  // run reliably sheds, breaks a connection, and dribbles I/O; survivable
  // so every execute() still converges to kOk within the retry budget.
  std::string err;
  if (!fault::parse_spec("kv-queue-full=0.01;net-epipe=0.005;"
                         "net-read-short=0.05;net-write-short=0.05",
                         &err)) {
    std::cerr << "bad fault spec: " << err << "\n";
    return 2;
  }
  fault::set_seed(42);

  net::RetryPolicy policy;
  policy.timeout_ms = 2000;
  policy.backoff_initial_ms = 1;
  policy.backoff_cap_ms = 50;
  net::BlockingClient client("127.0.0.1", netfe.port(), policy);
  if (!client.connected()) {
    std::cerr << "connect failed\n";
    return 2;
  }

  std::uint64_t failed = 0;
  for (std::uint64_t i = 0; i < ops; ++i) {
    kv::Request req;
    req.op = kv::OpType::kInsert;
    req.key = i;
    req.value_len = 64;
    if (client.execute(req).status != kv::ExecStatus::kOk) ++failed;
  }
  for (std::uint64_t i = 0; i < ops; i += 7) {
    kv::Request req;
    req.op = kv::OpType::kRead;
    req.key = i;
    const kv::Response resp = client.execute(req);
    if (resp.status != kv::ExecStatus::kOk || !resp.found) ++failed;
  }
  fault::disarm_all();
  netfe.shutdown();

  std::cout << "ops " << ops << "+" << (ops + 6) / 7 << " reads, failed "
            << failed << ", retries " << client.retries() << ", reconnects "
            << client.reconnects() << "\n";
  if (failed != 0) {
    std::cerr << "FAIL: " << failed << " operations did not converge to kOk\n";
    return 1;
  }
  if (client.retries() == 0) {
    std::cerr << "FAIL: no retries happened — the armed faults never bit, "
                 "the smoke proved nothing\n";
    return 1;
  }
  std::cout << "net retry smoke OK\n";
  return 0;
}
