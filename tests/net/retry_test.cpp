// Client-side degradation: BlockingClient::execute() must ride out load
// shedding and transport failures the way a real YCSB client box does —
// bounded timeouts, capped exponential backoff, reconnect — and when the
// server is truly gone it must return a typed failure promptly, never hang
// or abort. Paired with the server-side shedding tests: the kOverloaded
// the backend emits under GC pressure is exactly what this retry loop is
// built to absorb.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>

#include "kvstore/server.h"
#include "net/blocking_client.h"
#include "net/net_server.h"
#include "support/fault.h"
#include "support/units.h"

namespace mgc::net {
namespace {

VmConfig small_cfg() {
  VmConfig c;
  c.gc = GcKind::kParNew;
  c.heap_bytes = 24 * MiB;
  c.young_bytes = 6 * MiB;
  c.gc_threads = 2;
  return c;
}

// Tight policy so the whole exhausted-retry path runs in well under a
// second even when every attempt times out.
RetryPolicy fast_policy() {
  RetryPolicy p;
  p.max_attempts = 3;
  p.timeout_ms = 250;
  p.backoff_initial_ms = 1;
  p.backoff_cap_ms = 8;
  return p;
}

struct ServerRig {
  explicit ServerRig(int workers = 2)
      : vm(small_cfg()),
        store(vm, kv::StoreConfig::default_config(small_cfg().heap_bytes),
              /*shards=*/1),
        server(vm, store, {.workers_per_shard = workers}),
        net(std::make_unique<NetServer>(server)) {}

  Vm vm;
  kv::ShardedStore store;
  kv::Server server;
  std::unique_ptr<NetServer> net;
};

TEST(NetRetry, DeadPortReturnsTypedFailureWithoutHanging) {
  // Grab a kernel-assigned port, then close the listener: nothing is home.
  std::uint16_t dead_port = 0;
  {
    UniqueFd listener = listen_loopback(0, 1, &dead_port);
    ASSERT_TRUE(listener.valid());
  }

  const auto t0 = std::chrono::steady_clock::now();
  BlockingClient client("127.0.0.1", dead_port, fast_policy());
  EXPECT_FALSE(client.connected());

  kv::Request req;
  req.op = kv::OpType::kRead;
  req.key = 1;
  const kv::Response resp = client.execute(req);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);

  // The transport never produced a response: typed kShutdown, and every
  // attempt burned a (failed) reconnect rather than spinning or aborting.
  EXPECT_EQ(resp.status, kv::ExecStatus::kShutdown);
  EXPECT_FALSE(resp.found);
  EXPECT_EQ(client.retries(), 2u);  // max_attempts=3 => 2 retries
  EXPECT_LT(elapsed.count(), 5000) << "dead-port execute() must fail fast";
}

TEST(NetRetry, OverloadedResponsesAreBackedOffAndRetried) {
  ServerRig rig;
  BlockingClient client("127.0.0.1", rig.net->port(), fast_policy());
  ASSERT_TRUE(client.connected());

  // The first two submissions shed (exactly what the backend does when the
  // queue is full under GC pressure); the third is accepted.
  fault::Policy p;
  p.limit = 2;
  fault::ScopedFault shed(fault::Site::kKvQueueFull, p);

  kv::Request req;
  req.op = kv::OpType::kInsert;
  req.key = 42;
  req.value_len = 64;
  const kv::Response resp = client.execute(req);
  EXPECT_EQ(resp.status, kv::ExecStatus::kOk);
  EXPECT_EQ(client.retries(), 2u);
  EXPECT_EQ(client.reconnects(), 0u)
      << "shedding is a typed response, not a transport failure";

  // The accepted attempt really executed.
  kv::Request read;
  read.op = kv::OpType::kRead;
  read.key = 42;
  const kv::Response got = client.execute(read);
  EXPECT_EQ(got.status, kv::ExecStatus::kOk);
  EXPECT_TRUE(got.found);

  rig.net->shutdown();
}

TEST(NetRetry, ServerSideEpipeTriggersReconnectAndSucceeds) {
  ServerRig rig;
  BlockingClient client("127.0.0.1", rig.net->port(), fast_policy());
  ASSERT_TRUE(client.connected());

  {
    // One injected EPIPE on the server's response flush: the connection
    // dies mid-round-trip, the client must reconnect and resend.
    fault::Policy once;
    once.limit = 1;
    fault::ScopedFault epipe(fault::Site::kNetEpipe, once);
    kv::Request req;
    req.op = kv::OpType::kInsert;
    req.key = 7;
    req.value_len = 64;
    const kv::Response resp = client.execute(req);
    EXPECT_EQ(resp.status, kv::ExecStatus::kOk);
    EXPECT_GE(client.reconnects(), 1u);
  }

  kv::Request read;
  read.op = kv::OpType::kRead;
  read.key = 7;
  const kv::Response got = client.execute(read);
  EXPECT_TRUE(got.found);

  rig.net->shutdown();
}

TEST(NetRetry, DecorrelatedJitterIsSeededAndBounded) {
  // The backoff schedule is a pure function of jitter_seed: two clients
  // with the same policy walk identical schedules (fault-replay runs that
  // fix the seed reproduce the exact same retry timing), a different seed
  // walks a different one, and every delay honors the [initial, cap] band.
  RetryPolicy p = fast_policy();
  p.backoff_initial_ms = 2;
  p.backoff_cap_ms = 64;
  RetryPolicy q = p;
  q.jitter_seed = p.jitter_seed + 1;

  BlockingClient a("127.0.0.1", 1, p);
  BlockingClient b("127.0.0.1", 1, p);
  BlockingClient c("127.0.0.1", 1, q);

  int pa = p.backoff_initial_ms, pb = pa, pc = pa;
  bool seed_matters = false;
  for (int i = 0; i < 64; ++i) {
    pa = a.next_backoff_ms(pa);
    pb = b.next_backoff_ms(pb);
    pc = c.next_backoff_ms(pc);
    EXPECT_EQ(pa, pb) << "same seed diverged at step " << i;
    EXPECT_GE(pa, p.backoff_initial_ms);
    EXPECT_LE(pa, p.backoff_cap_ms);
    if (pa != pc) seed_matters = true;
  }
  EXPECT_TRUE(seed_matters) << "jitter_seed had no effect on the schedule";
}

TEST(NetRetry, ShortReadsAndWritesAreInvisibleToTheCaller) {
  ServerRig rig;
  // Byte-at-a-time reads and writes on the server side: slower, but the
  // framing layer must reassemble everything and the client sees clean
  // round trips with no retries at all.
  fault::disarm_all();
  std::string err;
  ASSERT_TRUE(fault::parse_spec("net-read-short;net-write-short", &err)) << err;
  BlockingClient client("127.0.0.1", rig.net->port(), fast_policy());
  ASSERT_TRUE(client.connected());

  for (int i = 0; i < 32; ++i) {
    kv::Request req;
    req.op = kv::OpType::kInsert;
    req.key = static_cast<std::uint64_t>(i);
    req.value_len = 48;
    const kv::Response resp = client.execute(req);
    ASSERT_EQ(resp.status, kv::ExecStatus::kOk) << i;
  }
  EXPECT_EQ(client.retries(), 0u);
  EXPECT_EQ(client.reconnects(), 0u);
  fault::disarm_all();

  rig.net->shutdown();
}

}  // namespace
}  // namespace mgc::net
