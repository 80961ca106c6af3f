// YCSB-like client driver. Client threads are deliberately *not* VM
// mutators — they model the paper's separate 16-core client machine. Each
// thread opens its own loopback TCP connection to a net::NetServer and
// times the full socket round trip around every request, so a server-side
// stop-the-world pause reaches the samples the way it reaches a real
// client: through the network.
#pragma once

#include <cstdint>
#include <vector>

#include "kvstore/server.h"
#include "ycsb/workload.h"

namespace mgc::ycsb {

struct OpSample {
  std::int64_t start_ns = 0;    // absolute Clock time
  std::int64_t latency_ns = 0;
  kv::OpType op = kv::OpType::kRead;
};

struct PhaseResult {
  // One sample per op the server answered with kOk.
  std::vector<OpSample> samples;
  // Ops that never succeeded: shed (kOverloaded) or given up on after
  // the connection's retries (kShutdown). Not timed.
  std::uint64_t failed = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double duration_s() const;
  double throughput_ops_s() const;
};

class Client {
 public:
  // Connects every client thread to the NetServer listening on loopback
  // `port`.
  Client(std::uint16_t port, const WorkloadSpec& spec, std::uint64_t seed);

  // Load phase: inserts records [0, record_count).
  PhaseResult load();
  // Transaction phase: exactly operation_count ops of the 50/50 mix.
  PhaseResult run();

 private:
  std::uint16_t port_;
  WorkloadSpec spec_;
  std::uint64_t seed_;
};

}  // namespace mgc::ycsb
