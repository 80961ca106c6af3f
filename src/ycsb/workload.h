// YCSB-like workload specification: a load phase populating the store and
// a transaction phase running the paper's custom client workload, 50% read
// / 50% update over a scrambled zipfian key distribution (Cooper et al.,
// SoCC'10).
#pragma once

#include <cstddef>
#include <cstdint>

namespace mgc::ycsb {

struct WorkloadSpec {
  std::uint64_t record_count = 10000;
  std::uint64_t operation_count = 100000;
  std::size_t value_len = 1024;
  int client_threads = 4;
  // Requests kept in flight per client thread during the transaction
  // phase. 1 = the classic closed loop (one op, one round trip); >1 sends
  // windows of this many ops as pipelined batch frames, and each op in a
  // window is charged the whole window's round-trip latency — the
  // client-visible cost of an op inside a pipeline.
  int pipeline_depth = 1;

  void validate() const;
};

}  // namespace mgc::ycsb
