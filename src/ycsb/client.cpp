#include "ycsb/client.h"

#include <thread>

#include "net/blocking_client.h"
#include "support/check.h"
#include "support/clock.h"
#include "support/rng.h"

namespace mgc::ycsb {
namespace {

// An op the server did not answer with kOk is counted, not timed.
void record(kv::OpType op, const kv::Response& resp, std::int64_t start_ns,
            std::int64_t latency_ns, PhaseResult& out) {
  if (resp.status != kv::ExecStatus::kOk) {
    ++out.failed;
    return;
  }
  out.samples.push_back({start_ns, latency_ns, op});
}

// Runs `body(t, conn, out)` on `threads` client threads, each with its own
// connection to `port`, and merges what they recorded. The connection is
// opened on the client thread itself so its cost never lands inside a
// timed sample.
template <typename Body>
PhaseResult run_client_threads(int threads, std::uint16_t port, Body body) {
  PhaseResult result;
  std::vector<PhaseResult> per_thread(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  result.start_ns = now_ns();
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([t, port, &body, &per_thread] {
      net::BlockingClient conn("127.0.0.1", port);
      MGC_CHECK_MSG(conn.connected(), "ycsb: cannot connect to kv server");
      body(t, conn, per_thread[static_cast<std::size_t>(t)]);
    });
  }
  for (auto& t : pool) t.join();
  result.end_ns = now_ns();
  for (const PhaseResult& r : per_thread) {
    result.samples.insert(result.samples.end(), r.samples.begin(),
                          r.samples.end());
    result.failed += r.failed;
  }
  return result;
}

}  // namespace

double PhaseResult::duration_s() const { return ns_to_s(end_ns - start_ns); }

double PhaseResult::throughput_ops_s() const {
  const double d = duration_s();
  return d > 0 ? static_cast<double>(samples.size()) / d : 0.0;
}

Client::Client(std::uint16_t port, const WorkloadSpec& spec,
               std::uint64_t seed)
    : port_(port), spec_(spec), seed_(seed) {
  spec_.validate();
}

PhaseResult Client::load() {
  const auto threads = static_cast<std::uint64_t>(spec_.client_threads);
  return run_client_threads(
      spec_.client_threads, port_,
      [&](int t, net::BlockingClient& conn, PhaseResult& out) {
        for (auto key = static_cast<std::uint64_t>(t);
             key < spec_.record_count; key += threads) {
          const kv::Request req{.op = kv::OpType::kInsert,
                                .key = key,
                                .value_len = spec_.value_len};
          const std::int64_t t0 = now_ns();
          const kv::Response resp = conn.execute(req);
          record(req.op, resp, t0, now_ns() - t0, out);
        }
      });
}

PhaseResult Client::run() {
  const auto threads = static_cast<std::uint64_t>(spec_.client_threads);
  const auto depth = static_cast<std::size_t>(spec_.pipeline_depth);
  return run_client_threads(
      spec_.client_threads, port_,
      [&](int t, net::BlockingClient& conn, PhaseResult& out) {
        // The remainder goes one op each to the first threads, so the
        // phase issues exactly operation_count ops.
        const auto ut = static_cast<std::uint64_t>(t);
        const std::uint64_t ops =
            spec_.operation_count / threads +
            (ut < spec_.operation_count % threads ? 1 : 0);
        Rng rng(seed_ * 1000003 + ut);
        ScrambledZipfian zipf(spec_.record_count);
        out.samples.reserve(ops);
        std::vector<kv::Request> window;
        std::vector<kv::Response> responses;
        window.reserve(depth);
        for (std::uint64_t i = 0; i < ops; i += window.size()) {
          window.clear();
          while (window.size() < depth && i + window.size() < ops) {
            kv::Request req;
            if (rng.unit() < 0.5) {
              req.op = kv::OpType::kRead;
            } else {
              req.op = kv::OpType::kUpdate;
              req.value_len = spec_.value_len;
            }
            req.key = zipf.sample(rng);
            window.push_back(req);
          }
          // Depth 1 is the classic closed loop of single frames; deeper
          // windows ride one batch round trip.
          const std::int64_t t0 = now_ns();
          if (depth == 1) {
            responses.assign(1, conn.execute(window.front()));
          } else {
            responses = conn.execute_batch(window);
          }
          // Every op of a window is charged the window's round trip.
          const std::int64_t lat = now_ns() - t0;
          for (std::size_t k = 0; k < window.size(); ++k) {
            record(window[k].op, responses[k], t0, lat, out);
          }
        }
      });
}

}  // namespace mgc::ycsb
