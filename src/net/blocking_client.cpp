#include "net/blocking_client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_map>

namespace mgc::net {

BlockingClient::BlockingClient(const std::string& host, std::uint16_t port,
                               RetryPolicy policy)
    : host_(host),
      port_(port),
      policy_(policy),
      next_tag_(1),
      jitter_rng_(policy.jitter_seed) {
  fd_ = connect_tcp(host_, port_);
  if (fd_.valid()) set_timeouts(fd_.get(), policy_.timeout_ms);
}

int BlockingClient::next_backoff_ms(int prev_ms) {
  if (prev_ms < 0) prev_ms = 0;
  const auto lo = static_cast<std::uint64_t>(
      policy_.backoff_initial_ms > 0 ? policy_.backoff_initial_ms : 0);
  const std::uint64_t hi =
      std::max(lo, 3 * static_cast<std::uint64_t>(prev_ms));
  const std::uint64_t d = jitter_rng_.in_range(lo, hi);
  const auto cap = static_cast<std::uint64_t>(
      policy_.backoff_cap_ms > 0 ? policy_.backoff_cap_ms : 0);
  return static_cast<int>(std::min(d, cap));
}

bool BlockingClient::call_once(const kv::Request& req, ResponseFrame* out) {
  if (!fd_.valid() && !reconnect()) return false;
  return call(req, out);
}

bool BlockingClient::reconnect() {
  fd_.reset();
  // Any buffered bytes belong to the dead connection's response stream.
  rbuf_.clear();
  roff_ = 0;
  fd_ = connect_tcp(host_, port_);
  if (!fd_.valid()) return false;
  set_timeouts(fd_.get(), policy_.timeout_ms);
  ++reconnects_;
  return true;
}

bool BlockingClient::call(const kv::Request& req, ResponseFrame* out) {
  if (!fd_.valid()) return false;
  wbuf_.clear();
  RequestFrame rf;
  rf.req = req;
  rf.tag = next_tag_++;
  encode_request(rf, wbuf_);
  if (!send_all(fd_.get(), wbuf_.data(), wbuf_.size())) {
    fd_.reset();
    return false;
  }

  DecodedFrame df;
  if (read_frame(&df) != DecodeResult::kResponse) {
    fd_.reset();
    return false;
  }
  *out = df.resp;
  // With one request in flight the tag must match; a mismatch means the
  // server cross-wired responses, which callers treat as a transport
  // failure (and tests assert on directly).
  return out->tag == rf.tag;
}

DecodeResult BlockingClient::read_frame(DecodedFrame* df) {
  for (;;) {
    std::size_t consumed = 0;
    const DecodeResult r = decode_any(rbuf_.data() + roff_,
                                      rbuf_.size() - roff_, &consumed, df);
    if (r == DecodeResult::kError) return r;
    if (r != DecodeResult::kNeedMore) {
      roff_ += consumed;
      if (roff_ >= rbuf_.size()) {
        rbuf_.clear();
        roff_ = 0;
      }
      return r;
    }
    // Pull more bytes off the socket (blocking, bounded by the socket
    // timeout — a wedged server surfaces as a failed call here).
    std::uint8_t chunk[4096];
    const ssize_t n = recv_some(fd_.get(), chunk, sizeof(chunk));
    if (n <= 0) return DecodeResult::kError;
    rbuf_.insert(rbuf_.end(), chunk, chunk + n);
  }
}

bool BlockingClient::submit_batch(const std::vector<kv::Request>& reqs,
                                  std::vector<ResponseFrame>* out) {
  if (!fd_.valid() || reqs.empty()) return false;
  wbuf_.clear();
  std::vector<RequestFrame> frames;
  frames.reserve(reqs.size());
  for (const kv::Request& r : reqs) {
    RequestFrame rf;
    rf.req = r;
    rf.tag = next_tag_++;
    frames.push_back(rf);
  }
  // One batch frame per kMaxBatchCount window; all windows go out in a
  // single send so the whole pipeline costs one syscall on this side.
  for (std::size_t off = 0; off < frames.size(); off += kMaxBatchCount) {
    const std::size_t n =
        std::min<std::size_t>(kMaxBatchCount, frames.size() - off);
    const std::vector<RequestFrame> chunk(
        frames.begin() + static_cast<std::ptrdiff_t>(off),
        frames.begin() + static_cast<std::ptrdiff_t>(off + n));
    encode_request_batch(chunk, wbuf_);
  }
  if (!send_all(fd_.get(), wbuf_.data(), wbuf_.size())) {
    fd_.reset();
    return false;
  }

  out->assign(reqs.size(), ResponseFrame{});
  std::unordered_map<std::uint64_t, std::size_t> pending;  // tag -> index
  pending.reserve(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    pending.emplace(frames[i].tag, i);
  }
  // A response with a tag we are not waiting for — never issued, or already
  // answered — means the stream is cross-wired: transport failure.
  const auto deliver = [&](const ResponseFrame& f) {
    auto it = pending.find(f.tag);
    if (it == pending.end()) return false;
    (*out)[it->second] = f;
    pending.erase(it);
    return true;
  };
  DecodedFrame df;
  while (!pending.empty()) {
    bool ok = true;
    switch (read_frame(&df)) {
      case DecodeResult::kResponse:
        ok = deliver(df.resp);
        break;
      case DecodeResult::kBatchResponse:
        for (const ResponseFrame& f : df.batch_resp) {
          if (!deliver(f)) {
            ok = false;
            break;
          }
        }
        break;
      default:  // transport failure, kError, or the server sending requests
        ok = false;
        break;
    }
    if (!ok) {
      fd_.reset();
      return false;
    }
  }
  return true;
}

std::vector<kv::Response> BlockingClient::execute_batch(
    const std::vector<kv::Request>& reqs) {
  std::vector<kv::Response> out(reqs.size());
  for (kv::Response& r : out) r.status = kv::ExecStatus::kShutdown;
  if (reqs.empty()) return out;

  std::vector<std::size_t> todo(reqs.size());
  for (std::size_t i = 0; i < todo.size(); ++i) todo[i] = i;
  int delay_ms = policy_.backoff_initial_ms;
  for (int attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++retries_;
      if (delay_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      }
      delay_ms = next_backoff_ms(delay_ms);
    }
    if (!fd_.valid() && !reconnect()) continue;
    std::vector<kv::Request> window;
    window.reserve(todo.size());
    for (std::size_t idx : todo) window.push_back(reqs[idx]);
    std::vector<ResponseFrame> frames;
    if (!submit_batch(window, &frames)) continue;  // transport: retry window
    std::vector<std::size_t> still;
    for (std::size_t i = 0; i < todo.size(); ++i) {
      out[todo[i]].found = frames[i].found;
      out[todo[i]].status = frames[i].status;
      // Shed under GC pressure: only the shed subset is resent after the
      // backoff, answered entries keep their responses.
      if (frames[i].status == kv::ExecStatus::kOverloaded) {
        still.push_back(todo[i]);
      }
    }
    todo = std::move(still);
    if (todo.empty()) return out;
  }
  return out;
}

kv::Response BlockingClient::execute(const kv::Request& req) {
  kv::Response last;
  last.status = kv::ExecStatus::kShutdown;  // transport never answered
  int delay_ms = policy_.backoff_initial_ms;
  for (int attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++retries_;
      if (delay_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      }
      delay_ms = next_backoff_ms(delay_ms);
    }
    if (!fd_.valid() && !reconnect()) continue;
    ResponseFrame f;
    if (!call(req, &f)) continue;  // transport failure: reconnect and retry
    last.found = f.found;
    last.status = f.status;
    if (last.status != kv::ExecStatus::kOverloaded) return last;
    // Overloaded: the server shed this request under GC pressure. Backing
    // off and retrying is the contract; if every attempt is shed, the
    // caller sees the typed kOverloaded response.
  }
  return last;
}

}  // namespace mgc::net
