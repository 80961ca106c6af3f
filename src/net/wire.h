// Binary wire protocol for the kv front-end (paper §4.2: the YCSB client
// talks to the server over a real socket, so server-side GC pauses become
// client-visible response-time spikes).
//
// Framing: every message is a little-endian u32 payload length followed by
// the payload. Payloads carry a fixed header (magic, version, kind) and a
// fixed-size body per kind; the decoder validates every field and never
// reads past the bytes it was given, so adversarial input (truncated,
// oversized-length, bit-flipped frames) is rejected without memory errors.
//
//   Request payload (24 bytes):
//     u8 magic, u8 version=1, u8 kind=0, u8 op, u64 tag, u64 key, u32 value_len
//   Response payload (13 bytes):
//     u8 magic, u8 version=1, u8 kind=1, u8 status, u64 tag, u8 found
//
// Pipelining (protocol version 2): a batch frame carries many logical
// requests/responses in one frame — one syscall on each side moves a whole
// window of operations, which is what lets a client keep N requests in
// flight per connection without N sends.
//
//   Batch request payload (8 + 21*count bytes):
//     u8 magic, u8 version=2, u8 kind=2, u8 reserved=0, u32 count,
//     count x { u8 op, u64 tag, u64 key, u32 value_len }
//   Batch response payload (8 + 10*count bytes):
//     u8 magic, u8 version=2, u8 kind=3, u8 reserved=0, u32 count,
//     count x { u8 status, u64 tag, u8 found }
//
// count is bounded (kMaxBatchCount) and the payload length must match the
// count exactly; a frame that fails any bound is rejected before buffering.
//
// The tag is chosen by the client and echoed verbatim in the response, so
// clients (and tests) can detect cross-wired responses. Batch entries keep
// their individual tags — responses to one batch may arrive as any mix of
// single/batch frames, in any order across shards.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kvstore/server.h"

namespace mgc::net {

inline constexpr std::uint8_t kMagic = 0xC5;
inline constexpr std::uint8_t kVersion = 1;       // single-op frames
inline constexpr std::uint8_t kBatchVersion = 2;  // pipelined batch frames

// Hard decode bounds. Single-op payloads are fixed-size; batch payloads
// are exactly header + count * entry, with the count capped, so an absurd
// length prefix is still rejected before any buffering happens.
inline constexpr std::uint32_t kMaxPayload = 64;
inline constexpr std::uint32_t kMaxValueLen = 1u << 20;
inline constexpr std::uint32_t kMaxBatchCount = 1024;

inline constexpr std::size_t kLenPrefixSize = 4;
inline constexpr std::size_t kRequestPayloadSize = 24;
inline constexpr std::size_t kResponsePayloadSize = 13;
inline constexpr std::size_t kBatchHeaderSize = 8;
inline constexpr std::size_t kBatchRequestEntrySize = 21;
inline constexpr std::size_t kBatchResponseEntrySize = 10;
inline constexpr std::uint32_t kMaxBatchPayload = static_cast<std::uint32_t>(
    kBatchHeaderSize + kMaxBatchCount * kBatchRequestEntrySize);

enum class MsgKind : std::uint8_t {
  kRequest = 0,
  kResponse = 1,
  kBatchRequest = 2,
  kBatchResponse = 3,
  // Replication-plane frames (version 2). Client-facing decoders reject
  // them: decode_any's header check recognizes only the four kinds above,
  // so a replication frame arriving on a client connection is a protocol
  // error, exactly like any other unknown kind. The strict codec for these
  // lives in replication/repl_wire.{h,cpp}.
  kReplAppend = 4,
  kReplAck = 5,
  kReplHeartbeat = 6,
  kReplVoteReq = 7,
  kReplVoteResp = 8,
  kReplHello = 9,
};

struct RequestFrame {
  kv::Request req;
  std::uint64_t tag = 0;
};

struct ResponseFrame {
  std::uint64_t tag = 0;
  kv::ExecStatus status = kv::ExecStatus::kOk;
  bool found = false;
};

// Appends one encoded frame to `out` (length prefix included).
void encode_request(const RequestFrame& f, std::vector<std::uint8_t>& out);
void encode_response(const ResponseFrame& f, std::vector<std::uint8_t>& out);

// Appends one batch frame carrying all the given items (1..kMaxBatchCount;
// MGC_CHECKed — callers split larger windows).
void encode_request_batch(const std::vector<RequestFrame>& items,
                          std::vector<std::uint8_t>& out);
void encode_response_batch(const std::vector<ResponseFrame>& items,
                           std::vector<std::uint8_t>& out);

enum class DecodeResult {
  kNeedMore,       // not enough bytes yet for a whole frame — keep buffering
  kRequest,        // *req filled, *consumed bytes eaten
  kResponse,       // *resp filled, *consumed bytes eaten
  kBatchRequest,   // batch_req filled, *consumed bytes eaten
  kBatchResponse,  // batch_resp filled, *consumed bytes eaten
  kError,          // malformed frame — the connection must be dropped
};

// One decoded frame of any kind; only the member matching the returned
// DecodeResult is meaningful.
struct DecodedFrame {
  RequestFrame req;
  ResponseFrame resp;
  std::vector<RequestFrame> batch_req;
  std::vector<ResponseFrame> batch_resp;
};

// Attempts to decode one frame (any kind, both protocol versions) from
// [data, data+len). On success sets *consumed and fills the matching
// member of *out; on kNeedMore and kError nothing is consumed. Never reads
// outside [data, data+len).
DecodeResult decode_any(const std::uint8_t* data, std::size_t len,
                        std::size_t* consumed, DecodedFrame* out);

}  // namespace mgc::net
