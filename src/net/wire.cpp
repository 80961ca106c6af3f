#include "net/wire.h"

#include <cstring>

#include "net/byte_codec.h"
#include "support/check.h"

namespace mgc::net {

void encode_request(const RequestFrame& f, std::vector<std::uint8_t>& out) {
  MGC_CHECK(f.req.value_len <= kMaxValueLen);
  Writer w(out);
  w.u32(kRequestPayloadSize);
  w.u8(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(MsgKind::kRequest));
  w.u8(static_cast<std::uint8_t>(f.req.op));
  w.u64(f.tag);
  w.u64(f.req.key);
  w.u32(static_cast<std::uint32_t>(f.req.value_len));
}

void encode_response(const ResponseFrame& f, std::vector<std::uint8_t>& out) {
  Writer w(out);
  w.u32(kResponsePayloadSize);
  w.u8(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(MsgKind::kResponse));
  w.u8(static_cast<std::uint8_t>(f.status));
  w.u64(f.tag);
  w.u8(f.found ? 1 : 0);
}

void encode_request_batch(const std::vector<RequestFrame>& items,
                          std::vector<std::uint8_t>& out) {
  MGC_CHECK(!items.empty() && items.size() <= kMaxBatchCount);
  const std::size_t payload =
      kBatchHeaderSize + items.size() * kBatchRequestEntrySize;
  out.reserve(out.size() + kLenPrefixSize + payload);
  Writer w(out);
  w.u32(static_cast<std::uint32_t>(payload));
  w.u8(kMagic);
  w.u8(kBatchVersion);
  w.u8(static_cast<std::uint8_t>(MsgKind::kBatchRequest));
  w.u8(0);  // reserved
  w.u32(static_cast<std::uint32_t>(items.size()));
  for (const RequestFrame& f : items) {
    MGC_CHECK(f.req.value_len <= kMaxValueLen);
    w.u8(static_cast<std::uint8_t>(f.req.op));
    w.u64(f.tag);
    w.u64(f.req.key);
    w.u32(static_cast<std::uint32_t>(f.req.value_len));
  }
}

void encode_response_batch(const std::vector<ResponseFrame>& items,
                           std::vector<std::uint8_t>& out) {
  MGC_CHECK(!items.empty() && items.size() <= kMaxBatchCount);
  const std::size_t payload =
      kBatchHeaderSize + items.size() * kBatchResponseEntrySize;
  out.reserve(out.size() + kLenPrefixSize + payload);
  Writer w(out);
  w.u32(static_cast<std::uint32_t>(payload));
  w.u8(kMagic);
  w.u8(kBatchVersion);
  w.u8(static_cast<std::uint8_t>(MsgKind::kBatchResponse));
  w.u8(0);  // reserved
  w.u32(static_cast<std::uint32_t>(items.size()));
  for (const ResponseFrame& f : items) {
    w.u8(static_cast<std::uint8_t>(f.status));
    w.u64(f.tag);
    w.u8(f.found ? 1 : 0);
  }
}

namespace {

// Validates (magic, version, kind, payload_len) coherence as soon as the
// three header bytes are visible, so a malformed frame is rejected before
// the decoder buffers toward its claimed length.
DecodeResult check_header(const std::uint8_t* p, std::uint32_t payload_len) {
  if (p[0] != kMagic) return DecodeResult::kError;
  const std::uint8_t version = p[1];
  const std::uint8_t kind = p[2];
  switch (kind) {
    case static_cast<std::uint8_t>(MsgKind::kRequest):
      if (version != kVersion || payload_len != kRequestPayloadSize)
        return DecodeResult::kError;
      return DecodeResult::kRequest;
    case static_cast<std::uint8_t>(MsgKind::kResponse):
      if (version != kVersion || payload_len != kResponsePayloadSize)
        return DecodeResult::kError;
      return DecodeResult::kResponse;
    case static_cast<std::uint8_t>(MsgKind::kBatchRequest): {
      if (version != kBatchVersion) return DecodeResult::kError;
      if (payload_len < kBatchHeaderSize + kBatchRequestEntrySize ||
          (payload_len - kBatchHeaderSize) % kBatchRequestEntrySize != 0) {
        return DecodeResult::kError;
      }
      return DecodeResult::kBatchRequest;
    }
    case static_cast<std::uint8_t>(MsgKind::kBatchResponse): {
      if (version != kBatchVersion) return DecodeResult::kError;
      if (payload_len < kBatchHeaderSize + kBatchResponseEntrySize ||
          (payload_len - kBatchHeaderSize) % kBatchResponseEntrySize != 0) {
        return DecodeResult::kError;
      }
      return DecodeResult::kBatchResponse;
    }
    default:
      return DecodeResult::kError;
  }
}

// Reads one { op, tag, key, value_len } request body.
bool read_request(Reader& r, RequestFrame* out) {
  const std::uint8_t op = r.u8();
  out->tag = r.u64();
  out->req.key = r.u64();
  const std::uint32_t value_len = r.u32();
  if (!r.ok() || op > static_cast<std::uint8_t>(kv::OpType::kInsert) ||
      value_len > kMaxValueLen) {
    return false;
  }
  out->req.op = static_cast<kv::OpType>(op);
  out->req.value_len = value_len;
  return true;
}

// Reads one { status, tag, found } response body.
bool read_response(Reader& r, ResponseFrame* out) {
  const std::uint8_t status = r.u8();
  out->tag = r.u64();
  const std::uint8_t found = r.u8();
  if (!r.ok() ||
      status > static_cast<std::uint8_t>(kv::ExecStatus::kNotLeader) ||
      found > 1) {
    return false;
  }
  out->status = static_cast<kv::ExecStatus>(status);
  out->found = found != 0;
  return true;
}

// Reads a batch's { reserved, count } and checks count against the payload
// length; 0 means the batch is malformed.
std::uint32_t read_batch_count(Reader& r, std::uint32_t payload_len,
                               std::size_t entry_size) {
  const std::uint8_t reserved = r.u8();
  const std::uint32_t count = r.u32();
  if (!r.ok() || reserved != 0 || count == 0 || count > kMaxBatchCount ||
      payload_len != kBatchHeaderSize + count * entry_size) {
    return 0;
  }
  return count;
}

}  // namespace

DecodeResult decode_any(const std::uint8_t* data, std::size_t len,
                        std::size_t* consumed, DecodedFrame* out) {
  if (len < kLenPrefixSize) return DecodeResult::kNeedMore;
  const std::uint32_t payload_len = Reader(data, kLenPrefixSize).u32();
  // Bound the length *before* waiting for more bytes: an oversized prefix
  // must be rejected immediately, not buffered toward.
  if (payload_len < 4 || payload_len > kMaxBatchPayload)
    return DecodeResult::kError;
  // With the three header bytes visible the (version, kind, length) triple
  // is fully checkable — reject incoherent frames without buffering more.
  if (len < kLenPrefixSize + 3) return DecodeResult::kNeedMore;
  const std::uint8_t* p = data + kLenPrefixSize;
  const DecodeResult kind = check_header(p, payload_len);
  if (kind == DecodeResult::kError) return DecodeResult::kError;
  if (len < kLenPrefixSize + payload_len) return DecodeResult::kNeedMore;

  // The body follows the magic, version and kind bytes.
  Reader r(p + 3, payload_len - 3);
  switch (kind) {
    case DecodeResult::kRequest:
      if (!read_request(r, &out->req)) return DecodeResult::kError;
      break;
    case DecodeResult::kResponse:
      if (!read_response(r, &out->resp)) return DecodeResult::kError;
      break;
    case DecodeResult::kBatchRequest: {
      const std::uint32_t count =
          read_batch_count(r, payload_len, kBatchRequestEntrySize);
      if (count == 0) return DecodeResult::kError;
      out->batch_req.clear();
      out->batch_req.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        RequestFrame f;
        if (!read_request(r, &f)) return DecodeResult::kError;
        out->batch_req.push_back(f);
      }
      break;
    }
    case DecodeResult::kBatchResponse: {
      const std::uint32_t count =
          read_batch_count(r, payload_len, kBatchResponseEntrySize);
      if (count == 0) return DecodeResult::kError;
      out->batch_resp.clear();
      out->batch_resp.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        ResponseFrame f;
        if (!read_response(r, &f)) return DecodeResult::kError;
        out->batch_resp.push_back(f);
      }
      break;
    }
    default:
      return DecodeResult::kError;
  }
  *consumed = kLenPrefixSize + payload_len;
  return kind;
}

}  // namespace mgc::net
