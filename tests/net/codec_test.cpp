// Wire-codec round-trip and adversarial decode tests. The fuzz loops are
// deterministic (support/rng.h, fixed seeds) and feed truncated,
// oversized-length, and bit-flipped frames; the decoder must reject them
// (or, for flips that still form a valid frame, decode canonically)
// without ever reading out of bounds — ASan enforces the "out of bounds"
// half when this binary runs in the sanitizer jobs.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "net/wire.h"
#include "support/rng.h"

namespace mgc::net {
namespace {

// Copies the bytes into an exactly-sized heap block so ASan catches any
// read past the end, then decodes.
DecodeResult decode_exact(const std::vector<std::uint8_t>& bytes,
                          std::size_t* consumed, DecodedFrame* out) {
  std::vector<std::uint8_t> exact(bytes);
  *consumed = 0;
  return decode_any(exact.data(), exact.size(), consumed, out);
}

TEST(NetCodec, RequestRoundTripAllOpsByteExact) {
  Rng rng(1);
  for (kv::OpType op :
       {kv::OpType::kRead, kv::OpType::kUpdate, kv::OpType::kInsert}) {
    for (int i = 0; i < 100; ++i) {
      RequestFrame in;
      in.req.op = op;
      in.req.key = rng.next();
      in.req.value_len = static_cast<std::size_t>(rng.below(kMaxValueLen + 1));
      in.tag = rng.next();

      std::vector<std::uint8_t> bytes;
      encode_request(in, bytes);
      ASSERT_EQ(bytes.size(), kLenPrefixSize + kRequestPayloadSize);

      DecodedFrame out;
      std::size_t consumed = 0;
      ASSERT_EQ(decode_exact(bytes, &consumed, &out), DecodeResult::kRequest);
      EXPECT_EQ(consumed, bytes.size());
      EXPECT_EQ(out.req.req.op, in.req.op);
      EXPECT_EQ(out.req.req.key, in.req.key);
      EXPECT_EQ(out.req.req.value_len, in.req.value_len);
      EXPECT_EQ(out.req.tag, in.tag);

      // Canonical codec: re-encoding the decoded frame reproduces the
      // original bytes exactly.
      std::vector<std::uint8_t> again;
      encode_request(out.req, again);
      EXPECT_EQ(again, bytes);
    }
  }
}

TEST(NetCodec, ResponseRoundTripByteExact) {
  Rng rng(2);
  for (kv::ExecStatus st : {kv::ExecStatus::kOk, kv::ExecStatus::kShutdown}) {
    for (bool found : {false, true}) {
      ResponseFrame in;
      in.tag = rng.next();
      in.status = st;
      in.found = found;
      std::vector<std::uint8_t> bytes;
      encode_response(in, bytes);
      ASSERT_EQ(bytes.size(), kLenPrefixSize + kResponsePayloadSize);

      DecodedFrame out;
      std::size_t consumed = 0;
      ASSERT_EQ(decode_exact(bytes, &consumed, &out), DecodeResult::kResponse);
      EXPECT_EQ(consumed, bytes.size());
      EXPECT_EQ(out.resp.tag, in.tag);
      EXPECT_EQ(out.resp.status, in.status);
      EXPECT_EQ(out.resp.found, in.found);

      std::vector<std::uint8_t> again;
      encode_response(out.resp, again);
      EXPECT_EQ(again, bytes);
    }
  }
}

TEST(NetCodec, BackToBackFramesDecodeSequentially) {
  std::vector<std::uint8_t> bytes;
  const int kFrames = 7;
  for (int i = 0; i < kFrames; ++i) {
    RequestFrame f;
    f.req.op = kv::OpType::kInsert;
    f.req.key = static_cast<std::uint64_t>(i);
    f.req.value_len = 64;
    f.tag = 1000 + static_cast<std::uint64_t>(i);
    encode_request(f, bytes);
  }
  std::size_t off = 0;
  for (int i = 0; i < kFrames; ++i) {
    DecodedFrame out;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_any(bytes.data() + off, bytes.size() - off, &consumed,
                         &out),
              DecodeResult::kRequest);
    EXPECT_EQ(out.req.req.key, static_cast<std::uint64_t>(i));
    EXPECT_EQ(out.req.tag, 1000u + static_cast<std::uint64_t>(i));
    off += consumed;
  }
  EXPECT_EQ(off, bytes.size());
}

TEST(NetCodec, TruncatedFramesAreNeverAccepted) {
  RequestFrame f;
  f.req.op = kv::OpType::kUpdate;
  f.req.key = 0x1122334455667788ULL;
  f.req.value_len = 900;
  f.tag = 0xdeadbeefcafef00dULL;
  std::vector<std::uint8_t> full;
  encode_request(f, full);

  for (std::size_t len = 0; len < full.size(); ++len) {
    std::vector<std::uint8_t> prefix(full.begin(),
                                     full.begin() + static_cast<long>(len));
    DecodedFrame out;
    std::size_t consumed = 99;
    const DecodeResult r = decode_exact(prefix, &consumed, &out);
    EXPECT_EQ(r, DecodeResult::kNeedMore) << "prefix length " << len;
    EXPECT_EQ(consumed, 0u) << "nothing may be consumed on a partial frame";
  }
}

TEST(NetCodec, OversizedLengthPrefixRejectedImmediately) {
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    // Anything past the batch-frame ceiling (the overall cap since protocol
    // version 2) must be rejected with only the 4 prefix bytes present.
    const std::uint32_t bogus =
        kMaxBatchPayload + 1 +
        static_cast<std::uint32_t>(rng.below(0xFFFFFF00u - kMaxBatchPayload));
    std::vector<std::uint8_t> bytes(4);
    for (int b = 0; b < 4; ++b)
      bytes[static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(bogus >> (8 * b));
    DecodedFrame out;
    std::size_t consumed = 0;
    // Rejected with only the prefix present: the decoder must not ask for
    // `bogus` more bytes first (that would let a client wedge the server
    // buffer).
    EXPECT_EQ(decode_exact(bytes, &consumed, &out), DecodeResult::kError);
  }
  // Undersized (< header) lengths are equally malformed.
  for (std::uint32_t tiny = 0; tiny < 4; ++tiny) {
    std::vector<std::uint8_t> bytes(4);
    for (int b = 0; b < 4; ++b)
      bytes[static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(tiny >> (8 * b));
    DecodedFrame out;
    std::size_t consumed = 0;
    EXPECT_EQ(decode_exact(bytes, &consumed, &out), DecodeResult::kError);
  }
}

TEST(NetCodec, PlausibleLengthBadHeaderRejectedBeforeBuffering) {
  // A length inside the batch envelope but an incoherent header: the
  // decoder must reject as soon as the three header bytes are visible
  // instead of buffering toward the claimed length (that would let a
  // client park ~21 KB per connection behind a junk prefix).
  const std::uint32_t claimed = kBatchHeaderSize + 40 * kBatchRequestEntrySize;
  struct BadHeader {
    std::uint8_t magic, version, kind;
  };
  const BadHeader cases[] = {
      {0x00, kBatchVersion, 2},  // wrong magic
      {kMagic, 9, 2},            // unknown version
      {kMagic, kBatchVersion, 7},// unknown kind
      {kMagic, kVersion, 2},     // batch kind under version 1
      {kMagic, kBatchVersion, 0},// single-op kind with a batch-sized length
  };
  for (const BadHeader& bc : cases) {
    std::vector<std::uint8_t> bytes;
    for (int b = 0; b < 4; ++b)
      bytes.push_back(static_cast<std::uint8_t>(claimed >> (8 * b)));
    bytes.push_back(bc.magic);
    bytes.push_back(bc.version);
    bytes.push_back(bc.kind);
    DecodedFrame out;
    std::size_t consumed = 0;
    std::vector<std::uint8_t> exact(bytes);
    EXPECT_EQ(decode_any(exact.data(), exact.size(), &consumed, &out),
              DecodeResult::kError)
        << "magic=" << int(bc.magic) << " version=" << int(bc.version)
        << " kind=" << int(bc.kind);
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(NetCodec, BatchRequestRoundTripByteExact) {
  Rng rng(11);
  for (const std::size_t count : {std::size_t{1}, std::size_t{7},
                                  std::size_t{kMaxBatchCount}}) {
    std::vector<RequestFrame> in(count);
    for (RequestFrame& f : in) {
      f.req.op = static_cast<kv::OpType>(rng.below(3));
      f.req.key = rng.next();
      f.req.value_len = static_cast<std::size_t>(rng.below(kMaxValueLen + 1));
      f.tag = rng.next();
    }
    std::vector<std::uint8_t> bytes;
    encode_request_batch(in, bytes);
    ASSERT_EQ(bytes.size(), kLenPrefixSize + kBatchHeaderSize +
                                count * kBatchRequestEntrySize);

    DecodedFrame out;
    std::size_t consumed = 0;
    std::vector<std::uint8_t> exact(bytes);
    ASSERT_EQ(decode_any(exact.data(), exact.size(), &consumed, &out),
              DecodeResult::kBatchRequest);
    EXPECT_EQ(consumed, bytes.size());
    ASSERT_EQ(out.batch_req.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(out.batch_req[i].req.op, in[i].req.op);
      EXPECT_EQ(out.batch_req[i].req.key, in[i].req.key);
      EXPECT_EQ(out.batch_req[i].req.value_len, in[i].req.value_len);
      EXPECT_EQ(out.batch_req[i].tag, in[i].tag);
    }
    // Canonical: re-encoding reproduces the original bytes.
    std::vector<std::uint8_t> again;
    encode_request_batch(out.batch_req, again);
    EXPECT_EQ(again, bytes);
  }
}

TEST(NetCodec, BatchResponseRoundTripByteExact) {
  Rng rng(12);
  std::vector<ResponseFrame> in(33);
  for (ResponseFrame& f : in) {
    f.tag = rng.next();
    f.status = static_cast<kv::ExecStatus>(rng.below(3));
    f.found = rng.below(2) == 1;
  }
  std::vector<std::uint8_t> bytes;
  encode_response_batch(in, bytes);

  DecodedFrame out;
  std::size_t consumed = 0;
  std::vector<std::uint8_t> exact(bytes);
  ASSERT_EQ(decode_any(exact.data(), exact.size(), &consumed, &out),
            DecodeResult::kBatchResponse);
  EXPECT_EQ(consumed, bytes.size());
  ASSERT_EQ(out.batch_resp.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out.batch_resp[i].tag, in[i].tag);
    EXPECT_EQ(out.batch_resp[i].status, in[i].status);
    EXPECT_EQ(out.batch_resp[i].found, in[i].found);
  }
  std::vector<std::uint8_t> again;
  encode_response_batch(out.batch_resp, again);
  EXPECT_EQ(again, bytes);
}

TEST(NetCodec, BatchCountMustMatchPayloadExactly) {
  std::vector<RequestFrame> in(5);
  for (std::size_t i = 0; i < in.size(); ++i) in[i].tag = i;
  std::vector<std::uint8_t> bytes;
  encode_request_batch(in, bytes);

  // Corrupt the count field (offset 4+4): every mismatch against the
  // actual payload length must be rejected.
  for (const std::uint32_t bad_count : {0u, 4u, 6u, 1024u, 0xFFFFFFFFu}) {
    std::vector<std::uint8_t> mutated(bytes);
    for (int b = 0; b < 4; ++b)
      mutated[kLenPrefixSize + 4 + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(bad_count >> (8 * b));
    DecodedFrame out;
    std::size_t consumed = 0;
    EXPECT_EQ(decode_any(mutated.data(), mutated.size(), &consumed, &out),
              DecodeResult::kError)
        << "count " << bad_count;
  }
  // Nonzero reserved byte is equally malformed.
  std::vector<std::uint8_t> mutated(bytes);
  mutated[kLenPrefixSize + 3] = 1;
  DecodedFrame out;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_any(mutated.data(), mutated.size(), &consumed, &out),
            DecodeResult::kError);
}

// Golden bytes: one frame of every client kind, spelled out by hand from
// the layout in wire.h. The round-trip tests above cannot catch a mistake
// made the same way by encoder and decoder (byte order, field order, a
// shifted offset); these literals can. Every multi-byte field holds a value
// with distinct nonzero bytes so a byte-order slip changes the encoding.
TEST(NetCodec, GoldenBytesPinEveryClientKind) {
  RequestFrame req;
  req.req.op = kv::OpType::kUpdate;
  req.req.key = 0x0102030405060708ULL;
  req.req.value_len = 0x000A0B0C;
  req.tag = 0x1122334455667788ULL;
  const std::vector<std::uint8_t> req_bytes = {
      0x18, 0x00, 0x00, 0x00,                          // len 24
      0xC5, 0x01, 0x00, 0x01,                          // magic v1 kind op
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // tag
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // key
      0x0C, 0x0B, 0x0A, 0x00};                         // value_len

  ResponseFrame resp;
  resp.tag = 0x8877665544332211ULL;
  resp.status = kv::ExecStatus::kOverloaded;
  resp.found = true;
  const std::vector<std::uint8_t> resp_bytes = {
      0x0D, 0x00, 0x00, 0x00,                          // len 13
      0xC5, 0x01, 0x01, 0x02,                          // magic v1 kind status
      0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88,  // tag
      0x01};                                           // found

  std::vector<RequestFrame> breq(2);
  breq[0].req.op = kv::OpType::kRead;
  breq[0].tag = 0x0102;
  breq[0].req.key = 0x0300000000000004ULL;
  breq[0].req.value_len = 0x0506;
  breq[1].req.op = kv::OpType::kInsert;
  breq[1].tag = 0x0700000000000008ULL;
  breq[1].req.key = 0x090A;
  breq[1].req.value_len = kMaxValueLen;
  const std::vector<std::uint8_t> breq_bytes = {
      0x32, 0x00, 0x00, 0x00,                          // len 50
      0xC5, 0x02, 0x02, 0x00,                          // magic v2 kind rsvd
      0x02, 0x00, 0x00, 0x00,                          // count
      0x00,                                            // [0] op
      0x02, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // [0] tag
      0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03,  // [0] key
      0x06, 0x05, 0x00, 0x00,                          // [0] value_len
      0x02,                                            // [1] op
      0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07,  // [1] tag
      0x0A, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // [1] key
      0x00, 0x00, 0x10, 0x00};                         // [1] value_len

  std::vector<ResponseFrame> bresp(2);
  bresp[0].status = kv::ExecStatus::kOk;
  bresp[0].tag = 0x0102;
  bresp[0].found = true;
  bresp[1].status = kv::ExecStatus::kNotLeader;
  bresp[1].tag = 0x0B0000000000000CULL;
  bresp[1].found = false;
  const std::vector<std::uint8_t> bresp_bytes = {
      0x1C, 0x00, 0x00, 0x00,                          // len 28
      0xC5, 0x02, 0x03, 0x00,                          // magic v2 kind rsvd
      0x02, 0x00, 0x00, 0x00,                          // count
      0x00,                                            // [0] status
      0x02, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // [0] tag
      0x01,                                            // [0] found
      0x03,                                            // [1] status
      0x0C, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0B,  // [1] tag
      0x00};                                           // [1] found

  std::vector<std::uint8_t> bytes;
  encode_request(req, bytes);
  EXPECT_EQ(bytes, req_bytes);
  bytes.clear();
  encode_response(resp, bytes);
  EXPECT_EQ(bytes, resp_bytes);
  bytes.clear();
  encode_request_batch(breq, bytes);
  EXPECT_EQ(bytes, breq_bytes);
  bytes.clear();
  encode_response_batch(bresp, bytes);
  EXPECT_EQ(bytes, bresp_bytes);

  // And the decoder reads every field back from the literal bytes.
  DecodedFrame out;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_any(req_bytes.data(), req_bytes.size(), &consumed, &out),
            DecodeResult::kRequest);
  EXPECT_EQ(consumed, req_bytes.size());
  EXPECT_EQ(out.req.req.op, req.req.op);
  EXPECT_EQ(out.req.req.key, req.req.key);
  EXPECT_EQ(out.req.req.value_len, req.req.value_len);
  EXPECT_EQ(out.req.tag, req.tag);

  ASSERT_EQ(decode_any(resp_bytes.data(), resp_bytes.size(), &consumed, &out),
            DecodeResult::kResponse);
  EXPECT_EQ(consumed, resp_bytes.size());
  EXPECT_EQ(out.resp.tag, resp.tag);
  EXPECT_EQ(out.resp.status, resp.status);
  EXPECT_EQ(out.resp.found, resp.found);

  ASSERT_EQ(decode_any(breq_bytes.data(), breq_bytes.size(), &consumed, &out),
            DecodeResult::kBatchRequest);
  EXPECT_EQ(consumed, breq_bytes.size());
  ASSERT_EQ(out.batch_req.size(), breq.size());
  for (std::size_t i = 0; i < breq.size(); ++i) {
    EXPECT_EQ(out.batch_req[i].req.op, breq[i].req.op) << i;
    EXPECT_EQ(out.batch_req[i].req.key, breq[i].req.key) << i;
    EXPECT_EQ(out.batch_req[i].req.value_len, breq[i].req.value_len) << i;
    EXPECT_EQ(out.batch_req[i].tag, breq[i].tag) << i;
  }

  ASSERT_EQ(
      decode_any(bresp_bytes.data(), bresp_bytes.size(), &consumed, &out),
      DecodeResult::kBatchResponse);
  EXPECT_EQ(consumed, bresp_bytes.size());
  ASSERT_EQ(out.batch_resp.size(), bresp.size());
  for (std::size_t i = 0; i < bresp.size(); ++i) {
    EXPECT_EQ(out.batch_resp[i].tag, bresp[i].tag) << i;
    EXPECT_EQ(out.batch_resp[i].status, bresp[i].status) << i;
    EXPECT_EQ(out.batch_resp[i].found, bresp[i].found) << i;
  }
}

TEST(NetCodec, TruncatedBatchFramesAreNeverAccepted) {
  std::vector<RequestFrame> in(3);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i].tag = 100 + i;
    in[i].req.key = i;
  }
  std::vector<std::uint8_t> full;
  encode_request_batch(in, full);
  for (std::size_t len = 0; len < full.size(); ++len) {
    std::vector<std::uint8_t> prefix(full.begin(),
                                     full.begin() + static_cast<long>(len));
    DecodedFrame out;
    std::size_t consumed = 0;
    EXPECT_EQ(decode_any(prefix.data(), prefix.size(), &consumed, &out),
              DecodeResult::kNeedMore)
        << "prefix length " << len;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(NetCodec, BatchBitFlipFuzzNeverReadsOutOfBoundsOrAborts) {
  Rng rng(0xBA7C4);
  int rejected = 0, still_valid = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t count = 1 + rng.below(16);
    std::vector<RequestFrame> in(count);
    for (RequestFrame& f : in) {
      f.req.op = static_cast<kv::OpType>(rng.below(3));
      f.req.key = rng.next();
      f.req.value_len = static_cast<std::size_t>(rng.below(kMaxValueLen + 1));
      f.tag = rng.next();
    }
    std::vector<std::uint8_t> bytes;
    encode_request_batch(in, bytes);
    const int flips = 1 + static_cast<int>(rng.below(3));
    for (int b = 0; b < flips; ++b) {
      const std::size_t bit = rng.below(bytes.size() * 8);
      bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }

    DecodedFrame out;
    std::size_t consumed = 0;
    std::vector<std::uint8_t> exact(bytes);
    const DecodeResult r =
        decode_any(exact.data(), exact.size(), &consumed, &out);
    switch (r) {
      case DecodeResult::kError:
      case DecodeResult::kNeedMore:  // flip landed in the length prefix
        ++rejected;
        break;
      case DecodeResult::kBatchRequest: {
        // Flip landed in an entry's tag/key/value_len and still forms a
        // valid batch: decoding must stay canonical.
        ++still_valid;
        EXPECT_EQ(consumed, bytes.size());
        std::vector<std::uint8_t> again;
        encode_request_batch(out.batch_req, again);
        EXPECT_EQ(again, bytes);
        break;
      }
      default:
        // A batch frame cannot flip into a well-formed single frame: their
        // payload lengths differ (8+21n vs 24/13) for every n.
        ADD_FAILURE() << "batch flipped into kind " << static_cast<int>(r);
        break;
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(still_valid, 0);
}

TEST(NetCodec, BatchGarbageFuzzIsMemorySafe) {
  Rng rng(0x6A5BA6E);
  for (int iter = 0; iter < 4000; ++iter) {
    // Garbage sized around the batch envelope, with a plausible prefix
    // spliced in half the time so the fuzz reaches past the length check.
    const std::size_t len = rng.below(600);
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
    if (len >= 7 && rng.below(2) == 0) {
      const std::uint32_t claimed = static_cast<std::uint32_t>(
          kBatchHeaderSize +
          (1 + rng.below(kMaxBatchCount)) * kBatchRequestEntrySize);
      for (int b = 0; b < 4; ++b)
        bytes[static_cast<std::size_t>(b)] =
            static_cast<std::uint8_t>(claimed >> (8 * b));
      bytes[4] = kMagic;
      bytes[5] = kBatchVersion;
      bytes[6] = 2 + static_cast<std::uint8_t>(rng.below(2));  // batch kinds
    }
    DecodedFrame out;
    std::size_t consumed = 0;
    std::vector<std::uint8_t> exact(bytes);
    const DecodeResult r =
        decode_any(exact.data(), exact.size(), &consumed, &out);
    if (r == DecodeResult::kBatchRequest || r == DecodeResult::kBatchResponse) {
      EXPECT_LE(consumed, bytes.size());
      EXPECT_GT(consumed, 0u);
    }
  }
}

TEST(NetCodec, BitFlipFuzzNeverReadsOutOfBoundsOrAborts) {
  Rng rng(0xF00D);
  int rejected = 0, still_valid = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    RequestFrame f;
    f.req.op = static_cast<kv::OpType>(rng.below(3));
    f.req.key = rng.next();
    f.req.value_len = static_cast<std::size_t>(rng.below(kMaxValueLen + 1));
    f.tag = rng.next();
    std::vector<std::uint8_t> bytes;
    encode_request(f, bytes);

    const int flips = 1 + static_cast<int>(rng.below(3));
    for (int b = 0; b < flips; ++b) {
      const std::size_t bit = rng.below(bytes.size() * 8);
      bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }

    DecodedFrame out;
    std::size_t consumed = 0;
    const DecodeResult r = decode_exact(bytes, &consumed, &out);
    switch (r) {
      case DecodeResult::kError:
      case DecodeResult::kNeedMore:  // flip landed in the length prefix
        ++rejected;
        break;
      case DecodeResult::kRequest: {
        // The flipped bytes happen to form a valid frame (flip in tag/key/
        // value_len): decoding must be canonical, i.e. re-encoding
        // reproduces the mutated buffer bit-for-bit.
        ++still_valid;
        EXPECT_EQ(consumed, bytes.size());
        std::vector<std::uint8_t> again;
        encode_request(out.req, again);
        EXPECT_EQ(again, bytes);
        break;
      }
      case DecodeResult::kResponse:
      case DecodeResult::kBatchRequest:
      case DecodeResult::kBatchResponse:
        // A flipped request cannot become any other kind: sizes differ and
        // the (version, kind) pair is checked jointly against the length.
        ADD_FAILURE() << "a request frame cannot flip into kind "
                      << static_cast<int>(r);
        break;
    }
  }
  // Sanity on the fuzz distribution: both outcomes must actually occur.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(still_valid, 0);
}

TEST(NetCodec, RandomGarbageFuzzIsMemorySafe) {
  Rng rng(0xBADC0FFEE);
  for (int iter = 0; iter < 4000; ++iter) {
    const std::size_t len = rng.below(80);
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
    DecodedFrame out;
    std::size_t consumed = 0;
    const DecodeResult r = decode_exact(bytes, &consumed, &out);
    if (r != DecodeResult::kNeedMore && r != DecodeResult::kError) {
      EXPECT_LE(consumed, bytes.size());
      EXPECT_GT(consumed, 0u);
    }
  }
}

}  // namespace
}  // namespace mgc::net
