// Replication wire codec: round-trips for every frame kind, incremental
// (byte-at-a-time) decode, and the adversarial rejections the trust
// boundary promises — bad magic/version/kind, length/count incoherence,
// out-of-range values, non-contiguous append runs, commit past the log,
// and client-plane frames arriving on the replication plane.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "net/wire.h"
#include "replication/repl_wire.h"

namespace mgc::repl {
namespace {

std::vector<std::uint8_t> enc(const Frame& f) {
  std::vector<std::uint8_t> out;
  encode(f, out);
  return out;
}

DecodeResult dec(const std::vector<std::uint8_t>& buf, Frame* out,
                 std::size_t* consumed = nullptr) {
  std::size_t c = 0;
  const DecodeResult r = decode(buf.data(), buf.size(), &c, out);
  if (consumed != nullptr) *consumed = c;
  return r;
}

Frame hello() {
  Frame f;
  f.kind = FrameKind::kHello;
  f.node = 2;
  f.term = 7;
  return f;
}

Frame heartbeat() {
  Frame f;
  f.kind = FrameKind::kHeartbeat;
  f.node = 0;
  f.term = 3;
  f.shards = {{10, 12}, {4, 4}, {0, 6}};  // global, shard0, shard1
  return f;
}

Frame append() {
  Frame f;
  f.kind = FrameKind::kAppend;
  f.node = 1;
  f.term = 5;
  f.commit_seq = 41;
  f.prev_term = 4;  // the entry just before seq 42 was created in term 4
  f.entries = {{42, 0xdeadbeef, 4, 256},
               {43, 0xfeedface, 5, 128},
               {44, 9, 5, 0}};
  return f;
}

TEST(ReplWire, RoundTripsEveryKind) {
  Frame out;

  EXPECT_EQ(dec(enc(hello()), &out), DecodeResult::kFrame);
  EXPECT_EQ(out.kind, FrameKind::kHello);
  EXPECT_EQ(out.node, 2u);
  EXPECT_EQ(out.term, 7u);

  EXPECT_EQ(dec(enc(heartbeat()), &out), DecodeResult::kFrame);
  ASSERT_EQ(out.shards.size(), 3u);
  EXPECT_EQ(out.shards[0].commit_seq, 10u);
  EXPECT_EQ(out.shards[0].last_seq, 12u);
  EXPECT_EQ(out.shards[2].last_seq, 6u);

  EXPECT_EQ(dec(enc(append()), &out), DecodeResult::kFrame);
  EXPECT_EQ(out.commit_seq, 41u);
  EXPECT_EQ(out.prev_term, 4u);
  ASSERT_EQ(out.entries.size(), 3u);
  EXPECT_EQ(out.entries[0].seq, 42u);
  EXPECT_EQ(out.entries[0].term, 4u);
  EXPECT_EQ(out.entries[1].key, 0xfeedfaceu);
  EXPECT_EQ(out.entries[1].term, 5u);
  EXPECT_EQ(out.entries[2].value_len, 0u);

  Frame ack;
  ack.kind = FrameKind::kAck;
  ack.node = 2;
  ack.term = 5;
  ack.ack_seq = 44;
  ack.ack_term = 4;
  EXPECT_EQ(dec(enc(ack), &out), DecodeResult::kFrame);
  EXPECT_EQ(out.ack_seq, 44u);
  EXPECT_EQ(out.ack_term, 4u);

  Frame vr;
  vr.kind = FrameKind::kVoteReq;
  vr.node = 1;
  vr.term = 6;
  vr.last_term = 5;
  vr.last_seqs = {44, 30, 14};
  EXPECT_EQ(dec(enc(vr), &out), DecodeResult::kFrame);
  EXPECT_EQ(out.last_term, 5u);
  ASSERT_EQ(out.last_seqs.size(), 3u);
  EXPECT_EQ(out.last_seqs[0], 44u);

  Frame resp;
  resp.kind = FrameKind::kVoteResp;
  resp.node = 2;
  resp.term = 6;
  resp.granted = true;
  EXPECT_EQ(dec(enc(resp), &out), DecodeResult::kFrame);
  EXPECT_TRUE(out.granted);
}

TEST(ReplWire, IncrementalDecodeNeedsMoreUntilComplete) {
  const std::vector<std::uint8_t> buf = enc(append());
  Frame out;
  std::size_t consumed = 0;
  for (std::size_t n = 0; n < buf.size(); ++n) {
    EXPECT_EQ(decode(buf.data(), n, &consumed, &out), DecodeResult::kNeedMore)
        << "prefix of " << n << " bytes";
  }
  EXPECT_EQ(decode(buf.data(), buf.size(), &consumed, &out),
            DecodeResult::kFrame);
  EXPECT_EQ(consumed, buf.size());
}

TEST(ReplWire, TwoFramesBackToBackConsumeExactly) {
  std::vector<std::uint8_t> buf = enc(heartbeat());
  const std::size_t first = buf.size();
  const std::vector<std::uint8_t> second = enc(hello());
  buf.insert(buf.end(), second.begin(), second.end());

  Frame out;
  std::size_t consumed = 0;
  ASSERT_EQ(decode(buf.data(), buf.size(), &consumed, &out),
            DecodeResult::kFrame);
  EXPECT_EQ(consumed, first);
  EXPECT_EQ(out.kind, FrameKind::kHeartbeat);
  ASSERT_EQ(decode(buf.data() + consumed, buf.size() - consumed, &consumed,
                   &out),
            DecodeResult::kFrame);
  EXPECT_EQ(out.kind, FrameKind::kHello);
}

TEST(ReplWire, RejectsCorruptHeaders) {
  Frame out;
  // Bad magic.
  auto buf = enc(hello());
  buf[4] ^= 0xFF;
  EXPECT_EQ(dec(buf, &out), DecodeResult::kError);
  // Bad version.
  buf = enc(hello());
  buf[5] = 9;
  EXPECT_EQ(dec(buf, &out), DecodeResult::kError);
  // Client kind on the replication plane.
  buf = enc(hello());
  buf[6] = static_cast<std::uint8_t>(net::MsgKind::kRequest);
  EXPECT_EQ(dec(buf, &out), DecodeResult::kError);
  // Garbage kind.
  buf = enc(hello());
  buf[6] = 0x7E;
  EXPECT_EQ(dec(buf, &out), DecodeResult::kError);
  // Nonzero reserved byte.
  buf = enc(hello());
  buf[7] = 1;
  EXPECT_EQ(dec(buf, &out), DecodeResult::kError);
}

TEST(ReplWire, RejectsLengthAndCountIncoherence) {
  Frame out;
  // Payload length larger than any legal replication frame.
  std::vector<std::uint8_t> buf = enc(hello());
  const std::uint32_t huge = kMaxReplPayload + 1;
  std::memcpy(buf.data(), &huge, 4);
  EXPECT_EQ(dec(buf, &out), DecodeResult::kError);
  // Payload length below the fixed header.
  buf = enc(hello());
  const std::uint32_t tiny = 3;
  std::memcpy(buf.data(), &tiny, 4);
  EXPECT_EQ(dec(buf, &out), DecodeResult::kError);
  // Heartbeat whose count disagrees with its payload length.
  buf = enc(heartbeat());
  buf[net::kLenPrefixSize + kReplHeaderSize] = 1;  // claims 1, carries 3
  EXPECT_EQ(dec(buf, &out), DecodeResult::kError);
  // Append count zeroed.
  buf = enc(append());
  buf[net::kLenPrefixSize + kReplHeaderSize + 20] = 0;
  EXPECT_EQ(dec(buf, &out), DecodeResult::kError);
}

TEST(ReplWire, RejectsSemanticViolations) {
  Frame out;
  // Heartbeat with commit ahead of its own log.
  Frame hb = heartbeat();
  hb.shards[1] = {9, 3};
  auto buf = enc(hb);
  EXPECT_EQ(dec(buf, &out), DecodeResult::kError);

  // Append run with a gap (not contiguous ascending).
  Frame ap = append();
  ap.entries[2].seq = 50;
  buf = enc(ap);
  EXPECT_EQ(dec(buf, &out), DecodeResult::kError);

  // Append entry with seq 0 (sequences start at 1).
  ap = append();
  ap.entries = {{0, 1, 4, 8}};
  buf = enc(ap);
  EXPECT_EQ(dec(buf, &out), DecodeResult::kError);

  // Append value_len past the value cap.
  ap = append();
  ap.prev_term = 0;
  ap.entries = {{1, 1, 1, 8}};
  buf = enc(ap);
  const std::uint32_t bad_len = net::kMaxValueLen + 1;
  std::memcpy(buf.data() + net::kLenPrefixSize + kAppendHeaderSize + 24,
              &bad_len, 4);
  EXPECT_EQ(dec(buf, &out), DecodeResult::kError);

  // Append entry with term 0 (terms start at 1).
  ap = append();
  ap.entries[0].term = 0;
  buf = enc(ap);
  EXPECT_EQ(dec(buf, &out), DecodeResult::kError);

  // Append entry terms decreasing across the batch.
  ap = append();
  ap.entries[1].term = 3;  // below entry 0's term 4
  buf = enc(ap);
  EXPECT_EQ(dec(buf, &out), DecodeResult::kError);

  // Append entry term ahead of the streaming leader's own term.
  ap = append();
  ap.entries[2].term = 6;  // frame term is 5
  buf = enc(ap);
  EXPECT_EQ(dec(buf, &out), DecodeResult::kError);

  // First entry's term below prev_term (log terms are non-decreasing).
  ap = append();
  ap.entries[0].term = 3;  // prev_term is 4
  buf = enc(ap);
  EXPECT_EQ(dec(buf, &out), DecodeResult::kError);

  // prev_term claimed for a batch that starts the log (seq 1 has no
  // predecessor), and the converse: no prev_term past the log start.
  ap = append();
  ap.prev_term = 2;
  ap.entries = {{1, 1, 4, 8}};
  buf = enc(ap);
  EXPECT_EQ(dec(buf, &out), DecodeResult::kError);
  ap = append();
  ap.prev_term = 0;
  buf = enc(ap);  // entries still start at seq 42
  EXPECT_EQ(dec(buf, &out), DecodeResult::kError);

  // Ack naming a term for an empty log, an empty term for a non-empty
  // one, and a term ahead of the acker's own.
  Frame ack;
  ack.kind = FrameKind::kAck;
  ack.node = 2;
  ack.term = 5;
  ack.ack_seq = 0;
  ack.ack_term = 3;
  buf = enc(ack);
  EXPECT_EQ(dec(buf, &out), DecodeResult::kError);
  ack.ack_seq = 44;
  ack.ack_term = 0;
  buf = enc(ack);
  EXPECT_EQ(dec(buf, &out), DecodeResult::kError);
  ack.ack_term = 6;  // frame term is 5
  buf = enc(ack);
  EXPECT_EQ(dec(buf, &out), DecodeResult::kError);

  // Vote request whose last term is not behind its campaign term, and an
  // empty log claiming a last term.
  Frame vr;
  vr.kind = FrameKind::kVoteReq;
  vr.node = 1;
  vr.term = 6;
  vr.last_term = 6;
  vr.last_seqs = {44};
  buf = enc(vr);
  EXPECT_EQ(dec(buf, &out), DecodeResult::kError);
  vr.last_term = 2;
  vr.last_seqs = {0};
  buf = enc(vr);
  EXPECT_EQ(dec(buf, &out), DecodeResult::kError);

  // Vote response with granted byte neither 0 nor 1.
  Frame resp;
  resp.kind = FrameKind::kVoteResp;
  resp.granted = false;
  buf = enc(resp);
  buf[net::kLenPrefixSize + kReplHeaderSize] = 2;
  EXPECT_EQ(dec(buf, &out), DecodeResult::kError);
}

// Golden bytes: one frame of every replication kind, spelled out by hand
// from the layout in repl_wire.h. Round-trip tests cannot catch a mistake
// made the same way on both sides of the codec (byte order, field order, a
// shifted offset); these literals can. Every multi-byte field holds a value
// with distinct nonzero bytes so a byte-order slip changes the encoding.
TEST(ReplWire, GoldenBytesPinEveryReplicationKind) {
  struct Golden {
    const char* name;
    Frame frame;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<Golden> cases;

  Frame f;
  f.kind = FrameKind::kHello;
  f.node = 0x0A0B0C0D;
  f.term = 0x0102030405060708ULL;
  cases.push_back({"hello", f,
                   {0x10, 0x00, 0x00, 0x00,                          // len 16
                    0xC5, 0x02, 0x09, 0x00,                          // hdr
                    0x0D, 0x0C, 0x0B, 0x0A,                          // node
                    0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01}});  // term

  f = Frame{};
  f.kind = FrameKind::kHeartbeat;
  f.node = 0x01020304;
  f.term = 0x1112131415161718ULL;
  f.shards = {{0x0000000100000002ULL, 0x0000000100000003ULL}};
  cases.push_back({"heartbeat", f,
                   {0x24, 0x00, 0x00, 0x00,                          // len 36
                    0xC5, 0x02, 0x06, 0x00,                          // hdr
                    0x04, 0x03, 0x02, 0x01,                          // node
                    0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,  // term
                    0x01, 0x00, 0x00, 0x00,                          // count
                    0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,  // commit
                    0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00}});  // last

  f = Frame{};
  f.kind = FrameKind::kAppend;
  f.node = 0x00000102;
  f.term = 0x0000000200000001ULL;
  f.shard = 0;
  f.commit_seq = 0x0000000100000000ULL;
  f.prev_term = 0x0000000100000001ULL;
  f.entries = {{0x0000000100000001ULL, 0x8877665544332211ULL,
                0x0000000200000000ULL, 0x00010203}};
  cases.push_back({"append", f,
                   {0x44, 0x00, 0x00, 0x00,                          // len 68
                    0xC5, 0x02, 0x04, 0x00,                          // hdr
                    0x02, 0x01, 0x00, 0x00,                          // node
                    0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,  // term
                    0x00, 0x00, 0x00, 0x00,                          // shard
                    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,  // commit
                    0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,  // prev
                    0x01, 0x00, 0x00, 0x00,                          // count
                    0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,  // seq
                    0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88,  // key
                    0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,  // term
                    0x03, 0x02, 0x01, 0x00}});                       // vlen

  f = Frame{};
  f.kind = FrameKind::kAck;
  f.node = 0x00000201;
  f.term = 0x0000000300000004ULL;
  f.shard = 0;
  f.ack_seq = 0x0000010000000001ULL;
  f.ack_term = 0x0000000300000002ULL;
  cases.push_back({"ack", f,
                   {0x24, 0x00, 0x00, 0x00,                          // len 36
                    0xC5, 0x02, 0x05, 0x00,                          // hdr
                    0x01, 0x02, 0x00, 0x00,                          // node
                    0x04, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,  // term
                    0x00, 0x00, 0x00, 0x00,                          // shard
                    0x01, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,  // seq
                    0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00}});  // term

  f = Frame{};
  f.kind = FrameKind::kVoteReq;
  f.node = 0x00030201;
  f.term = 0x0000000500000000ULL;
  f.last_term = 0x0000000400000001ULL;
  f.last_seqs = {0x0000000100000002ULL, 0x0000000000000300ULL};
  cases.push_back({"vote-req", f,
                   {0x2C, 0x00, 0x00, 0x00,                          // len 44
                    0xC5, 0x02, 0x07, 0x00,                          // hdr
                    0x01, 0x02, 0x03, 0x00,                          // node
                    0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,  // term
                    0x01, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,  // last
                    0x02, 0x00, 0x00, 0x00,                          // count
                    0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,  // seq 0
                    0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}});  // seq 1

  f = Frame{};
  f.kind = FrameKind::kVoteResp;
  f.node = 0x04030201;
  f.term = 0x0000000600000007ULL;
  f.granted = true;
  cases.push_back({"vote-resp", f,
                   {0x11, 0x00, 0x00, 0x00,                          // len 17
                    0xC5, 0x02, 0x08, 0x00,                          // hdr
                    0x01, 0x02, 0x03, 0x04,                          // node
                    0x07, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00,  // term
                    0x01}});                                         // granted

  ASSERT_EQ(cases.size(), 6u);
  for (const Golden& g : cases) {
    EXPECT_EQ(enc(g.frame), g.bytes) << g.name;
    Frame out;
    std::size_t consumed = 0;
    ASSERT_EQ(dec(g.bytes, &out, &consumed), DecodeResult::kFrame) << g.name;
    EXPECT_EQ(consumed, g.bytes.size()) << g.name;
    EXPECT_EQ(out.kind, g.frame.kind) << g.name;
    EXPECT_EQ(out.node, g.frame.node) << g.name;
    EXPECT_EQ(out.term, g.frame.term) << g.name;
    EXPECT_EQ(out.shard, g.frame.shard) << g.name;
    EXPECT_EQ(out.commit_seq, g.frame.commit_seq) << g.name;
    EXPECT_EQ(out.prev_term, g.frame.prev_term) << g.name;
    ASSERT_EQ(out.entries.size(), g.frame.entries.size()) << g.name;
    for (std::size_t i = 0; i < out.entries.size(); ++i) {
      EXPECT_EQ(out.entries[i].seq, g.frame.entries[i].seq) << g.name;
      EXPECT_EQ(out.entries[i].key, g.frame.entries[i].key) << g.name;
      EXPECT_EQ(out.entries[i].term, g.frame.entries[i].term) << g.name;
      EXPECT_EQ(out.entries[i].value_len, g.frame.entries[i].value_len)
          << g.name;
    }
    EXPECT_EQ(out.ack_seq, g.frame.ack_seq) << g.name;
    EXPECT_EQ(out.ack_term, g.frame.ack_term) << g.name;
    ASSERT_EQ(out.shards.size(), g.frame.shards.size()) << g.name;
    for (std::size_t i = 0; i < out.shards.size(); ++i) {
      EXPECT_EQ(out.shards[i].commit_seq, g.frame.shards[i].commit_seq)
          << g.name;
      EXPECT_EQ(out.shards[i].last_seq, g.frame.shards[i].last_seq)
          << g.name;
    }
    EXPECT_EQ(out.last_term, g.frame.last_term) << g.name;
    EXPECT_EQ(out.last_seqs, g.frame.last_seqs) << g.name;
    EXPECT_EQ(out.granted, g.frame.granted) << g.name;
  }
}

TEST(ReplWire, ReplicationFrameRejectedByClientDecoder) {
  // The planes share magic+version but not kinds: a replication frame on a
  // client connection must be a protocol error there, not a mystery frame.
  const std::vector<std::uint8_t> buf = enc(heartbeat());
  std::size_t consumed = 0;
  net::DecodedFrame out;
  EXPECT_EQ(net::decode_any(buf.data(), buf.size(), &consumed, &out),
            net::DecodeResult::kError);
}

}  // namespace
}  // namespace mgc::repl
