#include "replication/repl_wire.h"

#include "net/byte_codec.h"
#include "net/wire.h"
#include "support/check.h"

namespace mgc::repl {
namespace {

net::MsgKind wire_kind(FrameKind k) {
  switch (k) {
    case FrameKind::kHello: return net::MsgKind::kReplHello;
    case FrameKind::kHeartbeat: return net::MsgKind::kReplHeartbeat;
    case FrameKind::kAppend: return net::MsgKind::kReplAppend;
    case FrameKind::kAck: return net::MsgKind::kReplAck;
    case FrameKind::kVoteReq: return net::MsgKind::kReplVoteReq;
    case FrameKind::kVoteResp: return net::MsgKind::kReplVoteResp;
  }
  MGC_CHECK(false);
  return net::MsgKind::kReplHello;
}

std::size_t payload_size(const Frame& f) {
  switch (f.kind) {
    case FrameKind::kHello: return kReplHeaderSize;
    case FrameKind::kHeartbeat:
      return kReplHeaderSize + 4 + f.shards.size() * kHeartbeatEntrySize;
    case FrameKind::kAppend:
      return kAppendHeaderSize + f.entries.size() * kAppendEntrySize;
    case FrameKind::kAck: return kAckPayloadSize;
    case FrameKind::kVoteReq:
      return kVoteReqHeaderSize + f.last_seqs.size() * kVoteReqEntrySize;
    case FrameKind::kVoteResp: return kReplHeaderSize + 1;
  }
  MGC_CHECK(false);
  return 0;
}

// Validates (magic, version, kind, payload_len) coherence with only the
// header bytes visible; variable-count kinds get their exact-length check
// once the count is read.
bool check_header(const std::uint8_t* p, std::uint32_t payload_len,
                  FrameKind* kind_out) {
  if (p[0] != net::kMagic) return false;
  if (p[1] != net::kBatchVersion) return false;
  switch (static_cast<net::MsgKind>(p[2])) {
    case net::MsgKind::kReplHello:
      if (payload_len != kReplHeaderSize) return false;
      *kind_out = FrameKind::kHello;
      return true;
    case net::MsgKind::kReplHeartbeat:
      if (payload_len < kReplHeaderSize + 4 + kHeartbeatEntrySize ||
          (payload_len - kReplHeaderSize - 4) % kHeartbeatEntrySize != 0) {
        return false;
      }
      *kind_out = FrameKind::kHeartbeat;
      return true;
    case net::MsgKind::kReplAppend:
      if (payload_len < kAppendHeaderSize + kAppendEntrySize ||
          (payload_len - kAppendHeaderSize) % kAppendEntrySize != 0) {
        return false;
      }
      *kind_out = FrameKind::kAppend;
      return true;
    case net::MsgKind::kReplAck:
      if (payload_len != kAckPayloadSize) return false;
      *kind_out = FrameKind::kAck;
      return true;
    case net::MsgKind::kReplVoteReq:
      if (payload_len < kVoteReqHeaderSize + kVoteReqEntrySize ||
          (payload_len - kVoteReqHeaderSize) % kVoteReqEntrySize != 0) {
        return false;
      }
      *kind_out = FrameKind::kVoteReq;
      return true;
    case net::MsgKind::kReplVoteResp:
      if (payload_len != kReplHeaderSize + 1) return false;
      *kind_out = FrameKind::kVoteResp;
      return true;
    default:
      // Client kinds (and garbage) do not belong on the replication plane.
      return false;
  }
}

}  // namespace

void encode(const Frame& f, std::vector<std::uint8_t>& out) {
  MGC_CHECK(f.shards.size() <= kMaxReplShards);
  MGC_CHECK(f.last_seqs.size() <= kMaxReplShards);
  MGC_CHECK(f.entries.size() <= kMaxReplAppendCount);
  if (f.kind == FrameKind::kHeartbeat) MGC_CHECK(!f.shards.empty());
  if (f.kind == FrameKind::kAppend) MGC_CHECK(!f.entries.empty());
  if (f.kind == FrameKind::kVoteReq) MGC_CHECK(!f.last_seqs.empty());

  const std::size_t payload = payload_size(f);
  out.reserve(out.size() + net::kLenPrefixSize + payload);
  net::Writer w(out);
  w.u32(static_cast<std::uint32_t>(payload));
  w.u8(net::kMagic);
  w.u8(net::kBatchVersion);
  w.u8(static_cast<std::uint8_t>(wire_kind(f.kind)));
  w.u8(0);  // reserved
  w.u32(f.node);
  w.u64(f.term);
  switch (f.kind) {
    case FrameKind::kHello:
      break;
    case FrameKind::kHeartbeat:
      w.u32(static_cast<std::uint32_t>(f.shards.size()));
      for (const ShardSeqs& s : f.shards) {
        w.u64(s.commit_seq);
        w.u64(s.last_seq);
      }
      break;
    case FrameKind::kAppend:
      w.u32(f.shard);
      w.u64(f.commit_seq);
      w.u64(f.prev_term);
      w.u32(static_cast<std::uint32_t>(f.entries.size()));
      for (const AppendEntry& e : f.entries) {
        MGC_CHECK(e.value_len <= net::kMaxValueLen);
        w.u64(e.seq);
        w.u64(e.key);
        w.u64(e.term);
        w.u32(e.value_len);
      }
      break;
    case FrameKind::kAck:
      w.u32(f.shard);
      w.u64(f.ack_seq);
      w.u64(f.ack_term);
      break;
    case FrameKind::kVoteReq:
      w.u64(f.last_term);
      w.u32(static_cast<std::uint32_t>(f.last_seqs.size()));
      for (std::uint64_t s : f.last_seqs) w.u64(s);
      break;
    case FrameKind::kVoteResp:
      w.u8(f.granted ? 1 : 0);
      break;
  }
}

DecodeResult decode(const std::uint8_t* data, std::size_t len,
                    std::size_t* consumed, Frame* out) {
  if (len < net::kLenPrefixSize) return DecodeResult::kNeedMore;
  const std::uint32_t payload_len =
      net::Reader(data, net::kLenPrefixSize).u32();
  if (payload_len < kReplHeaderSize || payload_len > kMaxReplPayload) {
    return DecodeResult::kError;
  }
  if (len < net::kLenPrefixSize + 3) return DecodeResult::kNeedMore;
  const std::uint8_t* p = data + net::kLenPrefixSize;
  FrameKind kind;
  if (!check_header(p, payload_len, &kind)) return DecodeResult::kError;
  if (len < net::kLenPrefixSize + payload_len) return DecodeResult::kNeedMore;
  if (p[3] != 0) return DecodeResult::kError;  // reserved byte

  // Node and term follow the magic, version, kind and reserved bytes.
  net::Reader r(p + 4, payload_len - 4);
  *out = Frame{};
  out->kind = kind;
  out->node = r.u32();
  out->term = r.u64();
  switch (kind) {
    case FrameKind::kHello:
      break;
    case FrameKind::kHeartbeat: {
      const std::uint32_t count = r.u32();
      if (count == 0 || count > kMaxReplShards ||
          payload_len !=
              kReplHeaderSize + 4 + count * kHeartbeatEntrySize) {
        return DecodeResult::kError;
      }
      out->shards.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        ShardSeqs s;
        s.commit_seq = r.u64();
        s.last_seq = r.u64();
        // A commit ahead of the log it commits is incoherent.
        if (s.commit_seq > s.last_seq) return DecodeResult::kError;
        out->shards.push_back(s);
      }
      break;
    }
    case FrameKind::kAppend: {
      out->shard = r.u32();
      if (out->shard >= kMaxReplShards) return DecodeResult::kError;
      out->commit_seq = r.u64();
      out->prev_term = r.u64();
      const std::uint32_t count = r.u32();
      if (count == 0 || count > kMaxReplAppendCount ||
          payload_len != kAppendHeaderSize + count * kAppendEntrySize) {
        return DecodeResult::kError;
      }
      out->entries.reserve(count);
      std::uint64_t prev_seq = 0;
      std::uint64_t prev_entry_term = out->prev_term;
      for (std::uint32_t i = 0; i < count; ++i) {
        AppendEntry a;
        a.seq = r.u64();
        a.key = r.u64();
        a.term = r.u64();
        a.value_len = r.u32();
        if (a.value_len > net::kMaxValueLen) return DecodeResult::kError;
        // Entries must be a contiguous ascending run — the apply loop
        // depends on it, so enforce it at the trust boundary. Entry terms
        // must likewise be coherent: nonzero, non-decreasing across the
        // batch (and from prev_term into it), and never ahead of the
        // streaming leader's own term.
        if (a.seq == 0 || (i > 0 && a.seq != prev_seq + 1)) {
          return DecodeResult::kError;
        }
        if (a.term == 0 || a.term < prev_entry_term ||
            a.term > out->term) {
          return DecodeResult::kError;
        }
        prev_seq = a.seq;
        prev_entry_term = a.term;
        out->entries.push_back(a);
      }
      // prev_term == 0 means "nothing before the batch", which is only
      // coherent when the batch starts the log.
      if ((out->prev_term == 0) != (out->entries[0].seq == 1)) {
        return DecodeResult::kError;
      }
      break;
    }
    case FrameKind::kAck:
      out->shard = r.u32();
      if (out->shard >= kMaxReplShards) return DecodeResult::kError;
      out->ack_seq = r.u64();
      out->ack_term = r.u64();
      // An empty log has no last term; a non-empty one must name the term
      // of its last entry, which cannot be ahead of the acker's own term.
      if ((out->ack_seq == 0) != (out->ack_term == 0)) {
        return DecodeResult::kError;
      }
      if (out->ack_term > out->term) return DecodeResult::kError;
      break;
    case FrameKind::kVoteReq: {
      out->last_term = r.u64();
      const std::uint32_t count = r.u32();
      if (count == 0 || count > kMaxReplShards ||
          payload_len != kVoteReqHeaderSize + count * kVoteReqEntrySize) {
        return DecodeResult::kError;
      }
      out->last_seqs.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        out->last_seqs.push_back(r.u64());
      }
      // A candidate campaigns at term > every entry it holds, and an
      // empty log (global last_seq 0) cannot name a last term.
      if (out->last_term >= out->term) return DecodeResult::kError;
      if ((out->last_seqs[0] == 0) != (out->last_term == 0)) {
        return DecodeResult::kError;
      }
      break;
    }
    case FrameKind::kVoteResp: {
      const std::uint8_t granted = r.u8();
      if (granted > 1) return DecodeResult::kError;
      out->granted = granted != 0;
      break;
    }
  }
  if (!r.ok()) return DecodeResult::kError;
  *consumed = net::kLenPrefixSize + payload_len;
  return DecodeResult::kFrame;
}

}  // namespace mgc::repl
