// Little-endian field codec shared by the client frame codec (net/wire)
// and the replication frame codec (replication/repl_wire): a Writer that
// appends fixed-width fields to a byte vector, and a cursor Reader that
// reads them back in order.
//
// The Reader never reads outside the span it was given. A read that would
// run past the end yields 0, consumes nothing and latches failure; ok()
// reports it. Decoders check every length before they read a body, so a
// latched failure there means a decoder bug, and they reject the frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mgc::net {

class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) { append_le(v, 4); }
  void u64(std::uint64_t v) { append_le(v, 8); }

 private:
  void append_le(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t>& out_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len) : p_(data), len_(len) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(read_le(1)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(read_le(4)); }
  std::uint64_t u64() { return read_le(8); }

  // False once any read ran short.
  bool ok() const { return ok_; }

 private:
  std::uint64_t read_le(std::size_t bytes) {
    if (!ok_ || len_ - off_ < bytes) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(p_[off_ + i]) << (8 * i);
    }
    off_ += bytes;
    return v;
  }

  const std::uint8_t* p_;
  std::size_t len_;
  std::size_t off_ = 0;
  bool ok_ = true;
};

}  // namespace mgc::net
