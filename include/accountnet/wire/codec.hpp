// Binary wire codec: little-endian fixed-width integers, LEB128-style
// varints, and length-prefixed byte strings. All protocol messages and all
// signing inputs are encoded through this codec so both ends agree on the
// exact bytes being signed.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "accountnet/util/bytes.hpp"

namespace accountnet::wire {

/// Thrown by Reader on truncated or malformed input.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Writer {
 public:
  Writer() = default;
  /// Appends after the bytes already in `buf`.
  explicit Writer(Bytes buf) : buf_(std::move(buf)) {}

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void varint(std::uint64_t v);
  /// Length-prefixed (varint) byte string.
  void bytes(BytesView data);
  /// Length-prefixed UTF-8 string.
  void str(std::string_view s);
  /// Raw bytes, no length prefix (fixed-size fields).
  void raw(BytesView data);

  const Bytes& data() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::uint64_t varint();
  Bytes bytes();
  std::string str();
  /// Reads exactly n raw bytes.
  Bytes raw(std::size_t n);
  /// Reads exactly n raw bytes as a view into the input, without copying;
  /// the view lives as long as the input does.
  BytesView view(std::size_t n);
  /// bytes() as a view into the input, without copying.
  BytesView bytes_view();

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return remaining() == 0; }
  /// Next byte without consuming it (for trailing-section disambiguation).
  std::uint8_t peek_u8() const;
  /// Throws DecodeError unless the input was fully consumed.
  void expect_done() const;

 private:
  void need(std::size_t n) const;

  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace accountnet::wire
