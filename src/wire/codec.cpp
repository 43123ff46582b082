#include "accountnet/wire/codec.hpp"

namespace accountnet::wire {

void Writer::u8(std::uint8_t v) { buf_.push_back(v); }

void Writer::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::bytes(BytesView data) {
  varint(data.size());
  raw(data);
}

void Writer::str(std::string_view s) {
  varint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::raw(BytesView data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void Reader::need(std::size_t n) const {
  if (remaining() < n) throw DecodeError("wire: truncated input");
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
  pos_ += 8;
  return v;
}

std::uint64_t Reader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    need(1);
    const std::uint8_t b = data_[pos_++];
    if (shift == 63 && (b & 0x7e) != 0) throw DecodeError("wire: varint overflow");
    if (shift > 63) throw DecodeError("wire: varint overflow");
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

Bytes Reader::bytes() {
  const BytesView v = bytes_view();
  return Bytes(v.begin(), v.end());
}

std::string Reader::str() {
  const BytesView v = bytes_view();
  return std::string(v.begin(), v.end());
}

Bytes Reader::raw(std::size_t n) {
  const BytesView v = view(n);
  return Bytes(v.begin(), v.end());
}

BytesView Reader::view(std::size_t n) {
  need(n);
  const BytesView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

BytesView Reader::bytes_view() {
  const std::uint64_t n = varint();
  if (n > remaining()) throw DecodeError("wire: byte-string length exceeds input");
  return view(static_cast<std::size_t>(n));
}

std::uint8_t Reader::peek_u8() const {
  need(1);
  return data_[pos_];
}

void Reader::expect_done() const {
  if (!done()) throw DecodeError("wire: trailing bytes after message");
}

}  // namespace accountnet::wire
