#include "accountnet/wire/codec.hpp"

#include <gtest/gtest.h>

namespace accountnet::wire {
namespace {

TEST(Codec, FixedWidthRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.done());
}

TEST(Codec, LittleEndianLayout) {
  Writer w;
  w.u32(0x01020304);
  EXPECT_EQ(w.data(), (Bytes{0x04, 0x03, 0x02, 0x01}));
}

class VarintRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintRoundTrip, Value) {
  Writer w;
  w.varint(GetParam());
  Reader r(w.data());
  EXPECT_EQ(r.varint(), GetParam());
  EXPECT_TRUE(r.done());
}

INSTANTIATE_TEST_SUITE_P(Boundaries, VarintRoundTrip,
                         ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL, 129ULL, 16383ULL,
                                           16384ULL, (1ULL << 32) - 1, 1ULL << 32,
                                           UINT64_MAX - 1, UINT64_MAX));

TEST(Codec, VarintEncodingSizes) {
  auto size_of = [](std::uint64_t v) {
    Writer w;
    w.varint(v);
    return w.size();
  };
  EXPECT_EQ(size_of(0), 1u);
  EXPECT_EQ(size_of(127), 1u);
  EXPECT_EQ(size_of(128), 2u);
  EXPECT_EQ(size_of(UINT64_MAX), 10u);
}

TEST(Codec, BytesAndStringsRoundTrip) {
  Writer w;
  w.bytes(Bytes{1, 2, 3});
  w.str("hello");
  w.bytes(Bytes{});
  w.str("");
  Reader r(w.data());
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_TRUE(r.str().empty());
  r.expect_done();
}

TEST(Codec, RawRoundTrip) {
  Writer w;
  w.raw(Bytes{9, 8, 7});
  Reader r(w.data());
  EXPECT_EQ(r.raw(3), (Bytes{9, 8, 7}));
  EXPECT_TRUE(r.done());
  // view() reads the same bytes in place, without copying.
  Reader v(w.data());
  const BytesView got = v.view(2);
  EXPECT_EQ(got.data(), w.data().data());
  EXPECT_EQ(Bytes(got.begin(), got.end()), (Bytes{9, 8}));
  EXPECT_EQ(v.view(1)[0], 7);
  EXPECT_TRUE(v.done());
}

TEST(Codec, TruncatedInputThrows) {
  Writer w;
  w.u64(42);
  Reader r(BytesView(w.data().data(), 7));
  EXPECT_THROW(r.u64(), DecodeError);
  EXPECT_THROW(r.view(8), DecodeError);
  EXPECT_THROW(r.raw(8), DecodeError);
  EXPECT_EQ(r.view(7).size(), 7u);
  EXPECT_THROW(r.view(1), DecodeError);
}

TEST(Codec, TruncatedVarintThrows) {
  const Bytes bad = {0x80, 0x80};
  Reader r(bad);
  EXPECT_THROW(r.varint(), DecodeError);
}

TEST(Codec, OverlongVarintThrows) {
  const Bytes bad(11, 0xff);
  Reader r(bad);
  EXPECT_THROW(r.varint(), DecodeError);
}

TEST(Codec, ByteStringLengthLieThrows) {
  Writer w;
  w.varint(1000);
  Reader r(w.data());
  EXPECT_THROW(r.bytes(), DecodeError);
  Reader v(w.data());
  EXPECT_THROW(v.bytes_view(), DecodeError);
}

TEST(Codec, ExpectDoneThrowsOnTrailing) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r(w.data());
  r.u8();
  EXPECT_THROW(r.expect_done(), DecodeError);
}

TEST(Codec, TakeMovesBuffer) {
  Writer w;
  w.u8(5);
  const Bytes b = std::move(w).take();
  EXPECT_EQ(b, Bytes{5});
  Writer more(b);  // appends after the bytes it is given
  more.u8(6);
  EXPECT_EQ(more.data(), (Bytes{5, 6}));
}

}  // namespace
}  // namespace accountnet::wire
