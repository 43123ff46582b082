// FIPS 180-4 known-answer tests plus streaming-interface checks. The
// SHA-256 vectors also run on each compression directly (portable rounds and
// SHA extensions), and a seeded loop checks the two agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "accountnet/crypto/sha256.hpp"
#include "accountnet/crypto/sha512.hpp"
#include "accountnet/util/bytes.hpp"
#include "accountnet/util/rng.hpp"

namespace accountnet::crypto {
namespace {

Bytes digest_bytes(const Sha256::Digest& d) { return Bytes(d.begin(), d.end()); }
Bytes digest_bytes(const Sha512::Digest& d) { return Bytes(d.begin(), d.end()); }

TEST(Sha256, EmptyVector) {
  EXPECT_EQ(to_hex(digest_bytes(Sha256::hash(Bytes{}))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, AbcVector) {
  EXPECT_EQ(to_hex(digest_bytes(Sha256::hash(bytes_of("abc")))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockVector) {
  EXPECT_EQ(to_hex(digest_bytes(Sha256::hash(
                bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAVector) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(digest_bytes(h.finish())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  const Bytes msg = bytes_of("The quick brown fox jumps over the lazy dog");
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(BytesView(msg.data(), split));
    h.update(BytesView(msg.data() + split, msg.size() - split));
    EXPECT_EQ(h.finish(), Sha256::hash(msg)) << "split=" << split;
  }
}

// Exercise every padding boundary around the block size.
class Sha256Lengths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha256Lengths, ChunkedEqualsOneShot) {
  const std::size_t n = GetParam();
  Bytes msg(n);
  for (std::size_t i = 0; i < n; ++i) msg[i] = static_cast<std::uint8_t>(i * 31 + 7);
  Sha256 chunked;
  for (std::size_t i = 0; i < n; i += 7) {
    chunked.update(BytesView(msg.data() + i, std::min<std::size_t>(7, n - i)));
  }
  EXPECT_EQ(chunked.finish(), Sha256::hash(msg));
}

INSTANTIATE_TEST_SUITE_P(PaddingBoundaries, Sha256Lengths,
                         ::testing::Values(0, 1, 54, 55, 56, 57, 63, 64, 65, 119, 127,
                                           128, 129, 1000));

// --- Each SHA-256 compression on its own -------------------------------------

using detail::Sha256Compress;

constexpr std::uint32_t kSha256Init[8] = {
    0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
    0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u,
};

Bytes padded(BytesView msg) {
  Bytes out(msg.begin(), msg.end());
  out.push_back(0x80);
  while (out.size() % 64 != 56) out.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  return out;
}

Sha256::Digest digest_of(const std::uint32_t state[8]) {
  Sha256::Digest out;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) {
      out[i * 4 + j] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * j));
    }
  }
  return out;
}

/// SHA-256 of msg with the padding done here and every block handed to
/// `compress` in one call.
Sha256::Digest hash_with(Sha256Compress compress, BytesView msg) {
  const Bytes blocks = padded(msg);
  std::uint32_t state[8];
  std::copy(std::begin(kSha256Init), std::end(kSha256Init), state);
  compress(state, blocks.data(), blocks.size() / 64);
  return digest_of(state);
}

Sha256Compress compression(const std::string& name) {
  return name == "portable" ? &detail::sha256_compress_portable
                            : detail::sha256_compress_hw();
}

std::string impl_test_name(const std::string& name) {
  return name == "portable" ? "portable" : "sha_ni";
}

class Sha256Compression : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    compress_ = compression(GetParam());
    if (compress_ == nullptr) GTEST_SKIP() << "CPU lacks the SHA extensions";
  }
  Sha256Compress compress_ = nullptr;
};

TEST_P(Sha256Compression, FipsVectors) {
  EXPECT_EQ(to_hex(digest_bytes(hash_with(compress_, Bytes{}))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(digest_bytes(hash_with(compress_, bytes_of("abc")))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(digest_bytes(hash_with(
                compress_, bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(to_hex(digest_bytes(hash_with(compress_, Bytes(1000000, 'a')))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

INSTANTIATE_TEST_SUITE_P(Impl, Sha256Compression,
                         ::testing::Values("portable", "sha-ni"),
                         [](const auto& info) { return impl_test_name(info.param); });

// The padding-boundary sweep, one block per call and all blocks in one call.
class Sha256CompressionLengths
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {};

TEST_P(Sha256CompressionLengths, BlockwiseEqualsOneCallEqualsSha256) {
  const Sha256Compress compress = compression(std::get<0>(GetParam()));
  if (compress == nullptr) GTEST_SKIP() << "CPU lacks the SHA extensions";
  const std::size_t n = std::get<1>(GetParam());
  Bytes msg(n);
  for (std::size_t i = 0; i < n; ++i) msg[i] = static_cast<std::uint8_t>(i * 31 + 7);
  const Bytes blocks = padded(msg);
  std::uint32_t state[8];
  std::copy(std::begin(kSha256Init), std::end(kSha256Init), state);
  for (std::size_t off = 0; off < blocks.size(); off += 64) compress(state, &blocks[off], 1);
  EXPECT_EQ(digest_of(state), hash_with(compress, msg));
  EXPECT_EQ(hash_with(compress, msg), Sha256::hash(msg));
}

INSTANTIATE_TEST_SUITE_P(
    PaddingBoundaries, Sha256CompressionLengths,
    ::testing::Combine(::testing::Values("portable", "sha-ni"),
                       ::testing::Values(0, 1, 54, 55, 56, 57, 63, 64, 65, 119, 127, 128,
                                         129, 1000)),
    [](const auto& info) {
      return impl_test_name(std::get<0>(info.param)) + "_" +
             std::to_string(std::get<1>(info.param));
    });

/// Random message of `len` bytes placed at a random offset 0..15 in `store`,
/// so the compressions see unaligned input.
BytesView random_message(Rng& rng, Bytes& store, std::size_t len) {
  const std::size_t offset = rng.uniform(16);
  store.assign(offset + len, 0);
  for (auto& b : store) b = static_cast<std::uint8_t>(rng.next_u64());
  return BytesView(store.data() + offset, len);
}

TEST(Sha256Equivalence, RandomSplitsMatchPortable) {
  Rng rng(20260417);
  Bytes store;
  for (int iter = 0; iter < 400; ++iter) {
    const BytesView msg = random_message(rng, store, rng.uniform(2101));
    Sha256 h;
    std::size_t at = 0;
    while (at < msg.size()) {
      const std::size_t take = std::min<std::size_t>(msg.size() - at, rng.uniform(200));
      h.update(msg.subspan(at, take));
      at += take;
    }
    EXPECT_EQ(h.finish(), hash_with(&detail::sha256_compress_portable, msg))
        << "iter " << iter << " len " << msg.size();
  }
}

TEST(Sha256Equivalence, HardwareMatchesPortable) {
  const Sha256Compress hw = detail::sha256_compress_hw();
  if (hw == nullptr) GTEST_SKIP() << "CPU lacks the SHA extensions";
  Rng rng(11);
  Bytes store;
  for (int iter = 0; iter < 400; ++iter) {
    const BytesView msg = random_message(rng, store, rng.uniform(2101));
    EXPECT_EQ(hash_with(hw, msg), hash_with(&detail::sha256_compress_portable, msg))
        << "iter " << iter << " len " << msg.size();
    // Raw multi-block calls from a random state, no padding involved.
    const std::size_t blocks = msg.size() / 64;
    std::uint32_t a[8], b[8];
    for (int i = 0; i < 8; ++i) a[i] = b[i] = static_cast<std::uint32_t>(rng.next_u64());
    hw(a, msg.data(), blocks);
    detail::sha256_compress_portable(b, msg.data(), blocks);
    EXPECT_TRUE(std::equal(std::begin(a), std::end(a), std::begin(b))) << "iter " << iter;
  }
}

TEST(Sha512, EmptyVector) {
  EXPECT_EQ(to_hex(digest_bytes(Sha512::hash(Bytes{}))),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512, AbcVector) {
  EXPECT_EQ(to_hex(digest_bytes(Sha512::hash(bytes_of("abc")))),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, TwoBlockVector) {
  EXPECT_EQ(
      to_hex(digest_bytes(Sha512::hash(bytes_of(
          "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
          "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")))),
      "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
      "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512, MillionAVector) {
  Sha512 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(digest_bytes(h.finish())),
            "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb"
            "de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b");
}

class Sha512Lengths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha512Lengths, ChunkedEqualsOneShot) {
  const std::size_t n = GetParam();
  Bytes msg(n);
  for (std::size_t i = 0; i < n; ++i) msg[i] = static_cast<std::uint8_t>(i * 13 + 3);
  Sha512 chunked;
  for (std::size_t i = 0; i < n; i += 11) {
    chunked.update(BytesView(msg.data() + i, std::min<std::size_t>(11, n - i)));
  }
  EXPECT_EQ(chunked.finish(), Sha512::hash(msg));
}

INSTANTIATE_TEST_SUITE_P(PaddingBoundaries, Sha512Lengths,
                         ::testing::Values(0, 1, 110, 111, 112, 113, 127, 128, 129, 239,
                                           255, 256, 257, 2000));

}  // namespace
}  // namespace accountnet::crypto
