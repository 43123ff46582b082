#include "accountnet/crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define AN_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "accountnet/util/ensure.hpp"

namespace accountnet::crypto {

namespace {

constexpr std::uint32_t kInit[8] = {
    0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
    0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u,
};

constexpr std::uint32_t kRound[64] = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu, 0x59f111f1u,
    0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u, 0x243185beu, 0x550c7dc3u,
    0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u, 0xc19bf174u, 0xe49b69c1u, 0xefbe4786u,
    0x0fc19dc6u, 0x240ca1ccu, 0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau,
    0x983e5152u, 0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
    0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu, 0x53380d13u,
    0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u, 0xa2bfe8a1u, 0xa81a664bu,
    0xc24b8b70u, 0xc76c51a3u, 0xd192e819u, 0xd6990624u, 0xf40e3585u, 0x106aa070u,
    0x19a4c116u, 0x1e376c08u, 0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au,
    0x5b9cca4fu, 0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u,
};

inline std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#ifdef AN_SHA256_X86

#define AN_SHA_TARGET __attribute__((target("sha,ssse3,sse4.1")))

// Four rounds: the round function takes two (w + k) words per call, from the
// low half of its third operand.
AN_SHA_TARGET inline void rounds4(__m128i& abef, __m128i& cdgh, __m128i w, int quad) {
  const __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRound + 4 * quad)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// Four message words, byte-swapped from big-endian.
AN_SHA_TARGET inline __m128i load_words(const std::uint8_t* p) {
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), bswap);
}

// W[t..t+3] from W[t-16..t-1], held as four quads a (oldest) .. d (newest).
AN_SHA_TARGET inline __m128i schedule(__m128i a, __m128i b, __m128i c, __m128i d) {
  const __m128i w = _mm_add_epi32(_mm_sha256msg1_epu32(a, b), _mm_alignr_epi8(d, c, 4));
  return _mm_sha256msg2_epu32(w, d);
}

AN_SHA_TARGET void compress_shani(std::uint32_t state[8], const std::uint8_t* blocks,
                                  std::size_t n) {
  // The round instructions keep the state as (A, B, E, F) and (C, D, G, H).
  const __m128i dcba = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i hgfe = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(dcba, hgfe, 8);
  __m128i cdgh = _mm_blend_epi16(hgfe, dcba, 0xF0);

  for (; n > 0; --n, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i m0 = load_words(blocks), m1 = load_words(blocks + 16);
    __m128i m2 = load_words(blocks + 32), m3 = load_words(blocks + 48);
    rounds4(abef, cdgh, m0, 0);
    rounds4(abef, cdgh, m1, 1);
    rounds4(abef, cdgh, m2, 2);
    rounds4(abef, cdgh, m3, 3);
    for (int quad = 4; quad < 16; quad += 4) {
      m0 = schedule(m0, m1, m2, m3);
      rounds4(abef, cdgh, m0, quad);
      m1 = schedule(m1, m2, m3, m0);
      rounds4(abef, cdgh, m1, quad + 1);
      m2 = schedule(m2, m3, m0, m1);
      rounds4(abef, cdgh, m2, quad + 2);
      m3 = schedule(m3, m0, m1, m2);
      rounds4(abef, cdgh, m3, quad + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

bool cpu_has_sha_extensions() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return ssse3 && sse41 && sha;
}

#endif  // AN_SHA256_X86

// The one compression every Sha256 runs, chosen from CPUID the first time a
// block is hashed (a function-local static, so a hash taken during another
// translation unit's static initialisation cannot see it unset).
void compress(std::uint32_t state[8], const std::uint8_t* blocks, std::size_t n) {
  static const detail::Sha256Compress active = [] {
    const detail::Sha256Compress hw = detail::sha256_compress_hw();
    return hw != nullptr ? hw : &detail::sha256_compress_portable;
  }();
  active(state, blocks, n);
}

}  // namespace

namespace detail {

void sha256_compress_portable(std::uint32_t state[8], const std::uint8_t* blocks,
                              std::size_t n) {
  for (; n > 0; --n, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(blocks[i * 4]) << 24) |
             (static_cast<std::uint32_t>(blocks[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(blocks[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(blocks[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Sha256Compress sha256_compress_hw() {
#ifdef AN_SHA256_X86
  return cpu_has_sha_extensions() ? &compress_shani : nullptr;
#else
  return nullptr;
#endif
}

}  // namespace detail

Sha256::Sha256() {
  std::memcpy(state_.data(), kInit, sizeof(kInit));
}

const char* Sha256::implementation() {
  return detail::sha256_compress_hw() != nullptr ? "sha-ni" : "portable";
}

void Sha256::update(BytesView data) {
  AN_ENSURE_MSG(!finished_, "Sha256 reused after finish()");
  if (data.empty()) return;  // empty spans may carry a null data() pointer
  total_len_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t left = data.size();
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(left, kBlockSize - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    left -= take;
    if (buffer_len_ < kBlockSize) return;
    compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // Every remaining full block goes to one call, so the hardware rounds keep
  // the state in registers across a long message.
  const std::size_t blocks = left / kBlockSize;
  if (blocks > 0) compress(state_.data(), p, blocks);
  p += blocks * kBlockSize;
  left -= blocks * kBlockSize;
  std::memcpy(buffer_.data(), p, left);
  buffer_len_ = left;
}

Sha256::Digest Sha256::finish() {
  AN_ENSURE_MSG(!finished_, "Sha256 reused after finish()");
  finished_ = true;
  // 0x80, zeros to 56 mod 64, then the 64-bit big-endian bit length: one
  // block if the buffered tail leaves room for the nine bytes, else two.
  std::uint8_t tail[2 * kBlockSize] = {};
  std::memcpy(tail, buffer_.data(), buffer_len_);
  tail[buffer_len_] = 0x80;
  const std::size_t blocks = buffer_len_ < kBlockSize - 8 ? 1 : 2;
  const std::uint64_t bit_len = total_len_ * 8;
  for (int i = 0; i < 8; ++i) {
    tail[blocks * kBlockSize - 1 - i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  }
  compress(state_.data(), tail, blocks);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Sha256::Digest Sha256::hash(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace accountnet::crypto
