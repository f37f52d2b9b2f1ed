#include "util/sha1.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define LFI_SHA1_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace lfi {
namespace {

constexpr uint32_t kInitialState[5] = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u,
                                       0xc3d2e1f0u};

inline uint32_t Rotl(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

// The five state words as the 20 digest bytes.
void WriteBigEndian(const uint32_t h[5], uint8_t* out) {
  for (int i = 0; i < 5; ++i) {
    out[i * 4] = static_cast<uint8_t>(h[i] >> 24);
    out[i * 4 + 1] = static_cast<uint8_t>(h[i] >> 16);
    out[i * 4 + 2] = static_cast<uint8_t>(h[i] >> 8);
    out[i * 4 + 3] = static_cast<uint8_t>(h[i]);
  }
}

// A digest as 40 lowercase hex characters at `out`.
void WriteHex(const std::array<uint8_t, Sha1::kDigestSize>& digest, uint8_t* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (size_t i = 0; i < digest.size(); ++i) {
    out[i * 2] = static_cast<uint8_t>(kHex[digest[i] >> 4]);
    out[i * 2 + 1] = static_cast<uint8_t>(kHex[digest[i] & 0xf]);
  }
}

void CompressPortable(uint32_t state[5], const uint8_t* blocks, size_t count) {
  for (; count > 0; --count, blocks += 64) {
    uint32_t w[80];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(blocks[i * 4]) << 24) |
             (static_cast<uint32_t>(blocks[i * 4 + 1]) << 16) |
             (static_cast<uint32_t>(blocks[i * 4 + 2]) << 8) |
             static_cast<uint32_t>(blocks[i * 4 + 3]);
    }
    for (int i = 16; i < 80; ++i) {
      w[i] = Rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
    }

    uint32_t a = state[0];
    uint32_t b = state[1];
    uint32_t c = state[2];
    uint32_t d = state[3];
    uint32_t e = state[4];

    // Four 20-round stages, one boolean function and constant each, so no
    // round branches on its index.
    auto round = [&](uint32_t f, uint32_t k, uint32_t w_i) {
      uint32_t tmp = Rotl(a, 5) + f + e + k + w_i;
      e = d;
      d = c;
      c = Rotl(b, 30);
      b = a;
      a = tmp;
    };
    for (int i = 0; i < 20; ++i) {
      round((b & c) | (~b & d), 0x5a827999u, w[i]);
    }
    for (int i = 20; i < 40; ++i) {
      round(b ^ c ^ d, 0x6ed9eba1u, w[i]);
    }
    for (int i = 40; i < 60; ++i) {
      round((b & c) | (b & d) | (c & d), 0x8f1bbcdcu, w[i]);
    }
    for (int i = 60; i < 80; ++i) {
      round(b ^ c ^ d, 0xca62c1d6u, w[i]);
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
  }
}

constexpr Sha1Kernel kPortable{"portable", CompressPortable};

#ifdef LFI_SHA1_X86

// The SHA-extension kernel is compiled for those instructions function by
// function, so the rest of the build keeps its baseline target and this code
// runs only after CPUID has vouched for it.
#define LFI_SHA_TARGET __attribute__((target("sha,sse4.1,ssse3")))

// Message words sit in a vector most significant lane first (W[t] in lane 3),
// the layout sha1rnds4 wants; this shuffle turns 16 big-endian input bytes
// into it.
#define LFI_SHA_BSWAP_MASK _mm_set_epi64x(0x0001020304050607ll, 0x08090a0b0c0d0e0fll)

// Rounds 4G..4G+3. msg[] is a ring of the last four message vectors: group
// G < 4 loads W[4G..4G+3], and a later group derives its words in place of
// group G-4's from groups G-4..G-1 (sha1msg1, xor, sha1msg2). `e` carries
// the E input: state[4] before group 0, and after that the A of the group
// before, which sha1nexte rotates and adds to the message words.
template <int G>
LFI_SHA_TARGET __attribute__((always_inline)) inline void ShaExtGroups(
    const uint8_t* block, __m128i* msg, __m128i* abcd, __m128i* e) {
  __m128i& m = msg[G & 3];
  if constexpr (G < 4) {
    m = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * G)),
                         LFI_SHA_BSWAP_MASK);
  } else {
    m = _mm_sha1msg2_epu32(
        _mm_xor_si128(_mm_sha1msg1_epu32(m, msg[(G + 1) & 3]), msg[(G + 2) & 3]),
        msg[(G + 3) & 3]);
  }
  __m128i e_plus_w = G == 0 ? _mm_add_epi32(*e, m) : _mm_sha1nexte_epu32(*e, m);
  *e = *abcd;
  *abcd = _mm_sha1rnds4_epu32(*abcd, e_plus_w, G / 5);
  if constexpr (G < 19) {
    ShaExtGroups<G + 1>(block, msg, abcd, e);
  }
}

LFI_SHA_TARGET void CompressShaExt(uint32_t state[5], const uint8_t* blocks, size_t count) {
  // ABCD with A in lane 3; E alone in lane 3.
  __m128i abcd =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1b);
  __m128i e = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  for (; count > 0; --count, blocks += 64) {
    const __m128i abcd_in = abcd;
    const __m128i e_in = e;
    __m128i msg[4];
    ShaExtGroups<0>(blocks, msg, &abcd, &e);
    // The final E is the last group's input A, rotated, plus the block's E.
    e = _mm_sha1nexte_epu32(e, e_in);
    abcd = _mm_add_epi32(abcd, abcd_in);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_shuffle_epi32(abcd, 0x1b));
  state[4] = static_cast<uint32_t>(_mm_extract_epi32(e, 3));
}

constexpr Sha1Kernel kShaExt{"sha-ext", CompressShaExt};

bool CpuHasShaExtensions() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    return false;
  }
  bool ssse3 = (ecx & bit_SSSE3) != 0;
  bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    return false;
  }
  bool sha = (ebx & (1u << 29)) != 0;
  return sha && ssse3 && sse41;
}

#endif  // LFI_SHA1_X86

}  // namespace

const Sha1Kernel& Sha1::PortableKernel() { return kPortable; }

const Sha1Kernel* Sha1::ShaExtensionsKernel() {
#ifdef LFI_SHA1_X86
  static const bool supported = CpuHasShaExtensions();
  return supported ? &kShaExt : nullptr;
#else
  return nullptr;
#endif
}

const Sha1Kernel& Sha1::ActiveKernel() {
  static const Sha1Kernel& active =
      ShaExtensionsKernel() != nullptr ? *ShaExtensionsKernel() : kPortable;
  return active;
}

Sha1::Sha1(const Sha1Kernel& kernel) : compress_(kernel.compress) {
  std::copy(std::begin(kInitialState), std::end(kInitialState), h_);
}

void Sha1::Update(const void* data, size_t len) {
  if (len == 0) {
    return;
  }
  const uint8_t* p = static_cast<const uint8_t*>(data);
  total_bits_ += static_cast<uint64_t>(len) * 8;
  if (buffered_ > 0) {
    size_t take = std::min(64 - buffered_, len);
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    len -= take;
    if (buffered_ < 64) {
      return;
    }
    compress_(h_, buffer_, 1);
    buffered_ = 0;
  }
  // Whole blocks go to the kernel straight from the caller's bytes; only the
  // tail is buffered.
  size_t blocks = len / 64;
  if (blocks > 0) {
    compress_(h_, p, blocks);
    p += blocks * 64;
    len -= blocks * 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffered_ = len;
  }
}

std::array<uint8_t, Sha1::kDigestSize> Sha1::Finish() {
  uint64_t bits = total_bits_;
  // The 0x80 marker, then zeros up to the length field at byte 56 -- of this
  // block, or of one more when the marker leaves no room for the length.
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_ + buffered_, 0, 64 - buffered_);
    compress_(h_, buffer_, 1);
    buffered_ = 0;
  }
  std::memset(buffer_ + buffered_, 0, 56 - buffered_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bits >> (56 - i * 8));
  }
  compress_(h_, buffer_, 1);

  std::array<uint8_t, kDigestSize> out;
  WriteBigEndian(h_, out.data());
  return out;
}

std::string Sha1::StretchHex(std::string_view seed, int rounds, const Sha1Kernel& kernel) {
  if (rounds <= 0) {
    return std::string(seed);
  }
  Sha1 first(kernel);
  first.Update(seed);
  std::array<uint8_t, kDigestSize> digest = first.Finish();
  // The one block a 40-byte message pads to: the message, the 0x80 marker,
  // zeros, and the bit length 320 in the last two bytes.
  uint8_t block[64] = {};
  block[40] = 0x80;
  block[62] = 320 >> 8;
  block[63] = 320 & 0xff;
  for (int round = 1; round < rounds; ++round) {
    WriteHex(digest, block);
    uint32_t h[5];
    std::copy(std::begin(kInitialState), std::end(kInitialState), h);
    kernel.compress(h, block, 1);
    WriteBigEndian(h, digest.data());
  }
  return ToHex(digest);
}

std::string Sha1::HexDigest(std::string_view data) {
  Sha1 h;
  h.Update(data);
  return ToHex(h.Finish());
}

std::string Sha1::ToHex(const std::array<uint8_t, kDigestSize>& digest) {
  std::string out(kDigestSize * 2, '\0');
  WriteHex(digest, reinterpret_cast<uint8_t*>(out.data()));
  return out;
}

}  // namespace lfi
