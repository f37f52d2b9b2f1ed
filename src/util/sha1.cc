#include "util/sha1.h"

#include <cstring>

namespace lfi {
namespace {

inline uint32_t Rotl(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

}  // namespace

Sha1::Sha1() {
  h_[0] = 0x67452301u;
  h_[1] = 0xefcdab89u;
  h_[2] = 0x98badcfeu;
  h_[3] = 0x10325476u;
  h_[4] = 0xc3d2e1f0u;
}

void Sha1::ProcessBlock(const uint8_t* block) {
  uint32_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
           (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = Rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }

  uint32_t a = h_[0];
  uint32_t b = h_[1];
  uint32_t c = h_[2];
  uint32_t d = h_[3];
  uint32_t e = h_[4];

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

  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

void Sha1::Update(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  total_bits_ += static_cast<uint64_t>(len) * 8;
  while (len > 0) {
    size_t take = 64 - buffered_;
    if (take > len) {
      take = len;
    }
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    len -= take;
    if (buffered_ == 64) {
      ProcessBlock(buffer_);
      buffered_ = 0;
    }
  }
}

std::array<uint8_t, Sha1::kDigestSize> Sha1::Finish() {
  uint64_t bits = total_bits_;
  // The 0x80 marker, then zeros up to the length field at byte 56 -- of this
  // block, or of one more when the marker leaves no room for the length.
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_ + buffered_, 0, 64 - buffered_);
    ProcessBlock(buffer_);
    buffered_ = 0;
  }
  std::memset(buffer_ + buffered_, 0, 56 - buffered_);
  buffered_ = 56;
  uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) {
    len_be[i] = static_cast<uint8_t>(bits >> (56 - i * 8));
  }
  // Bypass Update so total_bits_ is not disturbed by the length field itself.
  std::memcpy(buffer_ + buffered_, len_be, 8);
  ProcessBlock(buffer_);

  std::array<uint8_t, kDigestSize> out;
  for (int i = 0; i < 5; ++i) {
    out[i * 4] = static_cast<uint8_t>(h_[i] >> 24);
    out[i * 4 + 1] = static_cast<uint8_t>(h_[i] >> 16);
    out[i * 4 + 2] = static_cast<uint8_t>(h_[i] >> 8);
    out[i * 4 + 3] = static_cast<uint8_t>(h_[i]);
  }
  return out;
}

std::string Sha1::HexDigest(std::string_view data) {
  Sha1 h;
  h.Update(data);
  return ToHex(h.Finish());
}

std::string Sha1::ToHex(const std::array<uint8_t, kDigestSize>& digest) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(kDigestSize * 2);
  for (uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

}  // namespace lfi
