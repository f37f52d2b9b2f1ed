#include "util/binary_io.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

namespace lfi {

uint32_t Crc32(std::string_view data) {
  // Slicing-by-8 (zlib's technique): table[k][b] is the CRC of byte b
  // followed by k zero bytes, so eight bytes fold in per iteration. Same
  // polynomial and result as the classic one-byte-per-step table walk --
  // journal checksums cover every extent payload, so this is a measurable
  // slice of journal load time.
  static const std::array<std::array<uint32_t, 256>, 8> kTable = [] {
    std::array<std::array<uint32_t, 256>, 8> table{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1) != 0 ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
      }
      table[0][i] = crc;
    }
    for (size_t k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        table[k][i] = (table[k - 1][i] >> 8) ^ table[0][table[k - 1][i] & 0xFF];
      }
    }
    return table;
  }();
  auto u32 = [](const unsigned char* p) {
    return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
  };
  uint32_t crc = 0xFFFFFFFFu;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  while (n >= 8) {
    uint32_t lo = crc ^ u32(p);
    uint32_t hi = u32(p + 4);
    crc = kTable[7][lo & 0xFF] ^ kTable[6][(lo >> 8) & 0xFF] ^ kTable[5][(lo >> 16) & 0xFF] ^
          kTable[4][lo >> 24] ^ kTable[3][hi & 0xFF] ^ kTable[2][(hi >> 8) & 0xFF] ^
          kTable[1][(hi >> 16) & 0xFF] ^ kTable[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n != 0; --n, ++p) {
    crc = kTable[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 0x7F + kMinMatch;  // 131
constexpr size_t kMaxLiteralRun = 128;
constexpr int kHashBits = 15;

// The four bytes at `p` as a little-endian word, on any host.
uint32_t Load32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

// LzCompressor's output: tokens go straight into a pre-sized buffer, which
// doubles whenever fewer bytes than the largest token (a full literal run)
// remain, so a token's bytes are written without per-byte size checks.
class TokenSink {
 public:
  static constexpr size_t kMaxToken = 1 + kMaxLiteralRun;

  explicit TokenSink(size_t input_size) { out_.resize(input_size + input_size / 64 + kMaxToken); }

  void Literals(const unsigned char* bytes, size_t count) {
    while (count != 0) {
      size_t run = std::min(kMaxLiteralRun, count);
      char* o = Room();
      o[0] = static_cast<char>(run - 1);
      std::memcpy(o + 1, bytes, run);
      w_ += 1 + run;
      bytes += run;
      count -= run;
    }
  }

  void Match(size_t len, uint64_t distance) {
    char* o = Room();
    size_t n = 0;
    o[n++] = static_cast<char>(0x80 | (len - kMinMatch));
    while (distance >= 0x80) {
      o[n++] = static_cast<char>(distance | 0x80);
      distance >>= 7;
    }
    o[n++] = static_cast<char>(distance);
    w_ += n;
  }

  std::string Take() {
    out_.resize(w_);
    return std::move(out_);
  }

 private:
  char* Room() {
    if (out_.size() - w_ < kMaxToken) {
      out_.resize(2 * out_.size());
    }
    return out_.data() + w_;
  }

  std::string out_;
  size_t w_ = 0;
};

}  // namespace

std::string LzCompress(std::string_view data) { return LzCompressor().Compress(data); }

std::string LzCompressor::Compress(std::string_view data) {
  if (data.empty()) {
    return {};
  }
  if (table_.empty() || data.size() > UINT32_MAX - base_) {
    // First call, or the base would wrap: start over from an empty table.
    table_.assign(size_t{1} << kHashBits, 0);
    base_ = 1;
  }
  // Last-occurrence hash chain of length one: greedy, fast, deterministic.
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data.data());
  const size_t size = data.size();
  uint32_t* table = table_.data();
  const uint32_t base = base_;
  TokenSink out(size);
  size_t literal_start = 0;
  size_t pos = 0;
  while (pos + kMinMatch <= size) {
    uint32_t word = Load32(p + pos);
    uint32_t slot = (word * 2654435761u) >> (32 - kHashBits);
    uint32_t entry = table[slot];
    table[slot] = base + static_cast<uint32_t>(pos);
    size_t candidate = entry - base;
    if (entry >= base && Load32(p + candidate) == word) {
      size_t limit = std::min(kMaxMatch, size - pos);
      size_t len = kMinMatch;
      while (len + 8 <= limit && std::memcmp(p + candidate + len, p + pos + len, 8) == 0) {
        len += 8;
      }
      while (len < limit && p[candidate + len] == p[pos + len]) {
        ++len;
      }
      out.Literals(p + literal_start, pos - literal_start);
      out.Match(len, pos - candidate);
      pos += len;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  out.Literals(p + literal_start, size - literal_start);
  base_ += static_cast<uint32_t>(size);
  return out.Take();
}

std::optional<std::string> LzDecompress(std::string_view data, size_t raw_size) {
  // Decompression is on the journal-load hot path (every record read passes
  // through here), so this works on raw pointers into a pre-sized buffer
  // rather than through ByteReader/std::string growth: every branch below
  // still bounds-checks against both the input and `raw_size` before it
  // copies.
  std::string out;
  out.resize(raw_size);
  char* dst = out.data();
  size_t w = 0;
  const char* p = data.data();
  const char* const end = p + data.size();
  while (p < end) {
    uint8_t token = static_cast<uint8_t>(*p++);
    if (token < 0x80) {
      size_t run = size_t{token} + 1;
      if (static_cast<size_t>(end - p) < run || raw_size - w < run) {
        return std::nullopt;
      }
      std::memcpy(dst + w, p, run);
      p += run;
      w += run;
    } else {
      size_t len = size_t(token & 0x7F) + kMinMatch;
      uint64_t distance = 0;
      int shift = 0;
      while (true) {
        if (p >= end || shift > 63) {
          return std::nullopt;
        }
        uint8_t b = static_cast<uint8_t>(*p++);
        distance |= uint64_t(b & 0x7F) << shift;
        if ((b & 0x80) == 0) {
          break;
        }
        shift += 7;
      }
      if (distance == 0 || distance > w || raw_size - w < len) {
        return std::nullopt;
      }
      size_t src = w - static_cast<size_t>(distance);
      if (distance >= len) {
        std::memcpy(dst + w, dst + src, len);
      } else {
        // Byte-at-a-time so overlapping matches (distance < len) replicate,
        // the way LZ77 run-length encoding relies on.
        for (size_t i = 0; i < len; ++i) {
          dst[w + i] = dst[src + i];
        }
      }
      w += len;
    }
  }
  if (w != raw_size) {
    return std::nullopt;
  }
  return out;
}

}  // namespace lfi
