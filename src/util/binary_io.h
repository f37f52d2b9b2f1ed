// Binary encoding primitives for the extent journal (core/extent_journal.h).
//
// Everything here is deterministic and self-contained: LEB128 varints,
// zigzag for signed values, CRC-32 (the IEEE polynomial every archive
// format uses), and a small greedy LZ77 codec so extents can opt into
// compression without an external library. docs/journal-format.md specifies
// the bit layouts; this header is their one implementation.

#ifndef LFI_UTIL_BINARY_IO_H_
#define LFI_UTIL_BINARY_IO_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lfi {

// CRC-32 (reflected, polynomial 0xEDB88320, init/final XOR 0xFFFFFFFF) of
// `data` -- the checksum zlib, gzip, and PNG compute.
uint32_t Crc32(std::string_view data);

// Maps signed values onto unsigned ones so small magnitudes of either sign
// stay short as varints: 0,-1,1,-2,... -> 0,1,2,3,...
inline uint64_t ZigZagEncode(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^ static_cast<uint64_t>(value >> 63);
}
inline int64_t ZigZagDecode(uint64_t value) {
  return static_cast<int64_t>(value >> 1) ^ -static_cast<int64_t>(value & 1);
}

// Append-only little-endian byte sink over a std::string.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      PutU8(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      PutU8(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  // Unsigned LEB128: 7 value bits per byte, high bit = continuation. Built
  // on the stack and appended once: record encoding writes dozens per record.
  void PutVarint(uint64_t v) {
    if (v < 0x80) {
      PutU8(static_cast<uint8_t>(v));
      return;
    }
    char bytes[10];
    size_t n = 0;
    while (v >= 0x80) {
      bytes[n++] = static_cast<char>(v | 0x80);
      v >>= 7;
    }
    bytes[n++] = static_cast<char>(v);
    buffer_.append(bytes, n);
  }
  void PutSigned(int64_t v) { PutVarint(ZigZagEncode(v)); }
  void PutBytes(std::string_view bytes) { buffer_.append(bytes); }

  const std::string& buffer() const { return buffer_; }
  std::string TakeBuffer() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }
  void Clear() { buffer_.clear(); }

 private:
  std::string buffer_;
};

// Bounds-checked reader over a byte span. Any out-of-range read latches
// ok() to false and returns zeroes; callers check ok() once per region
// instead of after every field.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  uint8_t GetU8() {
    if (pos_ >= data_.size()) {
      ok_ = false;
      return 0;
    }
    return static_cast<uint8_t>(data_[pos_++]);
  }
  uint32_t GetU32() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(GetU8()) << (8 * i);
    }
    return v;
  }
  uint64_t GetU64() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(GetU8()) << (8 * i);
    }
    return v;
  }
  uint64_t GetVarint() {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      uint8_t byte = GetU8();
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        return v;
      }
    }
    ok_ = false;  // > 10 continuation bytes: not a valid 64-bit varint
    return 0;
  }
  int64_t GetSigned() { return ZigZagDecode(GetVarint()); }
  std::string_view GetBytes(size_t n) {
    if (n > data_.size() - pos_ || pos_ > data_.size()) {
      ok_ = false;
      return {};
    }
    std::string_view out = data_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ >= data_.size(); }
  size_t pos() const { return pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Greedy LZ77 with byte-granular tokens (journal-format.md "Compression"):
//   token < 0x80   literal run of token+1 bytes, raw bytes follow
//   token >= 0x80  match of (token & 0x7F) + 4 bytes at varint distance back
// Deterministic for a given input, which the journal's bit-identity
// contracts rely on. Compression never fails; decompression returns nullopt
// on malformed input or when the output does not come to exactly raw_size.
std::string LzCompress(std::string_view data);
std::optional<std::string> LzDecompress(std::string_view data, size_t raw_size);

// LzCompress with a match table kept across calls: the table (128 KiB) is
// allocated once, and each call invalidates the previous calls' entries by
// moving a base offset past them instead of refilling it. Output is
// byte-identical to LzCompress. One per journal writer; not thread-safe.
class LzCompressor {
 public:
  std::string Compress(std::string_view data);

 private:
  // Entry = base_ + position; entries below base_ belong to earlier calls.
  std::vector<uint32_t> table_;
  uint32_t base_ = 1;
};

}  // namespace lfi

#endif  // LFI_UTIL_BINARY_IO_H_
