// SHA-1 message digest (FIPS 180-1).
//
// Every content hash in the tree goes through this one implementation:
// mini-Git's object ids (src/apps/git is content-addressed, like the real Git
// it stands in for), pbft's request digests and session-key stretch, bfs's
// lease-key stretch, httpd, and core/scenario's ScenarioFingerprint. The key
// stretches make SHA-1 most of pbft's and bfs's bring-up, so the compression
// function comes in two kernels with byte-identical output: a portable one,
// and one built on the x86 SHA extensions. The process picks one once, from
// CPUID; there is no knob.

#ifndef LFI_UTIL_SHA1_H_
#define LFI_UTIL_SHA1_H_

#include <array>
#include <cstdint>
#include <cstddef>
#include <string>
#include <string_view>

namespace lfi {

// One SHA-1 compression function: folds `count` whole 64-byte blocks into
// the five state words.
struct Sha1Kernel {
  const char* name;
  void (*compress)(uint32_t state[5], const uint8_t* blocks, size_t count);
};

class Sha1 {
 public:
  static constexpr size_t kDigestSize = 20;

  // Hashes with ActiveKernel().
  Sha1() : Sha1(ActiveKernel()) {}
  // Hashes with `kernel`; every kernel yields the same digest.
  explicit Sha1(const Sha1Kernel& kernel);

  // Absorbs more input. May be called any number of times before Finish().
  void Update(const void* data, size_t len);
  void Update(std::string_view s) { Update(s.data(), s.size()); }

  // Completes the digest. The object must not be reused afterwards.
  std::array<uint8_t, kDigestSize> Finish();

  // One-shot convenience: returns the 40-character lowercase hex digest.
  static std::string HexDigest(std::string_view data);

  // Renders a finished digest as 40 lowercase hex characters (what streaming
  // callers pair with Update/Finish to get HexDigest without the one-shot
  // input string).
  static std::string ToHex(const std::array<uint8_t, kDigestSize>& digest);

  // The iterated key stretch of pbft's session keys and bfs's lease keys:
  // `seed` hashed `rounds` times, each round hashing the previous round's
  // 40-character lowercase hex digest (`seed` itself when `rounds` is 0).
  // Every round after the first hashes exactly 40 bytes, one padded block,
  // so it is one compression on a stack block: no heap string per round.
  static std::string StretchHex(std::string_view seed, int rounds) {
    return StretchHex(seed, rounds, ActiveKernel());
  }
  static std::string StretchHex(std::string_view seed, int rounds, const Sha1Kernel& kernel);

  // The portable kernel: plain C++, the only kernel on non-x86 builds.
  static const Sha1Kernel& PortableKernel();
  // The kernel on the x86 SHA extensions (sha1rnds4, sha1nexte, sha1msg1,
  // sha1msg2), or nullptr where CPUID reports no SHA, SSSE3 or SSE4.1, or the
  // build is not for x86.
  static const Sha1Kernel* ShaExtensionsKernel();
  // The kernel a default-constructed Sha1 uses: the SHA-extension kernel
  // where there is one, else the portable one. Chosen on first use, once per
  // process.
  static const Sha1Kernel& ActiveKernel();
  // ActiveKernel().name: "sha-ext" or "portable". Benches record it so that
  // numbers from hosts with and without the extensions are not compared
  // blind.
  static const char* KernelName() { return ActiveKernel().name; }

 private:
  void (*compress_)(uint32_t state[5], const uint8_t* blocks, size_t count);
  uint32_t h_[5];
  uint64_t total_bits_ = 0;
  uint8_t buffer_[64];
  size_t buffered_ = 0;
};

}  // namespace lfi

#endif  // LFI_UTIL_SHA1_H_
