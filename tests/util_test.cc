#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/errno_codes.h"
#include "util/rng.h"
#include "util/sha1.h"
#include "util/string_util.h"

namespace lfi {
namespace {

TEST(StringUtil, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, SplitSingleField) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtil, SplitWhitespaceDropsEmpty) {
  auto parts = SplitWhitespace("  foo \t bar\nbaz  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[2], "baz");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("a b"), "a b");
}

TEST(StringUtil, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
}

TEST(StringUtil, ParseIntDecimal) {
  EXPECT_EQ(ParseInt("42").value(), 42);
  EXPECT_EQ(ParseInt("-7").value(), -7);
  EXPECT_EQ(ParseInt("  13 ").value(), 13);
}

TEST(StringUtil, ParseIntHex) {
  EXPECT_EQ(ParseInt("0x1f").value(), 31);
  EXPECT_EQ(ParseInt("0xABC").value(), 0xabc);
}

TEST(StringUtil, ParseIntRejectsGarbage) {
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_FALSE(ParseInt("12x").has_value());
  EXPECT_FALSE(ParseInt("abc").has_value());
  EXPECT_FALSE(ParseInt("1 2").has_value());
}

TEST(StringUtil, ParseUintIsStrictOverTheFullRange) {
  EXPECT_EQ(ParseUint("0").value(), 0u);
  EXPECT_EQ(ParseUint("007").value(), 7u);  // decimal, not octal
  EXPECT_EQ(ParseUint("0X10").value(), 16u);
  EXPECT_EQ(ParseUint("18446744073709551615").value(), UINT64_MAX);
  EXPECT_EQ(ParseUint("0xffffffffffffffff").value(), UINT64_MAX);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "12abc", "0x", "0x-1", "1.5",
                          "18446744073709551616", "0x10000000000000000"}) {
    EXPECT_FALSE(ParseUint(bad).has_value()) << bad;
  }
  EXPECT_FALSE(ParseUint(std::string_view("5\0", 2)).has_value());
}

// The strtoll-based parse ParseInt must agree with: trim, pick base 16 on a
// (signed) 0x/0X prefix with at least one character after it, and accept
// only a full, in-range conversion.
std::optional<int64_t> ReferenceParseInt(std::string_view s) {
  s = Trim(s);
  if (s.empty()) {
    return std::nullopt;
  }
  std::string buf(s);
  char* end = nullptr;
  errno = 0;
  int base = 10;
  size_t skip = (s[0] == '-' || s[0] == '+') ? 1 : 0;
  if (s.size() > skip + 2 && s[skip] == '0' && (s[skip + 1] == 'x' || s[skip + 1] == 'X')) {
    base = 16;
  }
  long long v = std::strtoll(buf.c_str(), &end, base);
  if (errno != 0 || end == buf.c_str() || *end != '\0') {
    return std::nullopt;
  }
  return static_cast<int64_t>(v);
}

TEST(StringUtil, ParseIntMatchesStrtollTable) {
  const std::vector<std::string> table = {
      "", " ", "0", "-0", "+0", "7", "+7", "-7", "+-1", "-+1", "--1", "++1", "-", "+",
      "0x", "0X", "-0x", "+0x", "0x1f", "0X1F", "-0x10", "+0xff", "0x-1", "0x+1", "0x 1",
      "0xg", "0x0x1", "00x1", "0b1", "1e3", " 42", "42 ", "\t42\n", " -42\t", "4 2", "- 4",
      "12x", "x12", "abc", "0x7fffffffffffffff", "0x8000000000000000", "-0x8000000000000000",
      "-0x8000000000000001", "9223372036854775807", "9223372036854775808",
      "-9223372036854775808", "-9223372036854775809", "99999999999999999999", "007",
      "-007", "0x00000000000000001", std::string("5\0", 2), std::string("5\0x", 3),
      std::string(" \0 5", 4), std::string("0x\0" "1", 4), "\v\f12\r"};
  for (const std::string& s : table) {
    EXPECT_EQ(ParseInt(s), ReferenceParseInt(s)) << '"' << s << '"';
  }
}

TEST(StringUtil, ParseIntMatchesStrtollRandom) {
  // Short strings over an alphabet dense in the characters the parse cares
  // about, so signs, prefixes and whitespace collide often.
  const std::string alphabet = "0123456789abcdefxX+- \t\n9fFg";
  Rng rng(20260);
  for (int i = 0; i < 200000; ++i) {
    std::string s;
    size_t len = rng.NextBelow(8);
    for (size_t j = 0; j < len; ++j) {
      s += alphabet[rng.NextBelow(alphabet.size())];
    }
    ASSERT_EQ(ParseInt(s), ReferenceParseInt(s)) << '"' << s << '"';
  }
  // Long digit runs straddling the int64_t boundary, in both bases.
  for (int i = 0; i < 20000; ++i) {
    bool hex = rng.Chance(0.5);
    std::string s = rng.Chance(0.5) ? "-" : (rng.Chance(0.5) ? "+" : "");
    s += hex ? "0x" : "";
    size_t len = hex ? 14 + rng.NextBelow(5) : 17 + rng.NextBelow(4);
    for (size_t j = 0; j < len; ++j) {
      s += "0123456789abcdef"[rng.NextBelow(hex ? 16 : 10)];
    }
    ASSERT_EQ(ParseInt(s), ReferenceParseInt(s)) << '"' << s << '"';
  }
}

TEST(StringUtil, StrFormat) {
  EXPECT_EQ(StrFormat("%s=%d", "x", 5), "x=5");
  EXPECT_EQ(StrFormat("%06x", 0xa9), "0000a9");
}

TEST(StringUtil, StrFormatExactAcrossStackBufferBoundary) {
  // StrFormat formats into a 256-byte stack buffer and only takes a second
  // pass for output that does not fit (256 bytes and up, with the NUL).
  for (size_t len : {size_t{0}, size_t{1}, size_t{255}, size_t{256}, size_t{257}, size_t{4096}}) {
    std::string want;
    for (size_t i = 0; i < len; ++i) {
      want += static_cast<char>('a' + i % 26);
    }
    EXPECT_EQ(StrFormat("%s", want.c_str()), want) << len;
    if (len >= 2) {
      // Mixed conversions landing on the same length.
      std::string tail = want.substr(2);
      EXPECT_EQ(StrFormat("%c%d%s", 'a', 1, tail.c_str()), "a1" + tail) << len;
    }
  }
}

TEST(StringUtil, SplitViewsMatchesSplit) {
  for (std::string_view s : {"", "|", "a", "a|b", "a||b|", "|x|y|z|w|v"}) {
    std::vector<std::string> want = Split(s, '|');
    std::string_view got[3];
    ASSERT_EQ(SplitViews(s, '|', got), want.size()) << s;
    for (size_t i = 0; i < want.size() && i < 3; ++i) {
      EXPECT_EQ(got[i], want[i]) << s << " field " << i;
    }
  }
}

TEST(StringUtil, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ", "), "solo");
}

TEST(Rng, Deterministic) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(Rng, NextDoubleInRange) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(42);
  int hits = 0;
  const int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.Chance(0.3)) {
      ++hits;
    }
  }
  double rate = static_cast<double>(hits) / kTrials;
  EXPECT_NEAR(rate, 0.3, 0.01);
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInRange(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

// SHA-1 (FIPS 180-1) through both compression kernels, called directly. The
// SHA-extension half skips only where CPUID reports no SHA extensions (or
// the build is not for x86).
class Sha1KernelTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "portable") {
      kernel_ = &Sha1::PortableKernel();
    } else if ((kernel_ = Sha1::ShaExtensionsKernel()) == nullptr) {
      GTEST_SKIP() << "CPUID reports no SHA extensions; only the portable kernel runs here";
    }
  }

  // One Update call with the whole input.
  std::string OneShot(std::string_view data) const {
    Sha1 h(*kernel_);
    h.Update(data);
    return Sha1::ToHex(h.Finish());
  }

  // One Update call per byte.
  std::string ByteAtATime(std::string_view data) const {
    Sha1 h(*kernel_);
    for (char c : data) {
      h.Update(&c, 1);
    }
    return Sha1::ToHex(h.Finish());
  }

  const Sha1Kernel* kernel_ = nullptr;
};

INSTANTIATE_TEST_SUITE_P(Kernels, Sha1KernelTest, ::testing::Values("portable", "sha-ext"),
                         [](const auto& info) {
                           return info.param == "portable" ? std::string("Portable")
                                                           : std::string("ShaExtensions");
                         });

TEST_P(Sha1KernelTest, FipsVectorsAndMillionA) {
  EXPECT_EQ(OneShot("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(OneShot(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(OneShot("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  EXPECT_EQ(OneShot(std::string(1000000, 'a')), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
  Sha1 h(*kernel_);
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(Sha1::ToHex(h.Finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

// Lengths either side of the padding boundaries: 55 leaves room for the
// length field in the last block, 56..63 push it into one more block, and 64
// and 119/120 repeat that one block later. Digests from an independent
// SHA-1 (Python's hashlib).
TEST_P(Sha1KernelTest, PaddingBoundariesOneShotAndStreaming) {
  const std::pair<size_t, const char*> kCases[] = {
      {55, "cda3fdcbfa59a0b696ac16a99de921d18d8ab155"},
      {56, "e18b39812763253eee4fec6381ecf5c8728b7d45"},
      {63, "054e0c87b490fd51e26a290b829d4ff401ca63f4"},
      {64, "b1051859636f18b49713fd1d1eba052b66757471"},
      {119, "7bcaabf97d0418a3a047aa4eaecb0be47a38d2c2"},
      {120, "2a50b712c9677fba22679901d38dd2789fd3e6c0"},
  };
  for (const auto& [len, hex] : kCases) {
    std::string data;
    for (size_t i = 0; i < len; ++i) {
      data.push_back(static_cast<char>('A' + (i * 7) % 53));
    }
    EXPECT_EQ(OneShot(data), hex) << "length " << len;
    EXPECT_EQ(ByteAtATime(data), hex) << "length " << len;
  }
}

// Session keys reach no journal byte, so a kernel or a stretch routine that
// stretched a pbft pair identity differently would fail no golden: pin one
// stretch (kKeyStretchRounds = 1536 rounds, src/apps/pbft/pbft.cc) to the
// value Python's hashlib computes.
TEST_P(Sha1KernelTest, PbftSessionKeyStretchIsPinned) {
  EXPECT_EQ(Sha1::StretchHex("pbft-session-key|9000|9001", 1536, *kernel_),
            "3c19ff42b36d477622bca9ceb6a3c0c185f6a9ef");
}

// bfs's lease key (kLeaseStretchRounds = 512 rounds, src/apps/bfs/bfs.cc):
// its first 8 characters are the client's request token, which every request
// carries on the wire. Values from Python's hashlib.
TEST_P(Sha1KernelTest, BfsLeaseKeyStretchIsPinned) {
  EXPECT_EQ(Sha1::StretchHex("bfs-lease|7101", 512, *kernel_),
            "338d1ef554318b627fa006d79610e49fb2b418c6");
  EXPECT_EQ(Sha1::StretchHex("bfs-lease|7102", 512, *kernel_),
            "133974aa09c41d614884807b04a6c102e440df77");
}

// The stretch is the one-shot hex digest iterated: zero rounds return the
// seed, one round is HexDigest, and a seed longer than one block is hashed
// whole.
TEST_P(Sha1KernelTest, StretchIsTheIteratedHexDigest) {
  EXPECT_EQ(Sha1::StretchHex("abc", 0, *kernel_), "abc");
  EXPECT_EQ(Sha1::StretchHex("", 1, *kernel_), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(Sha1::StretchHex(std::string(100, 'x'), 3, *kernel_),
            "ac5ac5eed13fc8192af80e47e53e1f2bcae803ba");
  std::string key = "seed";
  for (int rounds = 1; rounds <= 5; ++rounds) {
    key = OneShot(key);
    EXPECT_EQ(Sha1::StretchHex("seed", rounds, *kernel_), key) << rounds << " rounds";
  }
}

TEST(Sha1Kernels, AgreeOnEveryLengthAndChunking) {
  const Sha1Kernel* ext = Sha1::ShaExtensionsKernel();
  if (ext == nullptr) {
    GTEST_SKIP() << "CPUID reports no SHA extensions; only the portable kernel runs here";
  }
  Rng rng(0x5a1);
  auto digest = [](const Sha1Kernel& kernel, const std::string& data,
                   const std::vector<size_t>& chunks) {
    Sha1 h(kernel);
    size_t at = 0;
    for (size_t chunk : chunks) {
      h.Update(data.data() + at, chunk);
      at += chunk;
    }
    return h.Finish();
  };
  for (size_t len = 0; len <= 200; ++len) {
    std::string data;
    for (size_t i = 0; i < len; ++i) {
      data.push_back(static_cast<char>(rng.Next()));
    }
    EXPECT_EQ(digest(*ext, data, {len}), digest(Sha1::PortableKernel(), data, {len}))
        << "length " << len;
  }
  for (int trial = 0; trial < 200; ++trial) {
    std::string data(rng.NextBelow(4097), '\0');
    for (char& c : data) {
      c = static_cast<char>(rng.Next());
    }
    std::vector<size_t> chunks;
    for (size_t left = data.size(); left > 0;) {
      size_t chunk = std::min<size_t>(left, rng.NextBelow(200));
      chunks.push_back(chunk);
      left -= chunk;
    }
    EXPECT_EQ(digest(*ext, data, chunks), digest(Sha1::PortableKernel(), data, {data.size()}))
        << "trial " << trial << ", length " << data.size();
  }
}

// CI runs this test before its benches to name the kernel they run on.
TEST(Sha1Kernels, ActiveKernelIsTheFastestTheCpuRuns) {
  std::printf("active SHA-1 kernel: %s\n", Sha1::KernelName());
  const Sha1Kernel* ext = Sha1::ShaExtensionsKernel();
  EXPECT_EQ(&Sha1::ActiveKernel(), ext != nullptr ? ext : &Sha1::PortableKernel());
  EXPECT_STREQ(Sha1::KernelName(), ext != nullptr ? "sha-ext" : "portable");
  EXPECT_EQ(Sha1::HexDigest("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(ErrnoCodes, RoundTripNames) {
  for (int v : {kEINTR, kEIO, kEAGAIN, kENOMEM, kEINVAL, kENOENT, kECONNRESET}) {
    EXPECT_EQ(ErrnoFromName(ErrnoName(v)).value(), v);
  }
}

TEST(ErrnoCodes, NamedValues) {
  EXPECT_EQ(ErrnoName(kEINTR), "EINTR");
  EXPECT_EQ(ErrnoName(kEAGAIN), "EAGAIN");
  EXPECT_EQ(ErrnoFromName("ENOMEM").value(), kENOMEM);
}

TEST(ErrnoCodes, NumericFallback) {
  EXPECT_EQ(ErrnoName(999), "E999");
  EXPECT_EQ(ErrnoFromName("77").value(), 77);
  EXPECT_FALSE(ErrnoFromName("NOTANERRNO").has_value());
}

}  // namespace
}  // namespace lfi
