// Application binaries and their call-site tables.
//
// Every target application ships in two coupled representations:
//   1. a C++ implementation that runs against the virtual libc, and
//   2. a SimELF binary image -- what the paper's analyzer sees -- generated
//      from a declarative call-site table.
// The table names every library call site and its error-checking pattern;
// the builder emits ISA code realizing the pattern and records each site's
// byte offset. The C++ implementation marks its active call site by name
// (AppBinary::SiteOffset feeds ScopedFrame::set_offset), so the offsets the
// analyzer reports are exactly the offsets the call-stack triggers match at
// run time. The table is also the ground truth for the Table 4 accuracy
// evaluation.
//
// Call sites run millions of times per campaign, so each static call site
// resolves its name once (CachedSiteOffset, below) and afterwards only reads
// a uint32_t. The module and function names an app pushes through
// ScopedFrame must have static storage duration (vlib/call_stack.h): string
// literals and the apps' kModule constants.

#ifndef LFI_APPS_COMMON_APP_BINARY_H_
#define LFI_APPS_COMMON_APP_BINARY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "image/image.h"

namespace lfi {

// How the (synthetic) application code checks a library call's result.
enum class CheckPattern {
  kCheckEqAll,       // cmpi+je on every error code -> fully checked
  kCheckIneq,        // cmpi 0 / jl (or sign test) -> fully checked
  kCheckZeroEq,      // test r0,r0 + je -> pointer null check (fully, E={0})
  kCheckSome,        // equality checks on a strict subset -> partially checked
  kNoCheck,          // result ignored -> unchecked
  kCheckOutsideE,    // checks literals outside E -> unchecked per Algorithm 1
  kCheckViaHelper,   // moves the result to an argument register and calls a
                     // helper that performs the check; a real check the
                     // intra-procedural analyzer cannot see -> analyzer says
                     // unchecked, ground truth says checked (false positive)
};

struct CallSiteSpec {
  std::string site_name;       // unique, e.g. "git.read_ref.opendir"
  std::string enclosing;       // emitted function symbol
  std::string function;        // library function called
  CheckPattern pattern = CheckPattern::kNoCheck;
  std::vector<int64_t> codes;  // codes to check (meaning depends on pattern)

  // Ground truth for the accuracy evaluation: does the application actually
  // check this call's error return?
  bool actually_checked() const {
    return pattern != CheckPattern::kNoCheck && pattern != CheckPattern::kCheckOutsideE;
  }
};

class AppBinary {
 public:
  AppBinary() = default;
  using SiteOffsets = std::map<std::string, uint32_t, std::less<>>;

  AppBinary(Image image, SiteOffsets site_offsets,
            std::vector<CallSiteSpec> sites)
      : image_(std::move(image)),
        site_offsets_(std::move(site_offsets)),
        sites_(std::move(sites)) {}

  const Image& image() const { return image_; }
  const std::vector<CallSiteSpec>& sites() const { return sites_; }

  // Byte offset of the named call site; 0xffffffff when unknown.
  uint32_t SiteOffset(std::string_view site_name) const;

  const CallSiteSpec* FindSite(const std::string& site_name) const;

  // All sites calling `function`, in emission order (matching the order the
  // analyzer reports them).
  std::vector<const CallSiteSpec*> SitesFor(const std::string& function) const;

 private:
  Image image_;
  SiteOffsets site_offsets_;
  std::vector<CallSiteSpec> sites_;
};

// A call-site name as a template argument: CachedSiteOffset<Binary, "x.y">
// is its own function, so each name gets its own function-local static.
template <size_t N>
struct SiteName {
  constexpr SiteName(const char (&name)[N]) { std::copy_n(name, N, chars); }
  constexpr std::string_view view() const { return {chars, N - 1}; }
  char chars[N];
};

// Offset of call site `kName` in the binary `Binary()` returns, resolved on
// first use; every later call is one static read. Apps wrap it as
//   template <SiteName kName> uint32_t Site() {
//     return CachedSiteOffset<MyBinary, kName>();
//   }
// and mark a call site with frame.set_offset(Site<"my.site">()).
template <const AppBinary& (*Binary)(), SiteName kName>
uint32_t CachedSiteOffset() {
  static const uint32_t offset = Binary().SiteOffset(kName.view());
  return offset;
}

// Builds the binary from a site table. Filler instructions and the check
// patterns are emitted deterministically; `filler_seed` varies inter-site
// padding so binaries do not look degenerate.
class AppBinaryBuilder {
 public:
  explicit AppBinaryBuilder(std::string module_name, uint64_t filler_seed = 17);

  // Adds one call site. Sites with the same `enclosing` name are grouped
  // into one emitted function, in insertion order.
  void AddSite(CallSiteSpec spec);

  // Emits, assembles and resolves offsets. Aborts on internal errors (the
  // table is compiled in, so failures are bugs, not input errors).
  AppBinary Build();

 private:
  std::string module_name_;
  uint64_t filler_seed_;
  std::vector<CallSiteSpec> sites_;
};

}  // namespace lfi

#endif  // LFI_APPS_COMMON_APP_BINARY_H_
