// Call site analysis (§5, Algorithm 1).
//
// Scans a target binary for all call sites of a library function F, builds a
// partial CFG after each site, runs the return-value dataflow analysis, and
// classifies each site:
//   - fully checked:     Chk_eq ⊇ E  ∨  Chk_ineq ≠ ∅
//   - partially checked: Chk_eq ≠ ∅  ∧  Chk_eq ⊂ E
//   - unchecked:         no error code in E is checked (even if codes outside
//                         E are)
// where E is the set of error return codes from the library's fault profile.
// The analyzer never needs the target's source code.

#ifndef LFI_ANALYSIS_CALLSITE_ANALYZER_H_
#define LFI_ANALYSIS_CALLSITE_ANALYZER_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "analysis/dataflow.h"
#include "image/image.h"

namespace lfi {

struct CallSite {
  std::string module;      // module name of the binary
  uint32_t offset = 0;     // byte offset of the call instruction
  std::string function;    // callee (the intercepted library function)
  std::string enclosing;   // symbol of the containing function, if any
};

enum class CheckClass {
  kFull,     // member of C_yes
  kPartial,  // member of C_part
  kNone,     // member of C_not
};

const char* CheckClassName(CheckClass cls);

struct CallSiteReport {
  CallSite site;
  CheckClass check_class = CheckClass::kNone;
  std::set<int64_t> checked_eq;     // Chk_eq restricted to all observed literals
  std::set<int64_t> checked_ineq;   // literals checked by inequality
  bool has_ineq_check = false;
  std::set<int64_t> missing_codes;  // error codes in E not covered
};

struct AnalyzerStats {
  size_t call_sites = 0;
  size_t instructions_visited = 0;
  int dataflow_iterations = 0;
};

class CallSiteAnalyzer {
 public:
  struct Options {
    size_t max_postcall_instructions = kDefaultPostCallWindow;
  };

  CallSiteAnalyzer() = default;
  explicit CallSiteAnalyzer(Options options) : options_(options) {}

  // All call sites of import `function` in `image`.
  static std::vector<CallSite> FindCallSites(const Image& image, const std::string& function);
  // The call sites of every import in one pass over `image`'s text: entry i
  // holds those of image.imports()[i], each in text order. What a caller
  // analyzing many functions of one image scans instead of FindCallSites.
  static std::vector<std::vector<CallSite>> FindImportCallSites(const Image& image);

  // Runs Algorithm 1 for `function` with error-code set `error_codes`.
  std::vector<CallSiteReport> Analyze(const Image& image, const std::string& function,
                                      const std::set<int64_t>& error_codes,
                                      AnalyzerStats* stats = nullptr) const {
    return AnalyzeSites(image, FindCallSites(image, function), error_codes, stats);
  }
  // Runs Algorithm 1 over `sites`, the call sites of one function in `image`.
  std::vector<CallSiteReport> AnalyzeSites(const Image& image, const std::vector<CallSite>& sites,
                                           const std::set<int64_t>& error_codes,
                                           AnalyzerStats* stats = nullptr) const;

 private:
  Options options_;
};

}  // namespace lfi

#endif  // LFI_ANALYSIS_CALLSITE_ANALYZER_H_
