#include "analysis/callsite_analyzer.h"

#include <algorithm>

#include "analysis/cfg.h"

namespace lfi {

const char* CheckClassName(CheckClass cls) {
  switch (cls) {
    case CheckClass::kFull:
      return "checked";
    case CheckClass::kPartial:
      return "partially-checked";
    case CheckClass::kNone:
      return "unchecked";
  }
  return "?";
}

namespace {

// Calls `visit(offset, import_index)` for every import call in `image`'s
// text, in text order.
template <typename Visit>
void ForEachImportCall(const Image& image, Visit visit) {
  for (size_t off = 0; off + kInstrSize <= image.text().size(); off += kInstrSize) {
    Instruction instr;
    if (image.Decode(off, &instr) && instr.op == Op::kCall && instr.flags == kCallImport) {
      visit(static_cast<uint32_t>(off), instr.imm);
    }
  }
}

CallSite MakeCallSite(const Image& image, uint32_t offset, const std::string& function) {
  CallSite site;
  site.module = image.module_name();
  site.offset = offset;
  site.function = function;
  const ImageSymbol* sym = image.SymbolContaining(offset);
  if (sym != nullptr) {
    site.enclosing = sym->name;
  }
  return site;
}

}  // namespace

std::vector<CallSite> CallSiteAnalyzer::FindCallSites(const Image& image,
                                                      const std::string& function) {
  std::vector<CallSite> sites;
  int import_index = image.ImportIndex(function);
  if (import_index < 0) {
    return sites;
  }
  ForEachImportCall(image, [&](uint32_t offset, int64_t callee) {
    if (callee == import_index) {
      sites.push_back(MakeCallSite(image, offset, function));
    }
  });
  return sites;
}

std::vector<std::vector<CallSite>> CallSiteAnalyzer::FindImportCallSites(const Image& image) {
  const std::vector<std::string>& imports = image.imports();
  std::vector<std::vector<CallSite>> sites(imports.size());
  ForEachImportCall(image, [&](uint32_t offset, int64_t callee) {
    if (callee >= 0 && static_cast<size_t>(callee) < imports.size()) {
      sites[static_cast<size_t>(callee)].push_back(
          MakeCallSite(image, offset, imports[static_cast<size_t>(callee)]));
    }
  });
  return sites;
}

std::vector<CallSiteReport> CallSiteAnalyzer::AnalyzeSites(const Image& image,
                                                           const std::vector<CallSite>& sites,
                                                           const std::set<int64_t>& error_codes,
                                                           AnalyzerStats* stats) const {
  std::vector<CallSiteReport> reports;
  for (const CallSite& site : sites) {
    PartialCfg cfg =
        BuildPartialCfg(image, site.offset + kInstrSize, options_.max_postcall_instructions);
    DataflowResult flow = AnalyzeReturnValueFlow(cfg);
    if (stats != nullptr) {
      ++stats->call_sites;
      stats->instructions_visited += cfg.nodes().size();
      stats->dataflow_iterations += flow.iterations;
    }

    CallSiteReport report;
    report.site = site;
    report.checked_eq = flow.chk_eq;
    report.checked_ineq = flow.chk_ineq;
    report.has_ineq_check = flow.has_ineq_check;

    // Chk_eq restricted to the error codes of interest.
    std::set<int64_t> eq_in_e;
    for (int64_t code : flow.chk_eq) {
      if (error_codes.count(code) != 0) {
        eq_in_e.insert(code);
      }
    }
    for (int64_t code : error_codes) {
      if (eq_in_e.count(code) == 0) {
        report.missing_codes.insert(code);
      }
    }

    // Algorithm 1, lines 6-11.
    bool eq_covers_all = std::includes(flow.chk_eq.begin(), flow.chk_eq.end(),
                                       error_codes.begin(), error_codes.end());
    if (eq_covers_all || flow.has_ineq_check) {
      report.check_class = CheckClass::kFull;
      report.missing_codes.clear();
    } else if (!eq_in_e.empty()) {
      report.check_class = CheckClass::kPartial;
    } else {
      report.check_class = CheckClass::kNone;
      // Completely unchecked w.r.t. E, even when codes outside E are checked.
      report.missing_codes = error_codes;
    }
    reports.push_back(std::move(report));
  }
  return reports;
}

}  // namespace lfi
