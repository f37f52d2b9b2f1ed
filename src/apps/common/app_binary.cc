#include "apps/common/app_binary.h"

#include <cstdio>
#include <cstdlib>

#include "image/assembler.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace lfi {

uint32_t AppBinary::SiteOffset(std::string_view site_name) const {
  auto it = site_offsets_.find(site_name);
  return it == site_offsets_.end() ? 0xffffffffu : it->second;
}

const CallSiteSpec* AppBinary::FindSite(const std::string& site_name) const {
  for (const auto& s : sites_) {
    if (s.site_name == site_name) {
      return &s;
    }
  }
  return nullptr;
}

std::vector<const CallSiteSpec*> AppBinary::SitesFor(const std::string& function) const {
  std::vector<const CallSiteSpec*> out;
  for (const auto& s : sites_) {
    if (s.function == function) {
      out.push_back(&s);
    }
  }
  return out;
}

AppBinaryBuilder::AppBinaryBuilder(std::string module_name, uint64_t filler_seed)
    : module_name_(std::move(module_name)), filler_seed_(filler_seed) {}

void AppBinaryBuilder::AddSite(CallSiteSpec spec) { sites_.push_back(std::move(spec)); }

AppBinary AppBinaryBuilder::Build() {
  // Group sites by enclosing function, preserving first-appearance order.
  std::vector<std::string> function_order;
  std::map<std::string, std::vector<const CallSiteSpec*>> by_function;
  for (const auto& site : sites_) {
    if (by_function.find(site.enclosing) == by_function.end()) {
      function_order.push_back(site.enclosing);
    }
    by_function[site.enclosing].push_back(&site);
  }

  Rng rng(filler_seed_);
  std::string asm_text = StrFormat("module %s\n", module_name_.c_str());
  AppBinary::SiteOffsets offsets;
  size_t instr_count = 0;  // every emitted instruction line is 8 bytes
  int label_counter = 0;
  bool need_helper = false;

  auto emit = [&](const std::string& line) {
    asm_text += "  " + line + "\n";
    ++instr_count;
  };
  auto label = [&](const std::string& name) { asm_text += name + ":\n"; };

  for (const auto& fn : function_order) {
    asm_text += StrFormat("func %s\n", fn.c_str());
    for (const CallSiteSpec* site : by_function[fn]) {
      // A little realistic preamble before each call.
      int filler = static_cast<int>(rng.NextBelow(3));
      for (int i = 0; i < filler; ++i) {
        emit(StrFormat("movi r%d, %d", 2 + static_cast<int>(rng.NextBelow(4)),
                       static_cast<int>(rng.NextBelow(100))));
      }
      offsets[site->site_name] = static_cast<uint32_t>(instr_count * kInstrSize);
      emit("call " + site->function);

      std::string done = StrFormat(".done%d", label_counter++);
      switch (site->pattern) {
        case CheckPattern::kCheckEqAll:
        case CheckPattern::kCheckSome:
        case CheckPattern::kCheckOutsideE:
          for (int64_t code : site->codes) {
            std::string err = StrFormat(".err%d", label_counter++);
            emit(StrFormat("cmpi r0, %lld", static_cast<long long>(code)));
            emit("je " + err);
            std::string cont = StrFormat(".cont%d", label_counter++);
            emit("jmp " + cont);
            label(err);
            emit("movi r1, 1");  // recovery code placeholder
            emit("jmp " + done);
            label(cont);
          }
          break;
        case CheckPattern::kCheckIneq: {
          std::string err = StrFormat(".err%d", label_counter++);
          emit("cmpi r0, 0");
          emit("jl " + err);
          emit("jmp " + done);
          label(err);
          emit("movi r1, 1");
          break;
        }
        case CheckPattern::kCheckZeroEq: {
          std::string err = StrFormat(".err%d", label_counter++);
          emit("test r0, r0");
          emit("je " + err);
          emit("jmp " + done);
          label(err);
          emit("movi r1, 1");
          break;
        }
        case CheckPattern::kNoCheck:
          // Result ignored; keep using other registers.
          emit("movi r1, 0");
          break;
        case CheckPattern::kCheckViaHelper:
          // The check happens inside a helper: invisible to the
          // intra-procedural dataflow analysis.
          emit("mov r1, r0");
          emit("call check_result_helper");
          need_helper = true;
          break;
      }
      label(done);
      emit("nop");
    }
    emit("ret");
    asm_text += "end\n";
  }

  if (need_helper) {
    asm_text += "func check_result_helper\n";
    asm_text += "  cmpi r1, 0\n  jl .bad\n  ret\n.bad:\n  movi r1, 1\n  ret\nend\n";
  }

  AsmError error;
  auto image = Assemble(asm_text, &error);
  if (!image) {
    std::fprintf(stderr, "AppBinaryBuilder(%s): %s at line %d\n", module_name_.c_str(),
                 error.message.c_str(), error.line);
    std::abort();
  }
  return AppBinary(std::move(*image), std::move(offsets), sites_);
}

}  // namespace lfi
