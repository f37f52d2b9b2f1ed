// Return-value dataflow analysis (§5).
//
// Starting from the instruction after a library call, the analysis follows
// the propagation of the call's return value -- which arrives in r0 -- through
// register-to-register moves and stack spills/reloads, and records every
// literal the value (or a copy of it) is compared against. Comparisons via
// equality (cmpi + je/jne, test + je/jne) populate Chk_eq; comparisons via
// inequality (cmpi + jl/jle/jg/jge, test + js/jns) populate Chk_ineq. The
// analysis is intra-procedural and iterates loops until the set of copies of
// the return value stabilizes (a standard forward may-analysis with union at
// joins), exactly as described in the paper.
//
// The fixpoint is computed with a worklist that holds each CFG node at most
// once; a node is queued again only when its IN set grows. A set holds at
// most the 16 registers plus the stack slots stored to in the window, so each
// node is processed at most 1 + that many times, and on the five targets'
// binaries exactly once.

#ifndef LFI_ANALYSIS_DATAFLOW_H_
#define LFI_ANALYSIS_DATAFLOW_H_

#include <cstdint>
#include <set>

#include "analysis/cfg.h"

namespace lfi {

struct DataflowResult {
  std::set<int64_t> chk_eq;    // literals compared by equality
  std::set<int64_t> chk_ineq;  // literals compared by inequality (incl. sign tests as 0)
  bool has_ineq_check = false;

  // Total number of fixpoint iterations (for the efficiency evaluation).
  int iterations = 0;
};

// Registers clobbered by a call under the ISA calling convention. Copies of
// the tracked value held in these registers die across a call; stack slots
// survive.
bool IsCallerSaved(int reg);

// Runs the analysis over `cfg`. The tracked value is assumed to be in r0 at
// the CFG entry (the return-value register immediately after the call).
DataflowResult AnalyzeReturnValueFlow(const PartialCfg& cfg);

}  // namespace lfi

#endif  // LFI_ANALYSIS_DATAFLOW_H_
