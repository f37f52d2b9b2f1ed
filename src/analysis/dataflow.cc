#include "analysis/dataflow.h"

#include <algorithm>
#include <deque>

namespace lfi {
namespace {

// The locations that may hold a copy of the tracked value: a register mask,
// and the stack slots (sp-relative byte offsets), sorted.
class LocationSet {
 public:
  bool HasReg(int reg) const { return (regs_ >> reg & 1u) != 0; }
  void SetReg(int reg, bool on) { regs_ = on ? regs_ | 1u << reg : regs_ & ~(1u << reg); }

  bool HasSlot(int32_t off) const { return std::binary_search(slots_.begin(), slots_.end(), off); }
  // Returns true when the slot was not in the set.
  bool AddSlot(int32_t off) {
    auto it = std::lower_bound(slots_.begin(), slots_.end(), off);
    if (it != slots_.end() && *it == off) {
      return false;
    }
    slots_.insert(it, off);
    return true;
  }
  void EraseSlot(int32_t off) {
    auto it = std::lower_bound(slots_.begin(), slots_.end(), off);
    if (it != slots_.end() && *it == off) {
      slots_.erase(it);
    }
  }

  // Adds every location of `other`; returns true when the set grew.
  bool UnionWith(const LocationSet& other) {
    bool grew = (other.regs_ & ~regs_) != 0;
    regs_ |= other.regs_;
    for (int32_t off : other.slots_) {
      grew |= AddSlot(off);
    }
    return grew;
  }

 private:
  static_assert(kNumRegisters <= 32, "register mask is 32 bits");
  uint32_t regs_ = 0;  // decoded instructions name registers < kNumRegisters
  std::vector<int32_t> slots_;
};

// Records in `result` the checks of a copy against `literal` made by the
// conditional jumps that read the flags node `i` sets. Flags in this ISA are
// consumed by the very next instruction(s) in control flow; a chain of
// conditional jumps (je .a; jl .b) all read the same flags, so we walk
// successive conditional jumps along the textual fall-through.
void RecordCompare(const PartialCfg& cfg, size_t i, int64_t literal, DataflowResult* result) {
  const std::vector<CfgNode>& nodes = cfg.nodes();
  while (!nodes[i].succs.empty()) {
    for (size_t succ : nodes[i].succs) {
      switch (nodes[succ].instr.op) {
        case Op::kJe:
        case Op::kJne:
          result->chk_eq.insert(literal);
          break;
        case Op::kJl:
        case Op::kJle:
        case Op::kJg:
        case Op::kJge:
          result->chk_ineq.insert(literal);
          result->has_ineq_check = true;
          break;
        case Op::kJs:
        case Op::kJns:
          // Sign test: an inequality check against zero.
          result->chk_ineq.insert(0);
          result->has_ineq_check = true;
          break;
        default:
          break;
      }
    }
    size_t next = i + 1;  // nodes are sorted by offset
    if (next == nodes.size() || nodes[next].offset != nodes[i].offset + kInstrSize ||
        !nodes[next].instr.IsConditionalJump()) {
      return;
    }
    i = next;
  }
}

}  // namespace

bool IsCallerSaved(int reg) {
  // r0..r5 are caller-saved (r0 carries the return value); r6..r12 are
  // callee-saved; r13 (sp) and r14 (errno base) are preserved by convention.
  return reg >= 0 && reg <= 5;
}

DataflowResult AnalyzeReturnValueFlow(const PartialCfg& cfg) {
  DataflowResult result;
  const size_t entry = cfg.index(cfg.entry());
  if (entry == PartialCfg::kNoNode) {
    return result;
  }
  const std::vector<CfgNode>& nodes = cfg.nodes();
  const size_t n = nodes.size();

  // Per-node IN sets and flags. A node is in the worklist at most once.
  std::vector<LocationSet> in(n);
  std::vector<uint8_t> visited(n, 0);
  std::vector<uint8_t> queued(n, 0);
  std::deque<size_t> worklist;
  auto enqueue = [&](size_t i) {
    if (queued[i] == 0) {
      queued[i] = 1;
      worklist.push_back(i);
    }
  };

  in[entry].SetReg(kRetReg, true);
  enqueue(entry);
  LocationSet set;
  while (!worklist.empty()) {
    ++result.iterations;
    if (result.iterations > 100000) {
      break;  // guard only: the per-node bound (dataflow.h) keeps CFGs far below it
    }
    const size_t idx = worklist.front();
    worklist.pop_front();
    queued[idx] = 0;
    set = in[idx];
    const Instruction& i = nodes[idx].instr;

    switch (i.op) {
      case Op::kMovRR:
        set.SetReg(i.rd, set.HasReg(i.rs));
        break;
      case Op::kMovRI:
      case Op::kPop:
        set.SetReg(i.rd, false);
        break;
      case Op::kLoad:
        set.SetReg(i.rd, i.rs == kSpReg && set.HasSlot(i.imm));
        break;
      case Op::kStore:
        if (i.rd == kSpReg) {
          if (set.HasReg(i.rs)) {
            set.AddSlot(i.imm);
          } else {
            set.EraseSlot(i.imm);
          }
        }
        break;
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kAnd:
      case Op::kOr:
      case Op::kXor:
      case Op::kAddI:
        // Arithmetic destroys the value for error-code comparison purposes.
        set.SetReg(i.rd, false);
        break;
      case Op::kCmpRI:
        if (set.HasReg(i.rd)) {
          RecordCompare(cfg, idx, i.imm, &result);
        }
        break;
      case Op::kTest:
        // test rX, rX followed by a conditional jump is a zero/sign check,
        // i.e. a compare against the literal 0.
        if (i.rd == i.rs && set.HasReg(i.rd)) {
          RecordCompare(cfg, idx, 0, &result);
        }
        break;
      case Op::kCmpRR:
        // Literal comparisons only (per the paper); register-register
        // compares do not contribute checks but also do not kill copies.
        break;
      case Op::kCall:
      case Op::kCallR:
        // Calls clobber caller-saved registers; copies on the stack survive.
        for (int r = 0; r < kNumRegisters; ++r) {
          if (IsCallerSaved(r)) {
            set.SetReg(r, false);
          }
        }
        break;
      default:
        break;
    }

    visited[idx] = 1;
    for (size_t succ : nodes[idx].succs) {
      if (in[succ].UnionWith(set) || visited[succ] == 0) {
        enqueue(succ);
      }
    }
  }
  return result;
}

}  // namespace lfi
