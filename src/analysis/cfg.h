// Partial control-flow graph construction (§5).
//
// For each call site the analyzer builds a CFG over the instructions that
// *follow* the call -- the paper empirically found 100 post-call instructions
// sufficient -- in order to see how the return value and side effects are
// handled. Indirect branches are ignored (the paper measured only 0.13% of
// branches to be indirect); direct calls are treated as opaque fall-through
// nodes that clobber caller-saved registers.

#ifndef LFI_ANALYSIS_CFG_H_
#define LFI_ANALYSIS_CFG_H_

#include <cstdint>
#include <vector>

#include "image/image.h"

namespace lfi {

struct CfgNode {
  size_t offset = 0;  // byte offset of the instruction in the module text
  Instruction instr;
  std::vector<size_t> succs;  // successors, as indices into PartialCfg::nodes()
};

class PartialCfg {
 public:
  static constexpr size_t kNoNode = static_cast<size_t>(-1);

  // The materialized instructions, sorted by offset.
  const std::vector<CfgNode>& nodes() const { return nodes_; }
  size_t entry() const { return entry_; }
  // Index into nodes() of the instruction at `offset`, or kNoNode.
  size_t index(size_t offset) const;
  const CfgNode* node(size_t offset) const {
    size_t i = index(offset);
    return i == kNoNode ? nullptr : &nodes_[i];
  }

 private:
  friend PartialCfg BuildPartialCfg(const Image& image, size_t start_offset,
                                    size_t max_instructions);

  std::vector<CfgNode> nodes_;
  size_t entry_ = 0;
};

inline constexpr size_t kDefaultPostCallWindow = 100;

// Builds the partial CFG starting at `start_offset` (typically the
// instruction after a call), visiting at most `max_instructions` distinct
// instructions. Paths end at ret/halt; branch targets outside the text
// section or decode failures end the path gracefully.
PartialCfg BuildPartialCfg(const Image& image, size_t start_offset,
                           size_t max_instructions = kDefaultPostCallWindow);

}  // namespace lfi

#endif  // LFI_ANALYSIS_CFG_H_
