#include "analysis/cfg.h"

#include <algorithm>

namespace lfi {

size_t PartialCfg::index(size_t offset) const {
  auto it = std::lower_bound(nodes_.begin(), nodes_.end(), offset,
                             [](const CfgNode& n, size_t off) { return n.offset < off; });
  return it != nodes_.end() && it->offset == offset ? static_cast<size_t>(it - nodes_.begin())
                                                    : kNoNode;
}

PartialCfg BuildPartialCfg(const Image& image, size_t start_offset, size_t max_instructions) {
  PartialCfg cfg;
  cfg.entry_ = start_offset;
  std::vector<CfgNode>& nodes = cfg.nodes_;
  // Breadth-first from the entry. Every offset is queued once, on discovery;
  // `discovered` keeps them sorted for lookup.
  std::vector<size_t> worklist = {start_offset};
  std::vector<size_t> discovered = {start_offset};

  for (size_t head = 0; head < worklist.size() && nodes.size() < max_instructions; ++head) {
    size_t off = worklist[head];
    Instruction instr;
    if (!image.Decode(off, &instr)) {
      continue;  // ran off the section or hit garbage: end the path
    }
    CfgNode node;
    node.offset = off;
    node.instr = instr;

    size_t fallthrough = off + kInstrSize;
    bool have_fallthrough = fallthrough < image.text().size();

    if (instr.op == Op::kRet || instr.op == Op::kHalt) {
      // terminator: no successors
    } else if (instr.op == Op::kJmp) {
      size_t target = static_cast<size_t>(static_cast<uint32_t>(instr.imm));
      if (target % kInstrSize == 0 && target < image.text().size()) {
        node.succs.push_back(target);
      }
    } else if (instr.IsConditionalJump()) {
      size_t target = static_cast<size_t>(static_cast<uint32_t>(instr.imm));
      if (target % kInstrSize == 0 && target < image.text().size()) {
        node.succs.push_back(target);
      }
      if (have_fallthrough) {
        node.succs.push_back(fallthrough);
      }
    } else {
      // Straight-line instructions, including calls (opaque) and indirect
      // calls (ignored per the paper's prototype).
      if (have_fallthrough) {
        node.succs.push_back(fallthrough);
      }
    }
    for (size_t succ : node.succs) {
      auto it = std::lower_bound(discovered.begin(), discovered.end(), succ);
      if (it == discovered.end() || *it != succ) {
        discovered.insert(it, succ);
        worklist.push_back(succ);
      }
    }
    nodes.push_back(std::move(node));
  }

  // Sort by offset, then turn successor offsets into node indices, dropping
  // edges to instructions never materialized (window limit) so downstream
  // traversals stay within the node set.
  std::sort(nodes.begin(), nodes.end(),
            [](const CfgNode& a, const CfgNode& b) { return a.offset < b.offset; });
  for (CfgNode& node : nodes) {
    size_t kept = 0;
    for (size_t succ : node.succs) {
      size_t i = cfg.index(succ);
      if (i != PartialCfg::kNoNode) {
        node.succs[kept++] = i;
      }
    }
    node.succs.resize(kept);
  }
  return cfg;
}

}  // namespace lfi
