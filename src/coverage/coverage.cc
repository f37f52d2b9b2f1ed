#include "coverage/coverage.h"

#include <algorithm>

#include "util/string_util.h"

namespace lfi {

void CoverageMap::EnsureBlock(BlockId id) {
  if (id >= blocks_.size()) {
    blocks_.resize(id + 1);
    hits_.resize(id + 1, 0);
  }
  blocks_[id].known = true;
}

void CoverageMap::RegisterBlock(std::string_view id, bool recovery, int lines) {
  RegisterBlock(InternBlock(id), recovery, lines);
}

void CoverageMap::RegisterBlock(BlockId id, bool recovery, int lines) {
  if (id < blocks_.size() && blocks_[id].known) {
    return;  // first registration wins
  }
  EnsureBlock(id);
  blocks_[id].recovery = recovery;
  blocks_[id].lines = lines;
}

void CoverageMap::Hit(BlockId id) {
  if (id >= blocks_.size() || !blocks_[id].known) {
    EnsureBlock(id);  // auto-register as a 1-line normal block
  }
  ++hits_[id];
}

void CoverageMap::ResetHits() { std::fill(hits_.begin(), hits_.end(), 0); }

void CoverageMap::AbsorbHits(const CoverageMap& other) {
  for (BlockId id = 0; id < other.hits_.size(); ++id) {
    if (other.hits_[id] == 0) {
      continue;
    }
    if (id >= blocks_.size() || !blocks_[id].known) {
      EnsureBlock(id);
    }
    hits_[id] += other.hits_[id];
  }
}

void CoverageMap::Absorb(const CoverageMap& other) {
  for (BlockId id = 0; id < other.blocks_.size(); ++id) {
    if (other.blocks_[id].known) {
      RegisterBlock(id, other.blocks_[id].recovery, other.blocks_[id].lines);
    }
  }
  AbsorbHits(other);
}

CoverageMap::Stats CoverageMap::ComputeStats() const {
  Stats stats;
  for (BlockId id = 0; id < blocks_.size(); ++id) {
    const Block& block = blocks_[id];
    if (!block.known) {
      continue;
    }
    ++stats.total_blocks;
    stats.total_lines += block.lines;
    bool hit = hits_[id] != 0;
    if (hit) {
      ++stats.covered_blocks;
      stats.covered_lines += block.lines;
    }
    if (block.recovery) {
      ++stats.recovery_blocks;
      stats.recovery_lines += block.lines;
      if (hit) {
        ++stats.covered_recovery_blocks;
        stats.covered_recovery_lines += block.lines;
      }
    }
  }
  return stats;
}

std::vector<std::string> CoverageMap::NewlyCoveredVersus(const CoverageMap& baseline) const {
  std::vector<std::string> out;
  for (BlockId id = 0; id < hits_.size(); ++id) {
    if (hits_[id] != 0 && !baseline.WasHit(id)) {
      out.push_back(SymbolTable::Blocks().Name(id));
    }
  }
  // Name order, not id order: ids depend on process-wide interning order,
  // which differs across worker schedules; feedback must not.
  std::sort(out.begin(), out.end());
  return out;
}

bool CoverageMap::WasHit(std::string_view id) const {
  auto sym = SymbolTable::Blocks().Find(id);
  return sym && WasHit(*sym);
}

std::map<std::string, uint64_t> CoverageMap::hits() const {
  std::map<std::string, uint64_t> out;
  for (BlockId id = 0; id < hits_.size(); ++id) {
    if (hits_[id] != 0) {
      out.emplace(SymbolTable::Blocks().Name(id), hits_[id]);
    }
  }
  return out;
}

std::vector<CoverageMap::BlockId> CoverageMap::KnownBlocksByName() const {
  std::vector<BlockId> out;
  for (BlockId id = 0; id < blocks_.size(); ++id) {
    if (blocks_[id].known) {
      out.push_back(id);
    }
  }
  const SymbolTable& names = SymbolTable::Blocks();
  std::sort(out.begin(), out.end(),
            [&names](BlockId a, BlockId b) { return names.Name(a) < names.Name(b); });
  return out;
}

void CoverageMap::RestoreBlock(BlockId id, bool recovery, int lines, uint64_t hits) {
  RegisterBlock(id, recovery, lines);
  if (hits != 0) {
    EnsureBlock(id);
    hits_[id] = hits;
  }
}

void CoverageMap::AppendXml(XmlNode* parent) const {
  XmlNode* coverage = parent->AddChild("coverage");
  for (BlockId id : KnownBlocksByName()) {
    XmlNode* block = coverage->AddChild("block");
    block->SetAttr("id", SymbolTable::Blocks().Name(id));
    if (blocks_[id].recovery) {
      block->SetAttr("recovery", "true");
    }
    block->SetAttr("lines", StrFormat("%d", blocks_[id].lines));
    if (hits_[id] != 0) {
      block->SetAttr("hits", StrFormat("%llu", static_cast<unsigned long long>(hits_[id])));
    }
  }
}

std::string CoverageMap::ToXml() const { return ToXmlElement(*this); }

}  // namespace lfi
