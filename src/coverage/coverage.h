// Recovery-code coverage bookkeeping (§7.1, Table 3).
//
// The paper measured, with gcov/lcov, how much *recovery code* -- the blocks
// that run only when a library call fails -- the default test suites cover
// with and without LFI. The applications in this repository register their
// basic blocks here (the substitute for compiler instrumentation), marking
// which ones are recovery blocks and how many source lines each represents,
// and call Hit() on entry. The report distinguishes total coverage from
// recovery coverage, which is what Table 3 tabulates.
//
// Block ids are interned into the process-wide SymbolTable::Blocks(), and a
// map stores hit counts and block metadata in dense vectors indexed by
// BlockId: Hit() is an array increment, and Absorb()/AbsorbHits()/
// NewlyCoveredVersus() are index-based merges (ids are process-global, so
// the same index means the same block in every map). The string_view API is
// unchanged for casual callers; hot instrumentation sites may pre-intern a
// BlockId handle once (InternBlock) and hit through it, skipping even the
// intern lookup. Anything returned as strings (NewlyCoveredVersus, hits())
// is sorted by name, never by id -- ids depend on process-wide interning
// order, which worker scheduling perturbs, and exploration feedback must be
// bit-identical at any worker count.
//
// Concurrency contract: a CoverageMap is deliberately unsynchronized. Every
// campaign job runs against its own application instance and therefore its
// own map, confined to the worker executing the job; cross-thread
// aggregation happens exclusively through Absorb()/AbsorbHits() at the
// campaign engine's deterministic job-order merge point, which is serialized
// by the engine. Never share one map between concurrently running jobs.
// (Interning itself is thread-safe.)

#ifndef LFI_COVERAGE_COVERAGE_H_
#define LFI_COVERAGE_COVERAGE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/symbol_table.h"
#include "xml/xml.h"

namespace lfi {

class CoverageMap {
 public:
  // A pre-interned block handle; process-global, so one static per
  // instrumentation site serves every application instance.
  using BlockId = SymbolId;

  static BlockId InternBlock(std::string_view id) { return SymbolTable::Blocks().Intern(id); }

  // Declares a basic block. `lines` is the block's size in source lines.
  // Registering twice keeps the first registration.
  void RegisterBlock(std::string_view id, bool recovery, int lines);
  void RegisterBlock(BlockId id, bool recovery, int lines);

  // Marks the block executed. Unknown ids auto-register as 1-line normal
  // blocks so instrumentation mistakes do not silently drop data. The
  // BlockId overload is the hot path: an array increment.
  void Hit(std::string_view id) { Hit(InternBlock(id)); }
  void Hit(BlockId id);

  void ResetHits();

  // Merges another map's hit set into this one (cumulative coverage across
  // repeated runs, the way lcov accumulates .gcda data).
  void AbsorbHits(const CoverageMap& other);

  // AbsorbHits plus block registrations: ids known to `other` keep their
  // recovery flag and line count here. This is what a map that starts empty
  // (e.g. the engine's cumulative exploration map) must use, or absorbed
  // recovery blocks would degrade to 1-line normal blocks.
  void Absorb(const CoverageMap& other);

  struct Stats {
    size_t total_blocks = 0;
    size_t covered_blocks = 0;
    int total_lines = 0;
    int covered_lines = 0;
    size_t recovery_blocks = 0;
    size_t covered_recovery_blocks = 0;
    int recovery_lines = 0;
    int covered_recovery_lines = 0;

    double line_coverage() const {
      return total_lines == 0 ? 0.0 : 100.0 * covered_lines / total_lines;
    }
    double recovery_block_coverage() const {
      return recovery_blocks == 0 ? 0.0
                                  : 100.0 * static_cast<double>(covered_recovery_blocks) /
                                        static_cast<double>(recovery_blocks);
    }
  };

  Stats ComputeStats() const;

  // Blocks covered here but not in `baseline` (the "additional coverage LFI
  // achieved" comparison). Sorted by block name.
  std::vector<std::string> NewlyCoveredVersus(const CoverageMap& baseline) const;

  bool WasHit(std::string_view id) const;
  bool WasHit(BlockId id) const { return id < hits_.size() && hits_[id] != 0; }

  // Name-keyed snapshot of the hit counters (sorted, so deterministic across
  // worker counts); materialized on demand -- the live counters are dense.
  std::map<std::string, uint64_t> hits() const;

  // One known block's registration metadata and hit count, keyed by name:
  // the format-neutral snapshot serializers other than the XML one (the
  // binary extent journal, core/extent_journal.cc) read and restore.
  struct BlockInfo {
    std::string name;
    bool recovery = false;
    int lines = 1;
    uint64_t hits = 0;
  };

  // Every known block, sorted by name -- the same determinism rule as
  // AppendXml (ids depend on process-wide interning order; serialized
  // journals must not).
  std::vector<BlockInfo> SortedBlocks() const;

  // RegisterBlock plus an exact hit count: the deserialization inverse of
  // SortedBlocks, so RestoreBlock-ing a snapshot rebuilds an equal map. The
  // BlockId overload is the bulk-restore hot path (core/extent_journal.cc):
  // the caller interned the name once and restores it into many maps.
  void RestoreBlock(const BlockInfo& block);
  void RestoreBlock(BlockId id, bool recovery, int lines, uint64_t hits);

  // Serializes every known block (registration metadata + hit count) as a
  // <coverage> child of `parent`, sorted by block name so output never
  // depends on process-wide interning order (the `lfi_tool journal dump`
  // rendering of a record's coverage delta).
  void AppendXml(XmlNode* parent) const;
  std::string ToXml() const;

 private:
  struct Block {
    bool known = false;  // registered (or auto-registered by a hit)
    bool recovery = false;
    int lines = 1;
  };

  void EnsureBlock(BlockId id);  // grows + auto-registers as a 1-line block

  std::vector<Block> blocks_;   // indexed by BlockId
  std::vector<uint64_t> hits_;  // indexed by BlockId, same size as blocks_
};

}  // namespace lfi

#endif  // LFI_COVERAGE_COVERAGE_H_
