// Helpers the campaign test suites share: scratch paths, whole-file reads,
// finalized journal writes and merges, bug-list comparison, and running a
// CampaignSpec through the driver.

#ifndef LFI_TESTS_CAMPAIGN_TEST_UTIL_H_
#define LFI_TESTS_CAMPAIGN_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/common/campaign_driver.h"
#include "core/journal.h"

namespace lfi {

inline std::string TempPath(const std::string& name) { return ::testing::TempDir() + name; }

inline std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Writes `records` into a finalized journal at `path`.
inline void WriteJournal(const std::string& path, const JournalMetadata& meta,
                         const std::vector<JournalRecord>& records) {
  std::remove(path.c_str());
  CampaignJournal journal;
  std::string error;
  ASSERT_TRUE(journal.Create(path, meta, &error)) << error;
  for (const JournalRecord& record : records) {
    ASSERT_TRUE(journal.Append(record));
  }
  ASSERT_TRUE(journal.Finalize(&error)) << error;
}

// Merges the journals at `inputs`, in the order given, through the
// orchestrator's merge step (MergeRecordsInto) into a fresh journal at `out`
// headed by `meta`. Returns the error, "" when the merge succeeded.
inline std::string MergeJournalFiles(const std::vector<std::string>& inputs,
                                     const std::string& out, const JournalMetadata& meta) {
  std::vector<CampaignJournal> journals;
  std::string error;
  for (const std::string& input : inputs) {
    auto journal = CampaignJournal::Load(input, &error);
    if (!journal) {
      return error;
    }
    journals.push_back(std::move(*journal));
  }
  std::remove(out.c_str());
  CampaignJournal merged;
  MergeFoldState fold;
  if (!merged.Create(out, meta, &error) || !MergeRecordsInto(merged, journals, &fold, &error) ||
      !merged.Finalize(&error)) {
    return error;
  }
  return "";
}

// Same bugs in the same order, attribution included.
inline void ExpectSameBugs(const std::vector<FoundBug>& a, const std::vector<FoundBug>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << i;
  }
}

// Runs `spec` through the driver; throws std::runtime_error carrying the
// driver's error when the run fails.
inline CampaignOutcome RunSpec(CampaignSpec spec) {
  std::string error;
  auto outcome = CampaignDriver(std::move(spec)).Run(&error);
  if (!outcome) {
    throw std::runtime_error(error);
  }
  return std::move(*outcome);
}

}  // namespace lfi

#endif  // LFI_TESTS_CAMPAIGN_TEST_UTIL_H_
