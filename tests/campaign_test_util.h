// Helpers the campaign test suites share: scratch paths, whole-file reads,
// bug-list comparison, and running a CampaignSpec through the driver.

#ifndef LFI_TESTS_CAMPAIGN_TEST_UTIL_H_
#define LFI_TESTS_CAMPAIGN_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/common/campaign_driver.h"

namespace lfi {

inline std::string TempPath(const std::string& name) { return ::testing::TempDir() + name; }

inline std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
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
