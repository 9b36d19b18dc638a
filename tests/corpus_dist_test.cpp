// Regression-corpus replay through the distributed backend: every minimized
// repro under tests/corpus/ has its scenario swept through a 2-worker
// *spawned* sweep_worker fleet (the full wire path, process boundary
// included) and the merged report must byte-match the local thread-pool
// backend's.
//
// fuzz_corpus_test.cpp proves the corpus agrees across the in-process
// engines; this suite proves the same hostile scenario shapes survive the
// dist machinery — serialization, dispatch to real subprocesses, and the
// at-most-once merge — unchanged. Churn ops never enter a sweep grid on
// either side (compare_dist_backend sweeps only the case's scenario), so
// unlike run_case's dist demotion, churn cases are fair game here: both
// legs ignore the churn plan identically.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "check/differential.hpp"
#include "check/fuzz_case.hpp"

namespace sb::check {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(SMARTBLOCKS_CORPUS_DIR)) {
    if (entry.path().extension() != ".json") continue;
    files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(CorpusDist, EveryCaseScenarioMatchesLocalThroughSpawnedFleet) {
  DiffOptions options;
  options.run_dist = true;
  options.dist_workers = 2;
  options.dist_worker_binary =
      std::string(SMARTBLOCKS_BIN_DIR) + "/sweep_worker";
  // Each leg replays the case's own event budget (FuzzCase::max_events),
  // so a run takes well under a second in a release build. Sanitizer
  // builds (ASan Debug especially) are many times slower, and the default
  // 60 s coordinator backstop must not read as a spurious timeout
  // divergence there. This is a correctness suite, not a latency gate, so
  // give each case ten minutes.
  options.dist_total_timeout_ms = 600000;

  size_t replayed = 0;
  for (const std::string& path : corpus_files()) {
    SCOPED_TRACE(path);
    FuzzCase fuzz_case;
    ASSERT_NO_THROW(fuzz_case = FuzzCase::load(path));
    EXPECT_EQ(compare_dist_backend(fuzz_case, options), "");
    ++replayed;
  }
  EXPECT_GE(replayed, 4u)
      << "the committed corpus should seed several diverse cases";
}

}  // namespace
}  // namespace sb::check
