/**
 * @file
 * Golden reports for the whole experiments/ gallery. Every `.exp`
 * spec in experiments/ is run at `--seed 1` through the single-threaded
 * driver and through the sharded driver (4 shards, 2 threads), and each
 * report's `ToJson()` is compared byte-for-byte against
 * `tests/golden/gallery/<name>.shards<N>.json`. Specs that already have
 * their own golden (`tests/golden/<name>_golden.json`, pinned by
 * fabric_test and overload_test) are run only through the sharded
 * driver here.
 *
 * A refactor that keeps every golden in this directory byte-identical
 * changed no simulated outcome anywhere in the gallery. Deliberate
 * behaviour changes regenerate the goldens with one command:
 *
 *   DILU_REGEN_GOLDEN=1 ./tests/gallery_golden_test
 *
 * (run from any directory; DILU_GOLDEN_DIR points at tests/golden/ in
 * the source tree). Commit the rewritten goldens separately from code
 * changes, so a diff of them is the review of the behaviour change.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "experiment/sharded_experiment.h"

namespace dilu {
namespace {

#ifndef DILU_GOLDEN_DIR
#error "tests/CMakeLists.txt must define DILU_GOLDEN_DIR"
#endif
#ifndef DILU_EXPERIMENTS_DIR
#error "tests/CMakeLists.txt must define DILU_EXPERIMENTS_DIR"
#endif

namespace fs = std::filesystem;

std::string
ReadFileOrEmpty(const std::string& path)
{
  std::ifstream f(path, std::ios::binary);
  std::stringstream out;
  out << f.rdbuf();
  return out.str();
}

/** One gallery run: a spec (file stem) under one shard count. */
struct GalleryRun {
  std::string spec;
  int shards = 1;
};

/** Stable printed form, so listed test names hold no addresses. */
void
PrintTo(const GalleryRun& run, std::ostream* os)
{
  *os << run.spec << " shards=" << run.shards;
}

/** Every gallery spec x {1, 4} shards, in name order. */
std::vector<GalleryRun>
GalleryRuns()
{
  std::vector<std::string> stems;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(DILU_EXPERIMENTS_DIR)) {
    if (entry.path().extension() == ".exp") {
      stems.push_back(entry.path().stem().string());
    }
  }
  std::sort(stems.begin(), stems.end());
  std::vector<GalleryRun> runs;
  for (const std::string& stem : stems) {
    const bool pinned_elsewhere = fs::exists(
        std::string(DILU_GOLDEN_DIR) + "/" + stem + "_golden.json");
    if (!pinned_elsewhere) runs.push_back({stem, 1});
    runs.push_back({stem, 4});
  }
  return runs;
}

std::string
RunReport(const GalleryRun& run)
{
  const std::string text = ReadFileOrEmpty(
      std::string(DILU_EXPERIMENTS_DIR) + "/" + run.spec + ".exp");
  EXPECT_FALSE(text.empty()) << run.spec;
  experiment::ExperimentSpec spec;
  std::string error;
  EXPECT_TRUE(experiment::ExperimentSpec::Parse(text, &spec, &error))
      << run.spec << ": " << error;

  experiment::RunOptions opts;
  opts.seed = 1;  // the CI smoke's invocation: dilu_run --seed 1
  if (run.shards == 1) {
    experiment::Experiment exp(std::move(spec), opts);
    return exp.Run().ToJson();
  }
  experiment::ShardOptions sh;
  sh.shards = run.shards;
  sh.threads = 2;
  experiment::ShardedExperiment exp(std::move(spec), opts, sh);
  return exp.Run().ToJson();
}

class GalleryGolden : public ::testing::TestWithParam<GalleryRun> {};

TEST_P(GalleryGolden, ReportMatchesGolden)
{
  const GalleryRun& run = GetParam();
  const std::string json = RunReport(run);
  ASSERT_FALSE(json.empty());
  const std::string golden_path = std::string(DILU_GOLDEN_DIR)
      + "/gallery/" + run.spec + ".shards" + std::to_string(run.shards)
      + ".json";
  // dilu-lint: allow(getenv the golden regen knob, as in fabric_test)
  if (std::getenv("DILU_REGEN_GOLDEN") != nullptr) {
    fs::create_directories(fs::path(golden_path).parent_path());
    std::ofstream(golden_path, std::ios::binary) << json;
    GTEST_SKIP() << "golden regenerated into " << golden_path;
  }
  EXPECT_EQ(json, ReadFileOrEmpty(golden_path))
      << "experiments/" << run.spec << ".exp at shards=" << run.shards
      << " drifted from " << golden_path
      << "; regenerate with DILU_REGEN_GOLDEN=1 if the change is "
         "deliberate";
}

INSTANTIATE_TEST_SUITE_P(Gallery, GalleryGolden,
                         ::testing::ValuesIn(GalleryRuns()),
                         [](const auto& info) {
                           return info.param.spec + "_shards"
                               + std::to_string(info.param.shards);
                         });

}  // namespace
}  // namespace dilu
