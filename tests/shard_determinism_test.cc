/**
 * @file
 * Sharded-driver determinism grid (docs/PARALLELISM.md acceptance
 * bar): the three CI-smoke specs — chaos_burst, overload_shed and
 * fabric_contention — must serialize byte-identically across reruns
 * AND across worker-thread counts at every shard count. shards=1 is
 * the whole fleet as one shard (the reference semantics): it takes the
 * global seed and runs the horizon as one window, so neither the
 * thread count nor the barrier may change its report. shards>=2 is the
 * partitioned fleet, a different but equally valid system whose
 * reports are only compared at the same shard count.
 * Shard requests above the spec's node count clamp (fabric_contention
 * has 2 nodes), which is itself part of the contract under test.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "experiment/experiment.h"

namespace dilu {
namespace {

#ifndef DILU_EXPERIMENTS_DIR
#error "tests/CMakeLists.txt must define DILU_EXPERIMENTS_DIR"
#endif

std::string
ReadFileOrEmpty(const std::string& path)
{
  std::ifstream f(path, std::ios::binary);
  std::stringstream out;
  out << f.rdbuf();
  return out.str();
}

experiment::ExperimentSpec
LoadSpec(const std::string& name)
{
  const std::string text =
      ReadFileOrEmpty(std::string(DILU_EXPERIMENTS_DIR) + "/" + name);
  EXPECT_FALSE(text.empty()) << name;
  experiment::ExperimentSpec spec;
  std::string error;
  EXPECT_TRUE(experiment::ExperimentSpec::Parse(text, &spec, &error))
      << name << ": " << error;
  return spec;
}

/** One run of `name` under `sh`, serialized. */
std::string
RunReport(const std::string& name, const experiment::ShardOptions& sh)
{
  experiment::RunOptions opts;
  opts.seed = 1;  // the CI smoke's invocation: dilu_run --seed 1
  experiment::Experiment exp(LoadSpec(name), opts, sh);
  return exp.Run().ToJson();
}

/** One run of `name` under (shards, threads), serialized. */
std::string
RunSharded(const std::string& name, int shards, int threads)
{
  experiment::ShardOptions sh;
  sh.shards = shards;
  sh.threads = threads;
  return RunReport(name, sh);
}

class ShardDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(ShardDeterminism, LegacyDriverIsRerunStable)
{
  // The shards=1 row of the grid (the name predates the single
  // driver): two default runs are byte-equal, and a one-shard run
  // ignores the thread count and the barrier. Honouring the barrier
  // would release each chaos verb at its window's barrier instead of
  // at t = 0, reordering it against same-time events; any window
  // shorter than the horizon does that alike, so the 7 ms run is also
  // checked against one whose window outlasts the horizon.
  const std::string reference = RunReport(GetParam(), {});
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(RunReport(GetParam(), {}), reference) << "rerun diverged";
  experiment::ShardOptions sh;
  sh.shards = 1;
  sh.threads = 4;
  sh.barrier = Ms(7);
  EXPECT_EQ(RunReport(GetParam(), sh), reference)
      << "one shard must ignore a 7 ms barrier";
  sh.barrier = Sec(3600);
  EXPECT_EQ(RunReport(GetParam(), sh), reference)
      << "one shard must ignore a barrier longer than the horizon";
}

TEST_P(ShardDeterminism, ShardedRunsAreThreadAndRerunInvariant)
{
  for (const int shards : {2, 4}) {
    SCOPED_TRACE(::testing::Message() << "shards " << shards);
    const std::string reference = RunSharded(GetParam(), shards, 1);
    EXPECT_FALSE(reference.empty());
    EXPECT_EQ(RunSharded(GetParam(), shards, 4), reference)
        << "threads=4 diverged from threads=1";
    EXPECT_EQ(RunSharded(GetParam(), shards, 4), reference)
        << "threads=4 rerun diverged";
    EXPECT_EQ(RunSharded(GetParam(), shards, 1), reference)
        << "threads=1 rerun diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(CiSmokeSpecs, ShardDeterminism,
                         ::testing::Values("chaos_burst.exp",
                                           "overload_shed.exp",
                                           "fabric_contention.exp"),
                         [](const auto& info) {
                           std::string n = info.param;
                           return n.substr(0, n.find('.'));
                         });

}  // namespace
}  // namespace dilu
