/**
 * @file
 * Sharded parallel simulation core tests (docs/PARALLELISM.md): the
 * mailbox's (when, source, seq) total order and barrier-floor clamp,
 * cross-shard post delivery semantics, thread-count and rerun
 * invariance of the barrier driver, the engineered shard-islands spec
 * whose 4-shard report must equal its one-shard (whole-fleet) report
 * byte-for-byte, and a randomized cross-shard chaos storm audited with
 * AuditFleet/AuditFabric at every time barrier.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "experiment/experiment.h"
#include "invariant_audit.h"
#include "sim/shard.h"

namespace dilu {
namespace {

#ifndef DILU_EXPERIMENTS_DIR
#error "tests/CMakeLists.txt must define DILU_EXPERIMENTS_DIR"
#endif

using sim::ShardedSimulation;
using sim::ShardMailbox;
using sim::ShardPost;
using sim::Simulation;

// --- mailbox ordering --------------------------------------------------

TEST(ShardMailbox, DrainsInWhenSourceSeqOrder)
{
  // Push in an adversarial order: ties on `when` break by source, ties
  // on (when, source) by seq — never by arrival order.
  ShardMailbox mb;
  std::vector<int> fired;
  const auto tag = [&fired](int t) { return [&fired, t] { fired.push_back(t); }; };
  mb.Push(ShardPost{Ms(20), 1, 7, tag(5)});
  mb.Push(ShardPost{Ms(10), 2, 0, tag(3)});
  mb.Push(ShardPost{Ms(10), 0, 9, tag(1)});
  mb.Push(ShardPost{Ms(10), 2, 1, tag(4)});
  mb.Push(ShardPost{Ms(10), 1, 3, tag(2)});
  mb.Push(ShardPost{Ms(5), 3, 2, tag(0)});

  sim::EventQueue q;
  mb.DrainInto(&q, 0);
  EXPECT_TRUE(mb.empty());
  while (q.RunOne()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(ShardMailbox, ClampsPastDuePostsToTheFloor)
{
  // A post whose `when` predates the barrier being opened cannot
  // rewind the shard: it is delivered at the floor, still in
  // (when, source, seq) order relative to its peers.
  ShardMailbox mb;
  std::vector<std::pair<int, TimeUs>> fired;
  sim::EventQueue q;
  const auto tag = [&fired, &q](int t) {
    return [&fired, &q, t] { fired.emplace_back(t, q.now()); };
  };
  mb.Push(ShardPost{Ms(10), 0, 0, tag(0)});   // past due
  mb.Push(ShardPost{Ms(40), 0, 1, tag(1)});   // past due, later when
  mb.Push(ShardPost{Ms(250), 0, 2, tag(2)});  // in the future

  q.RunUntil(Ms(100));  // the shard already advanced to the barrier
  mb.DrainInto(&q, Ms(100));
  q.RunUntil(Ms(300));

  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0], (std::pair<int, TimeUs>{0, Ms(100)}));
  EXPECT_EQ(fired[1], (std::pair<int, TimeUs>{1, Ms(100)}));
  EXPECT_EQ(fired[2], (std::pair<int, TimeUs>{2, Ms(250)}));
}

// --- barrier driver delivery semantics ---------------------------------

TEST(ShardedSimulation, CoordinatorPostsFireAtTheirTimestamps)
{
  Simulation a;
  Simulation b;
  ShardedSimulation ssim({&a, &b}, 1, Ms(100));

  std::vector<TimeUs> fired_a;
  std::vector<TimeUs> fired_b;
  ssim.Post(0, Ms(250), [&] { fired_a.push_back(a.now()); });
  ssim.Post(1, Ms(50), [&] { fired_b.push_back(b.now()); });
  ssim.Post(1, Ms(555), [&] { fired_b.push_back(b.now()); });
  ssim.RunUntil(Sec(1));

  EXPECT_EQ(ssim.now(), Sec(1));
  EXPECT_EQ(a.now(), Sec(1));
  EXPECT_EQ(b.now(), Sec(1));
  EXPECT_EQ(fired_a, (std::vector<TimeUs>{Ms(250)}));
  EXPECT_EQ(fired_b, (std::vector<TimeUs>{Ms(50), Ms(555)}));
}

TEST(ShardedSimulation, CrossShardPostsLandAtTheNextBarrier)
{
  Simulation a;
  Simulation b;
  ShardedSimulation ssim({&a, &b}, 1, Ms(100));

  // Shard 0, mid-window at t=150ms, posts to shard 1 for t=160ms —
  // inside the same window, which shard 1 may already have finished.
  // The effect is clamped forward to the next barrier (t=200ms).
  std::vector<TimeUs> fired;
  a.Post(Ms(150), [&] {
    ssim.Post(1, Ms(160), [&] { fired.push_back(b.now()); },
              /*source=*/0);
    ssim.Post(1, Ms(470), [&] { fired.push_back(b.now()); },
              /*source=*/0);
  });
  ssim.RunUntil(Sec(1));

  EXPECT_EQ(fired, (std::vector<TimeUs>{Ms(200), Ms(470)}));
}

TEST(ShardedSimulation, FinalWindowPostsAreNotLost)
{
  // A cross-shard post issued during the very last window would rot in
  // the mailbox without the final drain after the loop; it must fire
  // at the deadline instead.
  Simulation a;
  Simulation b;
  ShardedSimulation ssim({&a, &b}, 1, Ms(100));
  std::vector<TimeUs> fired;
  a.Post(Ms(950), [&] {
    ssim.Post(1, Ms(990), [&] { fired.push_back(b.now()); },
              /*source=*/0);
  });
  ssim.RunUntil(Sec(1));
  EXPECT_EQ(fired, (std::vector<TimeUs>{Sec(1)}));
}

// --- determinism across thread counts and reruns -----------------------

/**
 * A scripted cross-shard storm on bare Simulations: every shard runs a
 * local metronome that posts work to other shards, and each delivery
 * appends (time, source, tick) to the receiving shard's private log.
 * The logs — one writer each — are the observable event order.
 */
std::vector<std::vector<std::string>>
RunScriptedStorm(int shards, int threads)
{
  std::vector<std::unique_ptr<Simulation>> sims;
  std::vector<Simulation*> raw;
  for (int s = 0; s < shards; ++s) {
    sims.push_back(std::make_unique<Simulation>());
    raw.push_back(sims.back().get());
  }
  ShardedSimulation ssim(raw, threads, Ms(100));

  std::vector<std::vector<std::string>> logs(
      static_cast<std::size_t>(shards));
  // Metronomes: shard s ticks every (7 + s) ms and posts to the two
  // neighbouring shards, once for "now" (clamps to the next barrier)
  // and once for a future window.
  for (int s = 0; s < shards; ++s) {
    Simulation* my = raw[s];
    const std::function<void(int)> tick = [&, s, my](int n) {
      for (int d = 1; d <= 2; ++d) {
        const int target = (s + d) % shards;
        ssim.Post(target, my->now() + Ms(40) * d,
                  [&logs, target, s, n, t = raw[target]] {
                    logs[static_cast<std::size_t>(target)].push_back(
                        std::to_string(t->now()) + " from " +
                        std::to_string(s) + " tick " + std::to_string(n));
                  },
                  /*source=*/s);
      }
    };
    // Schedule 40 ticks up front (recursive rescheduling would need
    // shared state; a fixed script is just as good a storm).
    for (int n = 0; n < 40; ++n) {
      my->Post(Ms(7 + s) * (n + 1), [tick, n] { tick(n); });
    }
  }
  ssim.RunUntil(Sec(2));
  return logs;
}

TEST(ShardedSimulation, StormIsInvariantAcrossThreadCountsAndReruns)
{
  const auto reference = RunScriptedStorm(4, 1);
  std::size_t total = 0;
  for (const auto& log : reference) total += log.size();
  EXPECT_EQ(total, 4u * 40u * 2u) << "every post must be delivered";
  EXPECT_EQ(RunScriptedStorm(4, 1), reference) << "rerun diverged";
  EXPECT_EQ(RunScriptedStorm(4, 2), reference) << "threads=2 diverged";
  EXPECT_EQ(RunScriptedStorm(4, 4), reference) << "threads=4 diverged";
}

// --- the engineered islands spec ---------------------------------------

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

TEST(ShardedExperiment, IslandsSpecMatchesLegacyByteForByte)
{
  // shard_islands.exp is engineered so its four single-function
  // islands coincide exactly with the shards=4 partition: nothing ever
  // crosses a shard boundary, so the merged sharded report must equal
  // the one-shard (whole-fleet) report byte-for-byte. This is the same
  // diff the CI experiment-smoke job performs via dilu_run.
  experiment::Experiment whole(LoadSpec("shard_islands.exp"));
  const std::string want = whole.Run().ToJson();

  experiment::ShardOptions sh;
  sh.shards = 4;
  sh.threads = 4;
  experiment::Experiment sharded(LoadSpec("shard_islands.exp"), {}, sh);
  EXPECT_EQ(sharded.Run().ToJson(), want)
      << "an island-aligned partition must merge losslessly";
}

// --- randomized cross-shard chaos storm with per-barrier audits --------

/**
 * Generate a storm spec: a 6-node mixed fleet (two scaled inference
 * functions, one checkpointing training job, contended storage/NIC
 * tiers) plus `pairs` random fail/recover pairs over distinct nodes
 * and GPUs. The generator is seeded, so the "random" storm is stable
 * across runs — randomized coverage, deterministic test.
 */
std::string
MakeStormSpecText(std::uint64_t seed)
{
  std::mt19937_64 rng(seed);
  std::ostringstream out;
  out << "experiment shard_storm\n";
  out << "cluster nodes=6 gpus_per_node=4 seed=3\n";
  out << "storage bw=2 gc=0.1 devices=1\n";
  out << "nic rate=10 burst=0.05\n";
  out << "deploy model=resnet152 provision=2 scaler=dilu-lazy\n";
  out << "deploy model=bert-base provision=2 scaler=dilu-lazy\n";
  out << "deploy model=vgg19 training workers=1 iterations=4000"
         " checkpoint_every=10s\n";
  out << "workload fn=0 poisson rps=40 for 30s\n";
  out << "workload fn=1 poisson rps=40 for 30s\n";

  // Distinct targets per kind keep fail/recover pairs well-formed
  // without modelling overlap rules here.
  std::vector<int> nodes{0, 1, 2, 3, 4, 5};
  std::vector<int> gpus(24);
  for (int g = 0; g < 24; ++g) gpus[static_cast<std::size_t>(g)] = g;
  std::shuffle(nodes.begin(), nodes.end(), rng);
  std::shuffle(gpus.begin(), gpus.end(), rng);

  const auto when = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  for (int i = 0; i < 2; ++i) {  // node outages
    const int t = when(5, 15);
    out << "chaos at " << t << "s fail_node " << nodes.back() << "\n";
    out << "chaos at " << t + when(3, 8) << "s recover_node "
        << nodes.back() << "\n";
    nodes.pop_back();
  }
  for (int i = 0; i < 4; ++i) {  // single-GPU outages
    const int t = when(5, 18);
    out << "chaos at " << t << "s fail_gpu " << gpus.back() << "\n";
    out << "chaos at " << t + when(2, 6) << "s recover_gpu "
        << gpus.back() << "\n";
    gpus.pop_back();
  }
  for (int i = 0; i < 2; ++i) {  // partial SM loss, then heal
    const int t = when(6, 18);
    out << "chaos at " << t << "s degrade_gpu " << gpus.back()
        << " x0." << when(3, 7) << "\n";
    out << "chaos at " << t + when(2, 6) << "s recover_gpu "
        << gpus.back() << "\n";
    gpus.pop_back();
  }
  out << "chaos at " << when(8, 16) << "s fail_link " << nodes.back()
      << " for 5s\n";
  out << "chaos at " << when(10, 20) << "s storage_brownout x3 for 8s\n";
  out << "run for 40s\n";
  return out.str();
}

TEST(ShardedExperiment, RandomizedStormAuditsCleanAtEveryBarrier)
{
  const std::string text = MakeStormSpecText(0xD11Du);
  experiment::ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(experiment::ExperimentSpec::Parse(text, &spec, &error))
      << error << "\n" << text;

  experiment::ShardOptions sh;
  sh.shards = 3;
  sh.threads = 4;
  sh.barrier = Ms(500);  // every barrier is audited; keep the count sane
  experiment::Experiment exp(spec, {}, sh);
  int barriers = 0;
  exp.set_barrier_probe([&](TimeUs at) {
    ++barriers;
    SCOPED_TRACE(::testing::Message() << "barrier at " << at << "us");
    for (int s = 0; s < exp.shard_count(); ++s) {
      SCOPED_TRACE(::testing::Message() << "shard " << s);
      cluster::ClusterRuntime& rt = exp.runtime(s);
      testing::AuditFleet(rt.state(), rt);
      if (rt.fabric() != nullptr) {
        testing::AuditFabric(*rt.fabric(), rt.now());
      }
    }
  });
  const std::string first = exp.Run().ToJson();
  EXPECT_GE(barriers, 80) << "probe must run at every 500ms barrier";

  // The same storm, rerun at a different thread count, byte-identical.
  experiment::ExperimentSpec spec2;
  ASSERT_TRUE(experiment::ExperimentSpec::Parse(text, &spec2, &error));
  experiment::ShardOptions sh2 = sh;
  sh2.threads = 1;
  experiment::Experiment again(spec2, {}, sh2);
  EXPECT_EQ(again.Run().ToJson(), first)
      << "storm must not depend on the worker count";
}

}  // namespace
}  // namespace dilu
