/**
 * @file
 * Declarative experiment API tests: builder/text round-trip, comment
 * and blank-line handling, line-numbered parse errors, the checked-in
 * experiments/ gallery, and the Experiment driver itself — pipeline
 * wiring, byte-for-byte run determinism (the `dilu_run --seed`
 * guarantee), warmup exclusion and closed-loop drive survival under
 * faults.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "experiment/experiment.h"

namespace dilu {
namespace {

using experiment::ArrivalKind;
using experiment::Experiment;
using experiment::ExperimentResult;
using experiment::ExperimentSpec;

/** A spec touching every grammar section. */
ExperimentSpec
FullSpec()
{
  ExperimentSpec s("full");
  s.cluster().nodes = 2;
  s.cluster().recovery = "greedy";
  s.cluster().seed = 9;
  auto& inf = s.AddInference("resnet152");
  inf.fn.name = "front";
  inf.provision = 2;
  inf.scaler = "dilu-lazy";
  inf.fn.admission_class = ServiceClass::kCritical;
  inf.fn.queue_cap = 128;
  inf.fn.retry_budget = 2;
  inf.fn.retry_backoff = Ms(250);
  inf.fn.deadline = Sec(2);
  s.AddInference("llama2-7b").fn.shards = 2;
  auto& tr = s.AddTraining("bert-base", 2, 500);
  tr.start = Sec(10);
  tr.fn.checkpoint_every = Sec(30);
  tr.fn.checkpoint_save_cost = Ms(500);
  s.AddPoisson(0, 40.0, Sec(60)).warmup = Sec(5);
  auto& g = s.AddGamma(1, 5.0, 4.0, Sec(50));
  g.start = Sec(5);
  g.seed = 77;
  auto& b = s.AddTrace(0, ArrivalKind::kBursty, 60.0, Sec(60));
  b.scale = 1.5;
  b.burst_len = Sec(20);
  s.chaos().FailNode(Sec(30), 0).RecoverNode(Sec(45), 0);
  s.RunFor(Sec(70));
  s.ExportTo("/tmp/dilu_exp_roundtrip");
  return s;
}

TEST(ExperimentSpecText, RoundTripIsByteIdentical)
{
  const ExperimentSpec spec = FullSpec();
  const std::string text = spec.ToText();

  ExperimentSpec parsed;
  std::string error;
  ASSERT_TRUE(ExperimentSpec::Parse(text, &parsed, &error))
      << error << "\n" << text;
  EXPECT_EQ(parsed.ToText(), text);

  EXPECT_EQ(parsed.name(), "full");
  ASSERT_EQ(parsed.deploys().size(), 3u);
  EXPECT_EQ(parsed.deploys()[0].fn.name, "front");
  EXPECT_EQ(parsed.deploys()[0].provision, 2);
  EXPECT_EQ(parsed.deploys()[0].fn.admission_class,
            ServiceClass::kCritical);
  EXPECT_EQ(parsed.deploys()[0].fn.queue_cap, 128);
  EXPECT_EQ(parsed.deploys()[0].fn.retry_budget, 2);
  EXPECT_EQ(parsed.deploys()[0].fn.retry_backoff, Ms(250));
  EXPECT_EQ(parsed.deploys()[0].fn.deadline, Sec(2));
  EXPECT_EQ(parsed.deploys()[1].fn.shards, 2);
  EXPECT_EQ(parsed.deploys()[2].fn.type, TaskType::kTraining);
  EXPECT_EQ(parsed.deploys()[2].fn.checkpoint_save_cost, Ms(500));
  EXPECT_EQ(parsed.deploys()[2].start, Sec(10));
  ASSERT_EQ(parsed.workloads().size(), 3u);
  EXPECT_EQ(parsed.workloads()[0].warmup, Sec(5));
  EXPECT_EQ(parsed.workloads()[1].seed, std::uint64_t{77});
  EXPECT_DOUBLE_EQ(parsed.workloads()[2].scale, 1.5);
  ASSERT_EQ(parsed.chaos().events().size(), 2u);
  EXPECT_EQ(parsed.run_for(), Sec(70));
  EXPECT_EQ(parsed.export_prefix(), "/tmp/dilu_exp_roundtrip");
  ASSERT_TRUE(parsed.cluster().recovery.has_value());
  EXPECT_EQ(*parsed.cluster().recovery, "greedy");

  // Doubles %g would round (6 significant digits) read back exactly.
  ExperimentSpec precise = FullSpec();
  precise.workloads()[0].rps = 12.3456789;
  precise.workloads()[2].scale = 0.1 + 0.2;
  ASSERT_TRUE(ExperimentSpec::Parse(precise.ToText(), &parsed, &error))
      << error;
  EXPECT_EQ(parsed.workloads()[0].rps, 12.3456789);
  EXPECT_EQ(parsed.workloads()[2].scale, 0.1 + 0.2);
  EXPECT_EQ(parsed.ToText(), precise.ToText());
}

TEST(ExperimentSpecText, AcceptsCommentsAndBlankLines)
{
  const std::string text =
      "# a whole-line comment\n"
      "experiment smoke  # trailing comment after the name\n"
      "\n"
      "deploy model=bert-base provision=1   # one warm instance\n"
      "workload fn=0 poisson rps=20 for 30s # drive it\n"
      "chaos at 10s fail_gpu 0              # stray comment, not an error\n"
      "\n";
  ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(ExperimentSpec::Parse(text, &spec, &error)) << error;
  EXPECT_EQ(spec.name(), "smoke");
  ASSERT_EQ(spec.deploys().size(), 1u);
  ASSERT_EQ(spec.workloads().size(), 1u);
  ASSERT_EQ(spec.chaos().events().size(), 1u);
}

TEST(ExperimentSpecText, RejectsBadLinesWithLineNumbers)
{
  const char* bad[] = {
      "frobnicate now",                                  // unknown directive
      "deploy model=not-a-model",                        // unknown model
      "deploy model=bert-base turbo=on",                 // unknown key
      "deploy model=bert-base workers=2",                // training key w/o word
      "deploy model=bert-base training provision=2",     // inference key
      "workload fn=0 poisson rps=30 for 10s",            // fn w/o deploy
      "deploy model=bert-base\nworkload fn=0 poisson rps=30",  // no 'for'
      "deploy model=bert-base\nworkload fn=0 warp rps=3 for 5s",  // kind
      "deploy model=bert-base\nworkload fn=0 poisson rps=-1 for 5s",
      "deploy model=bert-base\nchaos at 5s surge fn=3 rps=10 for 2s",
      "deploy model=bert-base\nchaos at 5s checkpoint_every fn=0 every=5s",
      "deploy model=bert-base training\nworkload fn=0 poisson rps=9 for 5s",
      "deploy model=bert-base\nworkload fn=0 closed clients=2 think=50ms "
      "for 5s\nworkload fn=0 poisson rps=9 for 5s",      // closed + open mix
      "run for ever",                                    // bad run line
      "cluster nodes=0",                                 // bad value
      "cluster preset=warp9",                            // unknown preset
      "export",                                          // missing prefix
      // Keys from a different arrival kind are typos, not no-ops.
      "deploy model=bert-base\nworkload fn=0 poisson rps=5 cv=2 for 5s",
      "deploy model=bert-base\nworkload fn=0 closed clients=2 "
      "think=50ms rps=9 for 5s",
      "deploy model=bert-base\nworkload fn=0 bursty rps=5 period=10s "
      "for 5s",
      // Out-of-range integers error instead of silently truncating.
      "cluster nodes=8589934593",
      "deploy model=bert-base\nworkload fn=4294967296 poisson rps=5 "
      "for 5s",
      // Times beyond the ~31-year cap error instead of overflowing.
      "deploy model=bert-base\nworkload fn=0 poisson rps=5 "
      "start=9000000000000s for 5s",
      // Overload-resilience keys: validated and inference-only.
      "deploy model=bert-base class=vip",                // unknown class
      "deploy model=bert-base queue_cap=0",              // cap must be >= 1
      "deploy model=bert-base retries=-1",               // negative budget
      "deploy model=bert-base backoff=0s",               // non-positive time
      "deploy model=bert-base deadline=0s",              // non-positive time
      "deploy model=bert-base training class=critical",  // training deploy
      "deploy model=bert-base training queue_cap=8",     // training deploy
      "deploy model=bert-base training retries=1",       // training deploy
      "deploy model=bert-base training backoff=1s",      // training deploy
      // A key of the other task type is an error even at its default.
      "deploy model=vgg19 training provision=0",
      "deploy model=vgg19 training shards=1",
      "deploy model=bert-base workers=1",
      "deploy model=bert-base iterations=0",
      "deploy model=bert-base start=0s",
      // NaN passes every range check and infinity is no rate.
      "deploy model=bert-base\nworkload fn=0 poisson rps=nan for 5s",
      "storage gc=nan",
      "deploy model=bert-base\nworkload fn=0 periodic rps=inf "
      "amplitude=nan for 5s",
      // New chaos verbs cross-validate their fn reference.
      "deploy model=bert-base\nchaos at 5s overload fn=3 x4 for 2s",
      "deploy model=bert-base training\n"
      "chaos at 5s overload fn=0 x4 for 2s",
      "deploy model=bert-base\nchaos at 5s throttle_admit fn=9 rate=5 "
      "for 2s",
      "deploy model=bert-base training\n"
      "chaos at 5s throttle_admit fn=0 rate=5 for 2s",
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(ExperimentSpec::Parse(text, nullptr, &error))
        << "accepted: " << text;
    EXPECT_NE(error.find("line "), std::string::npos) << error;
  }
}

TEST(ExperimentSpecText, GalleryParsesAndCanonicalizes)
{
  namespace fs = std::filesystem;
  int specs = 0;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(DILU_EXPERIMENTS_DIR)) {
    if (entry.path().extension() != ".exp") continue;
    SCOPED_TRACE(entry.path().string());
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good());
    std::ostringstream text;
    text << in.rdbuf();

    ExperimentSpec spec;
    std::string error;
    ASSERT_TRUE(ExperimentSpec::Parse(text.str(), &spec, &error)) << error;
    // Canonicalization is a fixed point: print -> parse -> print.
    const std::string canonical = spec.ToText();
    ExperimentSpec reparsed;
    ASSERT_TRUE(ExperimentSpec::Parse(canonical, &reparsed, &error))
        << error;
    EXPECT_EQ(reparsed.ToText(), canonical);
    ++specs;
  }
  EXPECT_GE(specs, 5) << "experiments/ gallery went missing?";
}

// --- the driver ------------------------------------------------------

/** Small chaos spec: fast enough for a unit test, still end to end. */
ExperimentSpec
SmallChaosSpec()
{
  ExperimentSpec s("driver_smoke");
  s.cluster().nodes = 2;
  s.cluster().seed = 5;
  auto& d = s.AddInference("bert-base");
  d.provision = 2;
  d.scaler = "dilu-lazy";
  s.AddPoisson(0, 30.0, Sec(20));
  s.chaos().FailGpu(Sec(5), 0).RecoverGpu(Sec(12), 0);
  s.RunFor(Sec(25));
  return s;
}

TEST(ExperimentDriver, RunIsByteForByteDeterministic)
{
  auto run = [] {
    Experiment exp(SmallChaosSpec());
    return exp.Run().ToJson();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  // A different seed changes the workload stream (and thus the JSON).
  experiment::RunOptions opts;
  opts.seed = 99;
  Experiment exp(SmallChaosSpec(), opts);
  EXPECT_NE(exp.Run().ToJson(), a);
}

TEST(ExperimentDriver, PipelineWiresChaosAndRecoveryAccounting)
{
  Experiment exp(SmallChaosSpec());
  const ExperimentResult r = exp.Run();
  EXPECT_EQ(r.experiment, "driver_smoke");
  EXPECT_EQ(r.seed, std::uint64_t{5});
  ASSERT_EQ(r.functions.size(), 1u);
  EXPECT_GT(r.functions[0].completed, 0);
  EXPECT_EQ(r.chaos.injected, 2);
  EXPECT_EQ(r.chaos.disruptive, 1);
  EXPECT_EQ(r.chaos.recovered, 1);
  EXPECT_GE(r.functions[0].recovery_cold_starts, 1);
  EXPECT_GT(r.max_gpus, 0);
}

TEST(ExperimentDriver, WarmupExcludesEarlyRequestsFromMetrics)
{
  // Both runs drive twelve seconds of constant arrivals; the second
  // marks the first ten as warmup, so only the two-second tail counts.
  auto completed = [](TimeUs warmup, TimeUs duration) {
    ExperimentSpec s("warmup");
    s.cluster().nodes = 1;
    s.AddInference("bert-base").provision = 1;
    auto& w = s.AddConstant(0, 20.0, duration);
    w.warmup = warmup;
    s.RunFor(Sec(14));
    Experiment exp(std::move(s));
    return exp.Run().functions[0].completed;
  };
  const std::int64_t all = completed(0, Sec(12));
  const std::int64_t tail = completed(Sec(10), Sec(2));
  EXPECT_GT(all, 0);
  EXPECT_GT(tail, 0);
  EXPECT_LT(tail, all / 2);
}

TEST(ExperimentDriver, ClosedLoopServesAndSurvivesFaults)
{
  ExperimentSpec s("closed");
  s.cluster().nodes = 1;
  s.cluster().gpus_per_node = 1;  // the failure leaves zero capacity
  s.AddInference("bert-base").provision = 1;
  auto& w = s.AddClosedLoop(0, 2, Ms(20), Sec(10));
  w.warmup = Sec(1);
  s.chaos().FailGpu(Sec(3), 0);
  s.RunFor(Sec(12));
  Experiment exp(std::move(s));
  const ExperimentResult r = exp.Run();
  // Clients served before the fault and kept issuing after it: the
  // drop hook is their completion signal, so the loop never wedges.
  EXPECT_GT(r.functions[0].completed, 0);
  EXPECT_GT(r.functions[0].dropped, 0);
  EXPECT_LT(r.functions[0].availability_percent, 100.0);
}

TEST(ExperimentDriver, SurgeOnClosedLoopFnDoesNotSpawnPhantomClients)
{
  // Only requests the closed loop issued continue it: a chaos surge's
  // completions/drops on the same function must not multiply the
  // client pool (pre-fix this inflated throughput ~40x and the extra
  // clients outlived the surge window).
  auto completed = [](bool with_surge) {
    ExperimentSpec s("closed_surge");
    s.cluster().nodes = 1;
    s.AddInference("bert-base").provision = 1;
    s.AddClosedLoop(0, 2, Ms(50), Sec(20));
    if (with_surge) s.chaos().Surge(Sec(5), 0, 100.0, Sec(2));
    s.RunFor(Sec(22));
    Experiment exp(std::move(s));
    return exp.Run().functions[0].completed;
  };
  const std::int64_t base = completed(false);
  const std::int64_t surged = completed(true);
  EXPECT_GT(base, 0);
  // The surge itself adds ~200 requests (100 rps for 2 s); anything
  // far beyond that means phantom clients kept issuing.
  EXPECT_LT(surged, base + 600);
}

TEST(ExperimentDriver, ExportPrefixWritesTraceCsvs)
{
  // One shard exports under the bare prefix. Two shards export each
  // shard's slice under PREFIX_s<k> and nothing under the bare prefix;
  // the failed GPU lives on shard 0, so only its slice logs a fault.
  const std::string prefix = "/tmp/dilu_experiment_test";
  const auto exists = [&prefix](const std::string& part) {
    const std::string path = prefix + part + ".csv";
    const bool found = std::filesystem::exists(path);
    std::remove(path.c_str());
    return found;
  };
  for (const int shards : {1, 2}) {
    SCOPED_TRACE(::testing::Message() << "shards " << shards);
    ExperimentSpec s("exported");
    s.cluster().nodes = 2;
    s.AddInference("bert-base").provision = 1;
    s.AddInference("resnet152").provision = 1;
    s.AddPoisson(0, 10.0, Sec(3));
    s.AddPoisson(1, 10.0, Sec(3));
    s.chaos().FailGpu(Sec(1), 0);
    s.RunFor(Sec(5));
    s.ExportTo(prefix);
    experiment::ShardOptions sh;
    sh.shards = shards;
    Experiment exp(std::move(s), {}, sh);
    EXPECT_TRUE(exp.Run().export_ok);
    const bool one = shards == 1;
    for (const char* table : {"_samples", "_functions"}) {
      EXPECT_EQ(exists(table), one) << table;
      EXPECT_EQ(exists(std::string("_s0") + table), !one) << table;
      EXPECT_EQ(exists(std::string("_s1") + table), !one) << table;
    }
    EXPECT_EQ(exists("_faults"), one);
    EXPECT_EQ(exists("_s0_faults"), !one);
    EXPECT_FALSE(exists("_s1_faults"));
  }
}

TEST(ExperimentDriver, CheckpointSaveCostSurfacesInResult)
{
  ExperimentSpec s("ckpt");
  s.cluster().nodes = 1;
  auto& t = s.AddTraining("bert-base", 1, 2000000);
  t.fn.checkpoint_every = Sec(2);
  t.fn.checkpoint_save_cost = Ms(250);
  s.RunFor(Sec(15));
  Experiment exp(std::move(s));
  const ExperimentResult r = exp.Run();
  ASSERT_EQ(r.functions.size(), 1u);
  EXPECT_GT(r.functions[0].checkpoints, 0);
  EXPECT_DOUBLE_EQ(r.functions[0].checkpoint_pause_s,
                   0.25 * r.functions[0].checkpoints);
  EXPECT_GT(r.functions[0].iterations, 0);
}

}  // namespace
}  // namespace dilu
