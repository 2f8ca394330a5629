/**
 * @file
 * Fuzz-style tests for the sweep text loader, mirroring
 * experiment_fuzz_test.cc: randomly generated valid sweeps (covering
 * seeds bases, multi-axis grids, the run.shards pseudo-axis and both
 * threshold flavors) must round-trip parse -> print -> parse
 * byte-identically, and randomly mutated sweeps must fail with a
 * line-numbered error — never crash, never be silently mis-parsed.
 * Random (path, value) pairs over every spec key check ApplyParam's
 * contract against the experiment loader.
 *
 * Everything draws from a fixed-seed Rng, so a failure reproduces
 * exactly; crank kRounds locally for a longer soak.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "experiment/experiment_spec.h"
#include "sweep/sweep_report.h"
#include "sweep/sweep_spec.h"

namespace dilu {
namespace {

using experiment::ApplyParam;
using experiment::ExperimentSpec;
using sweep::SweepSpec;
using sweep::ThresholdOp;

constexpr int kRounds = 150;

/** A value token FormatDouble prints back verbatim (quarter steps). */
std::string
RandomValue(Rng& rng)
{
  switch (rng.UniformInt(0, 2)) {
    case 0: return std::to_string(rng.UniformInt(1, 500));
    case 1: {
      // x.25 / x.5 / x.75 — exact in binary, stable under %g.
      const auto quarters = rng.UniformInt(1, 2000);
      const auto whole = quarters / 4;
      const char* const frac[] = {"", ".25", ".5", ".75"};
      std::string s = std::to_string(whole) + frac[quarters % 4];
      return s == std::to_string(whole) ? s + ".5" : s;
    }
    default: {
      const char* const words[] = {"joint", "greedy", "dilu", "eager",
                                   "on", "off", "critical", "10s"};
      return words[rng.UniformInt(0, 7)];
    }
  }
}

SweepSpec
RandomSweep(Rng& rng)
{
  SweepSpec spec("fuzz" + std::to_string(rng.UniformInt(0, 999)));
  const char* const bases[] = {"quickstart", "chaos_burst",
                               "overload_shed", "shard_islands"};
  spec.Base(bases[rng.UniformInt(0, 3)]);

  if (rng.UniformInt(0, 1) == 0) {
    spec.Seeds(static_cast<int>(rng.UniformInt(1, 20)),
               static_cast<std::uint64_t>(rng.UniformInt(1, 1 << 20)));
  }

  // --- axes: unique paths, unique values within each axis ---
  const char* const paths[] = {"cluster.nodes",     "cluster.recovery",
                               "workload[0].rps",   "deploy[0].provision",
                               "chaos.intensity",   "run.shards",
                               "deploy[1].backoff", "run.for"};
  const int axes = static_cast<int>(rng.UniformInt(0, 4));
  std::vector<bool> used(8, false);
  for (int a = 0; a < axes; ++a) {
    std::size_t p = 0;
    do {
      p = static_cast<std::size_t>(rng.UniformInt(0, 7));
    } while (used[p]);
    used[p] = true;
    std::vector<std::string> values;
    const int count = static_cast<int>(rng.UniformInt(1, 5));
    for (int v = 0; v < count; ++v) {
      std::string value = RandomValue(rng);
      bool duplicate = false;
      for (const std::string& seen : values) {
        duplicate = duplicate || seen == value;
      }
      if (!duplicate) values.push_back(std::move(value));
    }
    spec.Axis(paths[p], std::move(values));
  }

  // --- thresholds: any registry metric, both ops, both flavors ---
  const auto& metrics = sweep::SweepMetricNames();
  const int requires_count = static_cast<int>(rng.UniformInt(0, 3));
  for (int t = 0; t < requires_count; ++t) {
    const std::string& metric = metrics[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(metrics.size()) - 1))];
    const ThresholdOp op =
        rng.UniformInt(0, 1) == 0 ? ThresholdOp::kLe : ThresholdOp::kGe;
    const double value =
        0.25 * static_cast<double>(rng.UniformInt(0, 4000));
    spec.Require(metric, op, value, rng.UniformInt(0, 2) == 0);
  }
  return spec;
}

TEST(SweepFuzz, RandomValidSweepsRoundTripByteIdentically)
{
  Rng rng(0x53EE41u);
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    const SweepSpec spec = RandomSweep(rng);
    const std::string text = spec.ToText();

    SweepSpec parsed;
    std::string error;
    ASSERT_TRUE(SweepSpec::Parse(text, &parsed, &error))
        << error << "\n" << text;
    EXPECT_EQ(parsed.ToText(), text);
    EXPECT_EQ(parsed.seeds(), spec.seeds());
    EXPECT_EQ(parsed.seed_base(), spec.seed_base());
    EXPECT_EQ(parsed.axes().size(), spec.axes().size());
    EXPECT_EQ(parsed.thresholds().size(), spec.thresholds().size());
    EXPECT_EQ(parsed.Runs(), spec.Runs());
  }
}

TEST(SweepFuzz, RandomByteMutationsNeverCrashTheParser)
{
  Rng rng(0x53EE42u);
  const std::string charset =
      "abcdefghijklmnopqrstuvwxyz0123456789 =_.-x#\t";
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    std::string text = RandomSweep(rng).ToText();
    const int mutations = static_cast<int>(rng.UniformInt(1, 6));
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      const std::size_t pos = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(text.size()) - 1));
      const char c = charset[static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(charset.size()) - 1))];
      switch (rng.UniformInt(0, 2)) {
        case 0: text[pos] = c; break;            // substitute
        case 1: text.erase(pos, 1); break;       // delete
        default: text.insert(pos, 1, c); break;  // insert
      }
    }
    // The contract under mutation: parse either succeeds (the mutation
    // kept the sweep grammatical) or fails with a line-numbered message
    // and leaves `out` untouched. It must never crash or throw.
    SweepSpec out("sentinel");
    out.Axis("cluster.nodes", {"1"});
    std::string error;
    const bool ok = SweepSpec::Parse(text, &out, &error);
    if (ok) {
      EXPECT_NE(out.name(), "sentinel") << "out not written on success";
    } else {
      EXPECT_NE(error.find("line "), std::string::npos)
          << "error lacks a line number: " << error;
      ASSERT_EQ(out.axes().size(), 1u)
          << "out must be untouched on failure";
      EXPECT_EQ(out.name(), "sentinel");
    }
  }
}

TEST(SweepFuzz, TargetedCorruptionsAlwaysError)
{
  Rng rng(0x53EE43u);
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    std::string text = RandomSweep(rng).ToText();
    switch (rng.UniformInt(0, 4)) {
      case 0:  // unknown directive
        text += "explode everything\n";
        break;
      case 1:  // second sweep line
        text += "sweep doppelganger\n";
        break;
      case 2:  // metric outside the registry
        text += "require warp <= 9\n";
        break;
      case 3:  // relative bound missing its baseline token
        text += "require p99_ms <= 1.5x\n";
        break;
      default:  // seed 0 means "no override" and is rejected
        text += "seeds 3 base=0\n";
        break;
    }
    std::string error;
    EXPECT_FALSE(SweepSpec::Parse(text, nullptr, &error)) << text;
    EXPECT_NE(error.find("line "), std::string::npos) << error;
  }
}

// --- ApplyParam against the experiment loader -----------------------

/**
 * A base with one deploy of each task type and a workload of every
 * arrival kind. Lines 1-3 are deploy[0..2], lines 4-10 workload[0..6].
 */
const std::vector<std::string> kParamBase = {
    "experiment params",
    "deploy model=bert-base provision=1",
    "deploy model=vgg19 training workers=2",
    "deploy model=resnet152",
    "workload fn=0 poisson rps=20 for 30s",
    "workload fn=0 gamma rps=5 cv=2 for 30s",
    "workload fn=0 bursty rps=5 for 30s",
    "workload fn=0 periodic rps=5 for 30s",
    "workload fn=0 sporadic rps=5 for 30s",
    "workload fn=2 closed clients=2 think=50ms for 30s",
    "workload fn=0 constant rps=5 for 30s",
};

std::string
Join(const std::vector<std::string>& lines)
{
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

TEST(SweepFuzz, ApplyParamMatchesTheLoaderOnEveryKey)
{
  // Values of each key type, valid and invalid; a fifth of the draws
  // take a value of any type.
  const std::vector<std::string> kInts = {"0", "1", "3", "-1",
                                          "2147483648"};
  const std::vector<std::string> kReals = {"0.5", "1.5", "12.3456789",
                                           "0",   "-2",  "nan", "inf"};
  const std::vector<std::string> kTimes = {"10s", "250ms", "1500us",
                                           "0s",  "-1s",   "10"};
  const std::vector<std::string> kWords = {
      "on",    "off",      "dilu",  "greedy", "static",
      "eager", "exclusive", "infless-r", "critical", "best_effort",
      "vgg19", "fn-a",     "maybe", ""};
  const std::vector<const std::vector<std::string>*> kAnyType = {
      &kInts, &kReals, &kTimes, &kWords};
  struct KeyCase {
    const char* key;
    const std::vector<std::string>* values;
  };
  const std::vector<KeyCase> kClusterKeys = {
      {"nodes", &kInts},     {"gpus_per_node", &kInts},
      {"preset", &kWords},   {"scheduler", &kWords},
      {"sharing", &kWords},  {"quota_mode", &kWords},
      {"recovery", &kWords}, {"warm_starts", &kWords},
      {"rc", &kWords},       {"wa", &kWords},
      {"seed", &kInts}};
  const std::vector<KeyCase> kDeployKeys = {
      {"model", &kWords},     {"name", &kWords},
      {"workers", &kInts},    {"iterations", &kInts},
      {"checkpoint_every", &kTimes},
      {"save_cost", &kTimes}, {"start", &kTimes},
      {"shards", &kInts},     {"provision", &kInts},
      {"scaler", &kWords},    {"class", &kWords},
      {"queue_cap", &kInts},  {"retries", &kInts},
      {"backoff", &kTimes},   {"deadline", &kTimes}};
  const std::vector<KeyCase> kWorkloadKeys = {
      {"rps", &kReals},       {"cv", &kReals},
      {"scale", &kReals},     {"len", &kTimes},
      {"gap", &kTimes},       {"amplitude", &kReals},
      {"period", &kTimes},    {"active", &kReals},
      {"spike", &kTimes},     {"clients", &kInts},
      {"think", &kTimes},     {"seed", &kInts},
      {"start", &kTimes},     {"warmup", &kTimes},
      {"duration", &kTimes}};
  const auto pick = [](Rng& rng, const auto& items) {
    return items[static_cast<std::size_t>(rng.UniformInt(
        0, static_cast<std::int64_t>(items.size()) - 1))];
  };

  ExperimentSpec base;
  std::string error;
  ASSERT_TRUE(ExperimentSpec::Parse(Join(kParamBase), &base, &error))
      << error;
  const std::string base_text = base.ToText();

  Rng rng(0x53EE44u);
  for (int round = 0; round < 8 * kRounds; ++round) {
    std::vector<std::string> lines = kParamBase;
    const auto section = rng.UniformInt(0, 2);
    const KeyCase& c = pick(rng, section == 0   ? kClusterKeys
                                 : section == 1 ? kDeployKeys
                                                : kWorkloadKeys);
    const std::string key = c.key;
    const std::string value =
        pick(rng, rng.UniformInt(0, 4) == 0 ? *pick(rng, kAnyType)
                                            : *c.values);
    std::string path;
    switch (section) {
      case 0:
        path = "cluster." + key;
        lines.push_back("cluster " + key + "=" + value);
        break;
      case 1: {
        const auto i = rng.UniformInt(0, 2);
        path = "deploy[" + std::to_string(i) + "]." + key;
        lines[static_cast<std::size_t>(1 + i)] += " " + key + "=" + value;
        break;
      }
      default: {
        const auto i = rng.UniformInt(0, 6);
        path = "workload[" + std::to_string(i) + "]." + key;
        std::string& line = lines[static_cast<std::size_t>(4 + i)];
        const std::size_t at = line.find(" for ");
        line = key == "duration"
                   ? line.substr(0, at) + " for " + value
                   : line.substr(0, at) + " " + key + "=" + value
                         + line.substr(at);
        break;
      }
    }
    SCOPED_TRACE(::testing::Message()
                 << "round " << round << ": " << path << " = '" << value
                 << "'");

    ExperimentSpec spec = base;
    std::string apply_error;
    const bool applied = ApplyParam(&spec, path, value, &apply_error);
    if (applied) {
      // A successful apply leaves a spec the loader takes as a fixed
      // point of print -> parse -> print.
      const std::string text = spec.ToText();
      ExperimentSpec reparsed;
      ASSERT_TRUE(ExperimentSpec::Parse(text, &reparsed, &error))
          << error << "\n" << text;
      EXPECT_EQ(reparsed.ToText(), text);
    } else {
      EXPECT_EQ(spec.ToText(), base_text) << "failed apply changed spec";
      EXPECT_EQ(apply_error.rfind(path + ": ", 0), 0u) << apply_error;
    }

    // Seeds and the function identity are reserved for the sweep.
    if (key == "seed" || key == "model" || key == "name") {
      EXPECT_FALSE(applied);
      continue;
    }
    std::string load_error;
    const bool loaded =
        ExperimentSpec::Parse(Join(lines), nullptr, &load_error);
    EXPECT_EQ(applied, loaded) << "ApplyParam: " << apply_error
                               << "\nloader: " << load_error;
    if (!applied && !loaded && key != "duration") {
      // Same entry, same message; only the prefix differs.
      EXPECT_EQ(apply_error.substr(path.size() + 2),
                load_error.substr(load_error.find(": ") + 2));
    }
  }
}

}  // namespace
}  // namespace dilu
