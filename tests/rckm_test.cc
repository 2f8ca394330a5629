/** @file Unit tests for the RCKM token manager (Algorithm 2) + KLC. */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/random.h"
#include "rckm/klc_monitor.h"
#include "rckm/token_manager.h"

namespace dilu::rckm {
namespace {

InstanceSample MakeSample(InstanceId id, bool slo, double req, double lim,
                          double blocks = 0.0, double inflation = 0.0)
{
  InstanceSample s;
  s.id = id;
  s.slo_sensitive = slo;
  s.quota = {req, lim};
  s.blocks_launched = blocks;
  s.klc_inflation = inflation;
  return s;
}

/** Tokens granted to `id` (grants are sample-aligned; find by id). */
double Tokens(const std::vector<TokenGrant>& grants, InstanceId id)
{
  for (const TokenGrant& g : grants) {
    if (g.id == id) return g.tokens;
  }
  ADD_FAILURE() << "no grant for instance " << id;
  return -1.0;
}

TEST(KlcMonitor, InflationRelativeToBucketMin)
{
  KlcMonitor m;
  m.Record(4, Ms(25));
  EXPECT_DOUBLE_EQ(m.Inflation(), 0.0);
  m.Record(4, Ms(50));
  EXPECT_DOUBLE_EQ(m.Inflation(), 1.0);  // 25 -> 50 ms doubled
  m.Record(4, Ms(25));
  EXPECT_DOUBLE_EQ(m.Inflation(), 0.0);
}

TEST(KlcMonitor, BucketsIsolateBatchSizes)
{
  KlcMonitor m;
  m.Record(1, Ms(10));
  m.Record(8, Ms(80));  // big batch is slower, but not "contention"
  EXPECT_DOUBLE_EQ(m.Inflation(), 0.0);
  m.Record(8, Ms(120));
  EXPECT_NEAR(m.Inflation(), 0.5, 1e-9);
}

TEST(KlcMonitor, ResetForgets)
{
  KlcMonitor m;
  m.Record(1, Ms(10));
  m.Reset();
  EXPECT_EQ(m.current(), 0);
  EXPECT_DOUBLE_EQ(m.Inflation(), 0.0);
}

// Inflation() is cached by Record/Reset; it must always equal the value
// recomputed from current() and minimum(), which are checked in turn
// against a reference model of the per-bucket minima.
TEST(KlcMonitor, CachedInflationMatchesRecomputedUnderRandomOps)
{
  Rng rng(14);
  KlcMonitor m;
  std::map<int, TimeUs> ref_min;
  TimeUs ref_current = 0;
  int ref_bucket = -1;
  for (int step = 0; step < 5000; ++step) {
    const std::int64_t op = rng.UniformInt(0, 99);
    if (op < 3) {
      m.Reset();
      ref_min.clear();
      ref_current = 0;
      ref_bucket = -1;
    } else {
      const int bucket = static_cast<int>(rng.UniformInt(0, 4));
      // ~1 in 8 records is non-positive and must be ignored.
      const TimeUs klc = op < 15 ? -rng.UniformInt(0, 5)
                                 : rng.UniformInt(1, 200);
      m.Record(bucket, klc);
      if (klc > 0) {
        ref_current = klc;
        ref_bucket = bucket;
        auto it = ref_min.find(bucket);
        if (it == ref_min.end() || klc < it->second) ref_min[bucket] = klc;
      }
    }
    ASSERT_EQ(m.current(), ref_current) << "step " << step;
    const auto it = ref_min.find(ref_bucket);
    ASSERT_EQ(m.minimum(), it == ref_min.end() ? 0 : it->second)
        << "step " << step;
    const double expected = m.minimum() > 0
        ? static_cast<double>(m.current() - m.minimum())
            / static_cast<double>(m.minimum())
        : 0.0;
    ASSERT_EQ(m.Inflation(), expected) << "step " << step;
  }
}

TEST(TokenManager, SoloNonSloGetsLimit)
{
  TokenManager tm;
  auto grants = tm.Tick({MakeSample(1, false, 0.4, 0.8, 100.0)});
  EXPECT_DOUBLE_EQ(Tokens(grants, 1), 1000.0 * 0.8);
  EXPECT_EQ(tm.state(), ScalingState::kNone);
}

TEST(TokenManager, EmergencyScalesInferenceUpAndTrainingDown)
{
  TokenManager tm;
  // Warm up: both active, contention state.
  for (int i = 0; i < 3; ++i) {
    tm.Tick({MakeSample(1, true, 0.5, 1.0, 200.0),
             MakeSample(2, false, 0.4, 0.9, 300.0)});
  }
  // Inference reports 60% KLC inflation while using most of the GPU
  // -> EMERGENCY; training squeezed below its request (the slash floor
  // is the capacity the inference side demonstrably is not using).
  auto grants = tm.Tick({MakeSample(1, true, 0.5, 1.0, 900.0, 0.6),
                         MakeSample(2, false, 0.4, 0.9, 300.0)});
  EXPECT_EQ(tm.state(), ScalingState::kEmergency);
  EXPECT_DOUBLE_EQ(Tokens(grants, 1), 1000.0);  // MaxTokens * limit
  EXPECT_LT(Tokens(grants, 2), 1000.0 * 0.4);
}

TEST(TokenManager, IdleInferenceScalesDownToRequest)
{
  TokenManager tm;
  // Inference launches nothing for a full rate window.
  std::vector<TokenGrant> grants;
  for (int i = 0; i < 10; ++i) {
    grants = tm.Tick({MakeSample(1, true, 0.5, 1.0, 0.0),
                      MakeSample(2, false, 0.4, 0.9, 300.0)});
  }
  EXPECT_DOUBLE_EQ(Tokens(grants, 1), 1000.0 * 0.5);  // request
}

TEST(TokenManager, TrainingRegrowsInRecovery)
{
  TokenManager tm;
  // Trigger emergency to depress the training budget.
  for (int i = 0; i < 3; ++i) {
    tm.Tick({MakeSample(1, true, 0.5, 1.0, 200.0),
             MakeSample(2, false, 0.4, 0.9, 300.0)});
  }
  auto depressed = tm.Tick({MakeSample(1, true, 0.5, 1.0, 900.0, 0.8),
                            MakeSample(2, false, 0.4, 0.9, 300.0)});
  const double low = Tokens(depressed, 2);
  // Inference goes idle: rate window drains over 8 periods -> RECOVERY,
  // and the training budget regrows multiplicatively toward the limit.
  std::vector<TokenGrant> grants;
  for (int i = 0; i < 30; ++i) {
    grants = tm.Tick({MakeSample(1, true, 0.5, 1.0, 0.0),
                      MakeSample(2, false, 0.4, 0.9, 300.0)});
  }
  EXPECT_GT(Tokens(grants, 2), low);
  EXPECT_NEAR(Tokens(grants, 2), 1000.0 * 0.9, 1e-6);  // back at limit
}

TEST(TokenManager, ContentionHoldsAtRequest)
{
  TokenManager tm;
  std::vector<TokenGrant> grants;
  for (int i = 0; i < 5; ++i) {
    grants = tm.Tick({MakeSample(1, true, 0.5, 1.0, 200.0),
                      MakeSample(2, true, 0.3, 0.6, 200.0)});
  }
  EXPECT_EQ(tm.state(), ScalingState::kContention);
  // Request quota plus the contention cushion, capped at the limit.
  const double cushion = tm.config().slo_cushion;
  EXPECT_DOUBLE_EQ(Tokens(grants, 1), std::min(500.0 * cushion, 1000.0));
  EXPECT_DOUBLE_EQ(Tokens(grants, 2), std::min(300.0 * cushion, 600.0));
}

TEST(TokenManager, MaxTokensScalesBudgets)
{
  TokenManagerConfig cfg;
  cfg.max_tokens = 500.0;  // conservative (Fig 18b left side)
  TokenManager tm(cfg);
  auto grants = tm.Tick({MakeSample(1, false, 0.4, 0.8, 10.0)});
  EXPECT_DOUBLE_EQ(Tokens(grants, 1), 500.0 * 0.8);
}

TEST(TokenManager, ForgetClearsEmergencyOwner)
{
  TokenManager tm;
  for (int i = 0; i < 3; ++i) {
    tm.Tick({MakeSample(1, true, 0.5, 1.0, 200.0),
             MakeSample(2, false, 0.4, 0.9, 300.0)});
  }
  tm.Tick({MakeSample(1, true, 0.5, 1.0, 200.0, 0.9),
           MakeSample(2, false, 0.4, 0.9, 300.0)});
  ASSERT_EQ(tm.state(), ScalingState::kEmergency);
  tm.Forget(1);
  EXPECT_EQ(tm.state(), ScalingState::kRecovery);
}

TEST(TokenManager, TotalTokensAccumulate)
{
  TokenManager tm;
  tm.Tick({MakeSample(1, false, 0.4, 0.8, 10.0)});
  tm.Tick({MakeSample(1, false, 0.4, 0.8, 10.0)});
  EXPECT_GT(tm.total_tokens_issued(), 0.0);
}

// The slot-cache tests below drive two managers with the same instances
// in different sample orders: `tm` sees the attachment list change shape
// (reordered, an id replaced in place, an id inserted mid-vector) while
// `ref` keeps every instance at its index and appends newcomers. Only
// best-effort instances are used, for which a grant depends on the
// instance's own history and the set of co-runners, not on sample order,
// so every grant must match by id. One instance at a time is busy for a
// 12-period phase, so each builds a different regrowth history
// (last_issue) that a grant issued from the wrong slot would expose.
InstanceSample BestEffort(InstanceId id, int tick)
{
  const InstanceId busy = 1 + (tick / 12) % 4;
  return MakeSample(id, false, 0.1 * static_cast<double>(id),
                    std::min(1.0, 0.25 * static_cast<double>(id)),
                    id == busy ? 100.0 : 0.0);
}

std::map<InstanceId, double> TickById(TokenManager& tm,
                                      const std::vector<InstanceId>& order,
                                      int tick)
{
  std::vector<InstanceSample> samples;
  for (InstanceId id : order) samples.push_back(BestEffort(id, tick));
  const std::vector<TokenGrant>& grants = tm.Tick(samples);
  EXPECT_EQ(grants.size(), samples.size());
  std::map<InstanceId, double> by_id;
  for (std::size_t i = 0; i < grants.size(); ++i) {
    EXPECT_EQ(grants[i].id, samples[i].id) << "grant " << i;
    by_id[grants[i].id] = grants[i].tokens;
  }
  return by_id;
}

/** Runs `ticks` periods from `*tick`, `tm` in `order` and `ref` in
 *  `ref_order`; true if some grant regrew above its request (so the
 *  per-instance histories were exercised). */
bool ExpectGrantsFollowIds(TokenManager& tm, TokenManager& ref,
                           const std::vector<InstanceId>& order,
                           const std::vector<InstanceId>& ref_order,
                           int ticks, int* tick)
{
  bool regrew = false;
  for (int end = *tick + ticks; *tick < end; ++*tick) {
    const auto got = TickById(tm, order, *tick);
    EXPECT_EQ(got, TickById(ref, ref_order, *tick)) << "tick " << *tick;
    for (const auto& [id, tokens] : got) {
      regrew |= tokens > 1000.0 * 0.1 * static_cast<double>(id) + 1e-9;
    }
  }
  return regrew;
}

TEST(TokenManager, GrantsFollowIdsWhenSamplesArePermuted)
{
  TokenManager tm;
  TokenManager ref;
  const std::vector<InstanceId> all = {1, 2, 3, 4};
  int tick = 0;
  EXPECT_TRUE(ExpectGrantsFollowIds(tm, ref, all, all, 30, &tick));
  EXPECT_TRUE(ExpectGrantsFollowIds(tm, ref, {4, 2, 1, 3}, all, 30, &tick));
  EXPECT_TRUE(ExpectGrantsFollowIds(tm, ref, {3, 4, 2, 1}, all, 30, &tick));
}

TEST(TokenManager, GrantsFollowIdsWhenAForgottenSlotIsReused)
{
  TokenManager tm;
  TokenManager ref;
  int tick = 0;
  EXPECT_TRUE(ExpectGrantsFollowIds(tm, ref, {1, 2, 3}, {1, 2, 3}, 30, &tick));
  // Instance 2 leaves; new instance 4 takes its freed slot and its
  // sample index. It must start fresh, not inherit 2's history.
  tm.Forget(2);
  ref.Forget(2);
  EXPECT_TRUE(ExpectGrantsFollowIds(tm, ref, {1, 4, 3}, {1, 3, 4}, 40, &tick));
  // And 4 must own that slot from then on: reordering keeps its history.
  EXPECT_TRUE(ExpectGrantsFollowIds(tm, ref, {4, 3, 1}, {1, 3, 4}, 40, &tick));
}

TEST(TokenManager, GrantsFollowIdsWhenASampleIsInsertedMidVector)
{
  TokenManager tm;
  TokenManager ref;
  int tick = 0;
  EXPECT_TRUE(ExpectGrantsFollowIds(tm, ref, {1, 3, 4}, {1, 3, 4}, 40, &tick));
  EXPECT_TRUE(
      ExpectGrantsFollowIds(tm, ref, {1, 2, 3, 4}, {1, 3, 4, 2}, 40, &tick));
  // And removed again: the vector shrinks under the kept slots.
  tm.Forget(2);
  ref.Forget(2);
  EXPECT_TRUE(ExpectGrantsFollowIds(tm, ref, {1, 3, 4}, {1, 3, 4}, 40, &tick));
}

TEST(ScalingStateNames, AllNamed)
{
  EXPECT_STREQ(ToString(ScalingState::kNone), "NONE");
  EXPECT_STREQ(ToString(ScalingState::kEmergency), "EMERGENCY");
  EXPECT_STREQ(ToString(ScalingState::kRecovery), "RECOVERY");
  EXPECT_STREQ(ToString(ScalingState::kContention), "CONTENTION");
}

}  // namespace
}  // namespace dilu::rckm
