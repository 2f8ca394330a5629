/** @file Unit tests for the discrete-event engine. */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulation.h"
#include "sim/worker_pool.h"

namespace dilu::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder)
{
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(Ms(30), [&] { order.push_back(3); });
  q.ScheduleAt(Ms(10), [&] { order.push_back(1); });
  q.ScheduleAt(Ms(20), [&] { order.push_back(2); });
  while (q.RunOne()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), Ms(30));
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.ScheduleAt(Ms(10), [&order, i] { order.push_back(i); });
  }
  while (q.RunOne()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RunUntilAdvancesTimeWithoutEvents)
{
  EventQueue q;
  q.RunUntil(Sec(5));
  EXPECT_EQ(q.now(), Sec(5));
}

TEST(EventQueue, RunUntilStopsAtDeadline)
{
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(Ms(10), [&] { ++fired; });
  q.ScheduleAt(Ms(100), [&] { ++fired; });
  q.RunUntil(Ms(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), Ms(50));
  q.RunUntil(Ms(200));
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CancelPreventsFiring)
{
  EventQueue q;
  int fired = 0;
  const EventId id = q.ScheduleAt(Ms(10), [&] { ++fired; });
  q.ScheduleAt(Ms(20), [&] { ++fired; });
  q.Cancel(id);
  q.RunUntil(Ms(100));
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelFiredEventIsNoOp)
{
  EventQueue q;
  int fired = 0;
  const EventId id = q.ScheduleAt(Ms(10), [&] { ++fired; });
  q.ScheduleAt(Ms(20), [&] { ++fired; });
  EXPECT_TRUE(q.RunOne());
  EXPECT_EQ(fired, 1);
  // The event already fired; cancelling it must not disturb the
  // bookkeeping for the one still-pending event.
  q.Cancel(id);
  q.Cancel(id);
  EXPECT_EQ(q.PendingCount(), 1u);
  q.RunUntil(Ms(100));
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueue, CancelUnknownIdIsNoOp)
{
  EventQueue q;
  q.ScheduleAt(Ms(10), [] {});
  q.Cancel(12345);  // never issued
  EXPECT_EQ(q.PendingCount(), 1u);
  q.RunUntil(Ms(10));
  EXPECT_TRUE(q.Empty());
}

// Regression for the O(n)-scan cancellation list: cancelling 10k events
// used to make every subsequent pop linearly scan the cancelled vector
// (quadratic overall). With set-based bookkeeping this finishes
// instantly; the loose wall-clock bound only trips on a blowup.
TEST(EventQueue, ManyCancellationsNoQuadraticBlowup)
{
  constexpr int kEvents = 10000;
  EventQueue q;
  int fired = 0;
  std::vector<EventId> ids;
  ids.reserve(kEvents);
  // dilu-lint: allow(wall-clock loose real-time bound guarding against a quadratic blowup)
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kEvents; ++i) {
    ids.push_back(q.ScheduleAt(Ms(1) + i, [&] { ++fired; }));
    q.ScheduleAt(Ms(1) + i, [&] { ++fired; });  // survivor at same time
  }
  for (EventId id : ids) q.Cancel(id);
  EXPECT_EQ(q.PendingCount(), static_cast<std::size_t>(kEvents));
  q.RunUntil(Sec(60));
  // dilu-lint: allow(wall-clock loose real-time bound guarding against a quadratic blowup)
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(fired, kEvents);
  EXPECT_TRUE(q.Empty());
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2000);
}

TEST(EventQueue, RunUntilAdvancesToDeadlineWhenQueueDrainsEarly)
{
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(Ms(10), [&] { ++fired; });
  // The last event is at 10ms, well before the 50ms deadline: time must
  // still land on exactly the deadline, not on the last event time.
  q.RunUntil(Ms(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), Ms(50));
}

TEST(EventQueue, RunUntilDeadlineIsInclusive)
{
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(Ms(50), [&] { ++fired; });  // exactly at the deadline
  q.ScheduleAt(Ms(50) + 1, [&] { ++fired; });  // one tick past
  q.RunUntil(Ms(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), Ms(50));
  q.RunUntil(Ms(50) + 1);
  EXPECT_EQ(fired, 2);
}

// Determinism property: the same sequence of schedule/cancel calls must
// produce the identical firing order on every run — the simulation's
// reproducibility rests on this (ties break by insertion order, and no
// internal pooling/heap detail may leak into ordering).
TEST(EventQueue, DeterministicFiringOrderAcrossRuns)
{
  constexpr int kEvents = 5000;
  const auto run = [] {
    EventQueue q;
    std::vector<int> order;
    std::vector<EventId> ids;
    std::uint64_t lcg = 12345;
    for (int i = 0; i < kEvents; ++i) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      const TimeUs when = static_cast<TimeUs>((lcg >> 33) % 1000);
      ids.push_back(q.ScheduleAt(when, [&order, i] { order.push_back(i); }));
      if (i % 3 == 0 && i > 0) q.Cancel(ids[static_cast<std::size_t>(i / 2)]);
    }
    while (q.RunOne()) {
    }
    return order;
  };
  const std::vector<int> first = run();
  const std::vector<int> second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// 100k interleaved schedule/cancel/fire operations: PendingCount must
// track exactly, and the record slab must recycle slots instead of
// growing with the total event count (tombstones are reclaimed when
// their heap entries surface).
TEST(EventQueue, CancelStressRecyclesSlab)
{
  constexpr int kRounds = 10000;
  EventQueue q;
  int fired = 0;
  int expected_fired = 0;
  for (int round = 0; round < kRounds; ++round) {
    EventId ids[10];
    const TimeUs base = q.now();
    for (int i = 0; i < 10; ++i) {
      ids[i] = q.ScheduleAt(base + 1 + (i * 3) % 7, [&] { ++fired; });
    }
    EXPECT_EQ(q.PendingCount(), 10u);
    for (int i = 0; i < 10; i += 2) q.Cancel(ids[i]);
    EXPECT_EQ(q.PendingCount(), 5u);
    expected_fired += 5;
    q.RunUntil(base + 10);
    EXPECT_EQ(q.PendingCount(), 0u);
  }
  EXPECT_EQ(fired, expected_fired);
  EXPECT_TRUE(q.Empty());
  // 100k events flowed through; the slab must stay at the high-water
  // mark of *concurrent* events (10 here, plus reclaim slack).
  EXPECT_LE(q.SlabSize(), 64u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) q.ScheduleAfter(Ms(1), chain);
  };
  q.ScheduleAt(0, chain);
  q.RunUntil(Ms(100));
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.PendingCount(), 0u);
}

TEST(Simulation, PeriodicTaskFiresAtPeriod)
{
  Simulation sim;
  int fires = 0;
  sim.SchedulePeriodic(Ms(5), Ms(5), [&] { ++fires; });
  sim.RunUntil(Ms(52));
  // fires at 5, 10, ..., 50 -> 10 times
  EXPECT_EQ(fires, 10);
}

TEST(Simulation, StopPeriodicHalts)
{
  Simulation sim;
  int fires = 0;
  Simulation::TaskId id = 0;
  id = sim.SchedulePeriodic(Ms(5), Ms(5), [&] {
    if (++fires == 3) sim.StopPeriodic(id);
  });
  sim.RunUntil(Sec(1));
  EXPECT_EQ(fires, 3);
}

TEST(Simulation, SelfStopFromCallbackDoesNotRearm)
{
  Simulation sim;
  int fires = 0;
  Simulation::TaskId id = 0;
  id = sim.SchedulePeriodic(Ms(5), Ms(5), [&] {
    ++fires;
    sim.StopPeriodic(id);  // stop on the very first firing
  });
  sim.RunUntil(Sec(1));
  EXPECT_EQ(fires, 1);
  // A stopped task leaves nothing behind in the queue.
  EXPECT_EQ(sim.queue().PendingCount(), 0u);
}

TEST(Simulation, StopOtherTaskFromCallback)
{
  Simulation sim;
  int victim_fires = 0;
  int killer_fires = 0;
  // Victim fires at 5, 10, 15, ...; killer fires once at 12ms and stops
  // it, so the victim's 15ms firing must not happen.
  const Simulation::TaskId victim =
      sim.SchedulePeriodic(Ms(5), Ms(5), [&] { ++victim_fires; });
  Simulation::TaskId killer = 0;
  killer = sim.SchedulePeriodic(Ms(12), Ms(12), [&] {
    ++killer_fires;
    sim.StopPeriodic(victim);
    sim.StopPeriodic(killer);
  });
  sim.RunUntil(Sec(1));
  EXPECT_EQ(victim_fires, 2);
  EXPECT_EQ(killer_fires, 1);
  EXPECT_EQ(sim.queue().PendingCount(), 0u);
}

TEST(Simulation, StopBeforeFirstFiring)
{
  Simulation sim;
  int fires = 0;
  const Simulation::TaskId id =
      sim.SchedulePeriodic(Ms(50), Ms(50), [&] { ++fires; });
  sim.RunUntil(Ms(10));
  sim.StopPeriodic(id);
  sim.RunUntil(Sec(1));
  EXPECT_EQ(fires, 0);
  EXPECT_EQ(sim.queue().PendingCount(), 0u);
}

TEST(Simulation, MultiplePeriodicTasksInterleave)
{
  Simulation sim;
  int a = 0;
  int b = 0;
  sim.SchedulePeriodic(Ms(5), Ms(5), [&] { ++a; });
  sim.SchedulePeriodic(Ms(10), Ms(10), [&] { ++b; });
  sim.RunUntil(Ms(100));
  EXPECT_EQ(a, 20);
  EXPECT_EQ(b, 10);
}

TEST(Simulation, RunForSaturatesAtTheTimeCap)
{
  // Regression: RunFor(huge) used to compute now + duration, which
  // wrapped TimeUs negative and made the run a silent no-op. It now
  // saturates at kTimeCapUs — the same ~31-year ceiling ParseTime
  // enforces on spec durations — so events up to the cap still fire.
  Simulation sim;
  int fired = 0;
  sim.Post(kTimeCapUs, [&] { ++fired; });
  sim.RunFor(std::numeric_limits<TimeUs>::max());
  EXPECT_EQ(fired, 1) << "the capped run must still reach the cap";
  EXPECT_EQ(sim.now(), kTimeCapUs);

  // Already at the cap: another saturating run must not wrap either.
  sim.RunFor(std::numeric_limits<TimeUs>::max());
  EXPECT_EQ(sim.now(), kTimeCapUs);
}

TEST(Simulation, RunForNearTheCapClampsNotWraps)
{
  Simulation sim;
  sim.RunFor(kTimeCapUs - Ms(1));
  EXPECT_EQ(sim.now(), kTimeCapUs - Ms(1));
  int fired = 0;
  sim.Post(kTimeCapUs, [&] { ++fired; });
  sim.RunFor(Sec(5));  // would land past the cap: clamps to it
  EXPECT_EQ(sim.now(), kTimeCapUs);
  EXPECT_EQ(fired, 1);
}

/** Per-index call counts of one ForEach of `n` (slot n: out of range). */
std::vector<int>
CountCalls(WorkerPool* pool, std::size_t n)
{
  std::vector<std::atomic<int>> hits(n + 1);  // value-initialized: 0
  pool->ForEach(n, [&](std::size_t i) { ++hits[std::min(i, n)]; });
  // Read after return: ForEach's return is the happens-before edge.
  return std::vector<int>(hits.begin(), hits.end());
}

TEST(WorkerPool, EveryIndexRunsExactlyOnce)
{
  for (int threads : {1, 2, 4, 8}) {
    WorkerPool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    for (std::size_t n : {0u, 1u, 3u, 257u}) {
      std::vector<int> want(n + 1, 1);
      want[n] = 0;
      EXPECT_EQ(CountCalls(&pool, n), want) << threads << " x " << n;
    }
  }
  EXPECT_EQ(WorkerPool(0).threads(), 1);  // one thread: the caller alone
}

TEST(WorkerPool, CallerWorksAndWaitsForEveryHelperCall)
{
  // The caller claims index 0 and holds it until a helper has claimed
  // another; helper calls finish late. A pool that returned once the
  // cursor ran dry, without waiting for claimed calls, loses them.
  for (int threads : {2, 4}) {
    WorkerPool pool(threads);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> helpers{0};
    std::atomic<int> done{0};
    bool caller_ran = false;
    pool.ForEach(static_cast<std::size_t>(threads), [&](std::size_t) {
      if (std::this_thread::get_id() == caller) {
        caller_ran = true;
        while (helpers.load() == 0) std::this_thread::yield();
      } else {
        ++helpers;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      ++done;
    });
    EXPECT_EQ(done.load(), threads);
    EXPECT_TRUE(caller_ran);
  }
}

TEST(WorkerPool, BackToBackJobsLoseNoIndex)
{
  // Races helpers that wake late for job k against job k + 1.
  WorkerPool pool(4);
  for (std::size_t round = 0; round < 2000; ++round) {
    const std::size_t n = 1 + round % 7;
    std::vector<int> want(n + 1, 1);
    want[n] = 0;
    ASSERT_EQ(CountCalls(&pool, n), want) << "round " << round;
  }
}

}  // namespace
}  // namespace dilu::sim
