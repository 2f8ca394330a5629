/**
 * @file
 * Sharded parallel simulation core: per-shard event queues advanced by
 * a worker pool between deterministic time barriers.
 *
 * Partitioning model (docs/PARALLELISM.md): the fleet is split into
 * shards; each shard is an ordinary Simulation that owns its nodes,
 * GPUs, instances and per-function pumps and never touches another
 * shard's state directly. Simulated time advances in fixed windows
 * ("barriers", default 100 ms): at each barrier every shard is
 * quiescent at the same instant, so cross-shard effects — chaos verbs,
 * gateway hand-offs, fabric completions — are exchanged there and only
 * there.
 *
 * Determinism: a cross-shard effect is a ShardPost carrying
 * (when, source-shard, seq). Posts destined for a shard accumulate in
 * that shard's mailbox in whatever thread order they arrive, but the
 * mailbox is drained into the shard's EventQueue *sorted by
 * (when, source, seq)* — a total order that does not depend on thread
 * interleaving, because `seq` is a per-source counter and every source
 * runs single-threaded within a window. Inside a window each shard is
 * a deterministic single-threaded simulation, pulled by whichever
 * thread of the WorkerPool (sim/worker_pool.h) claims it first; which
 * thread that is never matters, since shards share nothing mid-window.
 * Between windows only the coordinator runs. Hence two runs — at any
 * thread count — execute the exact same event sequence per shard, and
 * exports are byte-identical.
 */
#ifndef DILU_SIM_SHARD_H_
#define DILU_SIM_SHARD_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "sim/simulation.h"
#include "sim/worker_pool.h"

namespace dilu::sim {

/** One cross-shard effect in flight: ordered by (when, source, seq). */
struct ShardPost {
  TimeUs when = 0;        ///< requested delivery time
  std::int32_t source = -1;  ///< originating shard (-1: coordinator)
  std::uint64_t seq = 0;  ///< per-source issue counter
  EventCallback fn;
};

/**
 * A shard's inbox for cross-shard effects. Push is thread-safe (any
 * shard's worker may target any mailbox mid-window); DrainInto is
 * called only by the coordinator at a barrier, with all workers
 * quiescent.
 */
class ShardMailbox {
 public:
  ShardMailbox() = default;
  ShardMailbox(const ShardMailbox&) = delete;
  ShardMailbox& operator=(const ShardMailbox&) = delete;

  void Push(ShardPost post);

  /**
   * Move every pending post into `queue`, sorted by (when, source,
   * seq). Posts whose `when` is before `floor` (the barrier being
   * opened) are delivered at `floor`: a cross-shard effect can never
   * rewind a shard that already advanced past its timestamp, it is
   * simply delivered at the earliest deterministic opportunity.
   */
  void DrainInto(EventQueue* queue, TimeUs floor);

  bool empty() const;

 private:
  mutable std::mutex mu_;
  std::vector<ShardPost> posts_;
};

/**
 * Advances a set of shard Simulations in lock-step barrier windows on
 * a pool of worker threads.
 *
 * The driver borrows the Simulations (they are owned by their runtimes)
 * and interleaves three strictly alternating phases per window
 * [T, T+quantum):
 *   1. barrier hook  — coordinator only; may Post() into any mailbox
 *      (this is where an experiment driver releases the chaos verbs
 *      that fall inside the window);
 *   2. mailbox drain — coordinator moves each mailbox into its shard's
 *      queue in (when, source, seq) order;
 *   3. window run    — the pool's threads, the coordinator among
 *      them, pull shards off one cursor and advance each to the window
 *      end; shard code may Post() cross-shard effects, which land in
 *      mailboxes for the *next* drain.
 * The window run is one WorkerPool::ForEach, whose return orders every
 * write a shard made before the coordinator's drain, and the drain
 * before the next window (the core is TSan-clean by construction, and
 * CI checks it).
 */
class ShardedSimulation {
 public:
  /** Posts issued outside any shard (hooks, test drivers) use this. */
  static constexpr std::int32_t kCoordinator = -1;

  /**
   * @param shards   one Simulation per shard; borrowed, must outlive
   *                 the driver, and all at the same current time
   * @param threads  threads that run windows, counting the calling
   *                 thread (clamped to [1, shards]); 1 runs every
   *                 window inline on the calling thread
   * @param quantum  barrier window length (> 0)
   */
  ShardedSimulation(std::vector<Simulation*> shards, int threads,
                    TimeUs quantum);

  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;

  int shard_count() const { return static_cast<int>(shards_.size()); }
  int threads() const { return pool_.threads(); }
  TimeUs quantum() const { return quantum_; }
  /** Barrier time all shards have reached (not mid-window progress). */
  TimeUs now() const { return now_; }

  /**
   * Post a cross-shard effect: run `fn` on shard `target` at `when`.
   * Callable from shard callbacks mid-window (any worker thread) and
   * from the coordinator between windows / in the barrier hook.
   * `source` must be the posting shard's index, or kCoordinator.
   * Delivery is clamped forward to the next barrier the target opens.
   */
  void Post(std::int32_t target, TimeUs when, EventCallback fn,
            std::int32_t source = kCoordinator);

  /**
   * Coordinator-side hook called at the start of every window with
   * (window_start, window_end), before mailboxes drain — posts made
   * inside it for times within the window are delivered in-window.
   */
  void set_barrier_hook(std::function<void(TimeUs, TimeUs)> hook)
  {
    hook_ = std::move(hook);
  }

  /** Advance every shard to `deadline` in barrier windows. */
  void RunUntil(TimeUs deadline);

 private:
  void RunWindow(TimeUs target);

  std::vector<Simulation*> shards_;
  std::vector<ShardMailbox> mailboxes_;
  /** Per-source post counters, lane [source + 1]. Each lane has one
   *  writer at a time: within a window exactly one thread runs a shard
   *  (the pool's cursor hands each shard out once), so only it posts
   *  from that shard; the coordinator lane is written only between
   *  windows. Across windows the pool's ForEach hand-off orders one
   *  thread's writes before the next one's. */
  std::vector<std::uint64_t> next_seq_;
  std::function<void(TimeUs, TimeUs)> hook_;
  TimeUs quantum_;
  TimeUs now_ = 0;
  WorkerPool pool_;
};

}  // namespace dilu::sim

#endif  // DILU_SIM_SHARD_H_
