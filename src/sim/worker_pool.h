/**
 * @file
 * The simulator's one worker pool: helper threads plus the calling
 * thread, pulling indices off one mutex-guarded cursor. ShardedSimulation
 * runs each barrier window as one ForEach over its shards; ExecuteSweep
 * runs a sweep matrix as one ForEach over its runs (docs/PARALLELISM.md).
 *
 * Every call ends by re-taking the pool's mutex, and ForEach returns
 * holding it: each call's writes happen-before ForEach returns, and
 * what the caller wrote before ForEach happens-before every call.
 */
#ifndef DILU_SIM_WORKER_POOL_H_
#define DILU_SIM_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dilu::sim {

class WorkerPool {
 public:
  /** `threads` counts the caller (clamped to >= 1): it starts
   *  `threads - 1` helpers, so 1 runs every call inline. */
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int threads() const { return static_cast<int>(helpers_.size()) + 1; }

  /**
   * Call `fn(i)` once for every i in [0, n) on the helpers and the
   * calling thread; return once every call has returned. One caller at
   * a time; `fn` must not throw or re-enter the pool.
   */
  void ForEach(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  /** Run calls off the cursor until it is exhausted; `lock` holds mu_. */
  void Drain(std::unique_lock<std::mutex>& lock);

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< helpers: the cursor has work
  std::condition_variable done_cv_;  ///< caller: busy_ dropped to 0
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t n_ = 0;     ///< indices in the current job
  std::size_t next_ = 0;  ///< cursor: next unclaimed index
  int busy_ = 0;          ///< calls claimed but not yet returned
  bool stop_ = false;
  std::vector<std::thread> helpers_;
};

}  // namespace dilu::sim

#endif  // DILU_SIM_WORKER_POOL_H_
