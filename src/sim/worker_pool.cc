#include "sim/worker_pool.h"

namespace dilu::sim {

WorkerPool::WorkerPool(int threads)
{
  if (threads < 1) threads = 1;
  helpers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 1; t < threads; ++t) {
    helpers_.emplace_back([this] {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        // A helper that wakes after its job finished sees an exhausted
        // cursor and sleeps again; one that wakes into the next job
        // pulls from it. It never touches a job it did not claim.
        work_cv_.wait(lock, [this] { return stop_ || next_ < n_; });
        if (stop_) return;
        Drain(lock);
      }
    });
  }
}

WorkerPool::~WorkerPool()
{
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : helpers_) t.join();
}

void
WorkerPool::Drain(std::unique_lock<std::mutex>& lock)
{
  while (next_ < n_) {
    const std::size_t i = next_++;
    const std::function<void(std::size_t)>& fn = *fn_;
    ++busy_;
    lock.unlock();
    fn(i);
    lock.lock();
    if (--busy_ == 0 && next_ >= n_) done_cv_.notify_one();
  }
}

void
WorkerPool::ForEach(std::size_t n,
                    const std::function<void(std::size_t)>& fn)
{
  if (n == 0) return;
  std::unique_lock<std::mutex> lock(mu_);
  fn_ = &fn;
  n_ = n;
  next_ = 0;
  work_cv_.notify_all();
  Drain(lock);
  done_cv_.wait(lock, [this] { return busy_ == 0; });
  fn_ = nullptr;
}

}  // namespace dilu::sim
