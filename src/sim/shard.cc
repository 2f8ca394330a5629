#include "sim/shard.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace dilu::sim {

void
ShardMailbox::Push(ShardPost post)
{
  std::lock_guard<std::mutex> lock(mu_);
  posts_.push_back(std::move(post));
}

void
ShardMailbox::DrainInto(EventQueue* queue, TimeUs floor)
{
  std::vector<ShardPost> pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending.swap(posts_);
  }
  if (pending.empty()) return;
  // The sort key (when, source, seq) is a total order — seq is unique
  // per source — so the delivery sequence is independent of the thread
  // order in which posts arrived.
  std::sort(pending.begin(), pending.end(),
            [](const ShardPost& a, const ShardPost& b) {
              if (a.when != b.when) return a.when < b.when;
              if (a.source != b.source) return a.source < b.source;
              return a.seq < b.seq;
            });
  for (ShardPost& p : pending) {
    queue->ScheduleAt(p.when < floor ? floor : p.when, std::move(p.fn));
  }
}

bool
ShardMailbox::empty() const
{
  std::lock_guard<std::mutex> lock(mu_);
  return posts_.empty();
}

ShardedSimulation::ShardedSimulation(std::vector<Simulation*> shards,
                                     int threads, TimeUs quantum)
    : shards_(std::move(shards)),
      mailboxes_(shards_.size()),
      next_seq_(shards_.size() + 1, 0),
      quantum_(quantum),
      pool_(std::max(1, std::min(threads, shard_count())))
{
  DILU_CHECK(!shards_.empty());
  DILU_CHECK(quantum_ > 0);
  for (Simulation* s : shards_) DILU_CHECK(s != nullptr);
  now_ = shards_[0]->now();
  for (Simulation* s : shards_) DILU_CHECK(s->now() == now_);
}

void
ShardedSimulation::Post(std::int32_t target, TimeUs when, EventCallback fn,
                        std::int32_t source)
{
  DILU_CHECK(target >= 0 && target < shard_count());
  DILU_CHECK(source >= kCoordinator && source < shard_count());
  // Lane single-writer rule: shard `source` only posts from its own
  // callbacks (one thread per window), the coordinator lane only
  // between windows.
  const std::uint64_t seq =
      next_seq_[static_cast<std::size_t>(source + 1)]++;
  mailboxes_[static_cast<std::size_t>(target)].Push(
      ShardPost{when, source, seq, std::move(fn)});
}

void
ShardedSimulation::RunWindow(TimeUs target)
{
  pool_.ForEach(shards_.size(), [this, target](std::size_t s) {
    shards_[s]->RunUntil(target);
  });
}

void
ShardedSimulation::RunUntil(TimeUs deadline)
{
  while (now_ < deadline) {
    const TimeUs end = std::min(now_ + quantum_, deadline);
    if (hook_) hook_(now_, end);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      mailboxes_[s].DrainInto(&shards_[s]->queue(), now_);
    }
    RunWindow(end);
    now_ = end;
  }
  // Effects posted in the very last window would otherwise sit in the
  // mailboxes forever. Deliver and EXECUTE them at the deadline —
  // repeatedly, since a delivered effect may itself post across shards
  // — until every mailbox is empty and the fleet is quiescent. The
  // EventQueue deadline is inclusive, so re-running a shard at `now_`
  // fires exactly the newly drained events.
  while (std::any_of(mailboxes_.begin(), mailboxes_.end(),
                     [](const ShardMailbox& mb) { return !mb.empty(); })) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      mailboxes_[s].DrainInto(&shards_[s]->queue(), now_);
    }
    RunWindow(now_);
  }
}

}  // namespace dilu::sim
