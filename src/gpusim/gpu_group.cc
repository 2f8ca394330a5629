#include "gpusim/gpu_group.h"

#include <algorithm>

#include "common/logging.h"

namespace dilu::gpusim {

GpuGroup::GpuGroup(sim::Simulation* sim, ArbiterFactory factory,
                   TimeUs quantum)
    : sim_(sim), factory_(std::move(factory)), quantum_(quantum)
{
  DILU_CHECK(sim_ != nullptr);
  DILU_CHECK(quantum_ > 0);
}

GpuId
GpuGroup::AddGpu(double memory_gb)
{
  const GpuId id = static_cast<GpuId>(gpus_.size());
  gpus_.push_back(std::make_unique<Gpu>(id, memory_gb));
  arbiters_.push_back(factory_(id));
  listed_.push_back(false);
  return id;
}

Gpu&
GpuGroup::gpu(GpuId id)
{
  DILU_CHECK(id >= 0 && static_cast<std::size_t>(id) < gpus_.size());
  return *gpus_[id];
}

const Gpu&
GpuGroup::gpu(GpuId id) const
{
  DILU_CHECK(id >= 0 && static_cast<std::size_t>(id) < gpus_.size());
  return *gpus_[id];
}

ShareArbiter&
GpuGroup::arbiter(GpuId id)
{
  DILU_CHECK(id >= 0 && static_cast<std::size_t>(id) < arbiters_.size());
  return *arbiters_[id];
}

void
GpuGroup::Attach(GpuId id, const Attachment& att)
{
  Gpu& g = gpu(id);
  g.Attach(att);
  arbiters_[id]->OnAttach(g, att);
  if (listed_[id]) return;
  listed_[id] = true;
  if (ticking_) {
    // The tick is walking active_; an idle GPU's tick would record 0,
    // so joining after this tick changes nothing.
    deferred_.push_back(id);
  } else {
    active_.insert(std::lower_bound(active_.begin(), active_.end(), id),
                   id);
  }
}

void
GpuGroup::DetachEverywhere(InstanceId instance)
{
  // An attached instance sits only on listed GPUs.
  for (const std::vector<GpuId>* ids : {&active_, &deferred_}) {
    for (const GpuId id : *ids) {
      Gpu& g = *gpus_[id];
      if (g.Has(instance)) {
        arbiters_[id]->OnDetach(g, instance);
        g.Detach(instance);
      }
    }
  }
}

void
GpuGroup::Start()
{
  if (started_) return;
  started_ = true;
  sim_->SchedulePeriodic(sim_->now() + quantum_, quantum_,
                         [this] { Tick(); });
}

void
GpuGroup::Tick()
{
  ticking_ = true;
  const TimeUs now = sim_->now();
  // Phase 1: demands.
  for (const GpuId id : active_) {
    for (Attachment& a : gpus_[id]->attachments()) {
      a.demand = std::clamp(a.client->ComputeDemand(a.slot), 0.0, 1.0);
      a.granted = 0.0;
    }
  }
  // Phase 2: per-GPU arbitration.
  for (const GpuId id : active_) {
    if (gpus_[id]->occupied()) arbiters_[id]->Resolve(*gpus_[id], now);
  }
  // Phase 3: deliver grants.
  for (const GpuId id : active_) {
    for (Attachment& a : gpus_[id]->attachments()) {
      a.client->OnGrant(a.slot, a.granted);
    }
  }
  // Phase 4: advance each distinct client exactly once, in order of
  // first appearance. The epoch stamp marks clients already queued.
  ++epoch_;
  clients_.clear();
  for (const GpuId id : active_) {
    for (Attachment& a : gpus_[id]->attachments()) {
      if (a.client->finish_epoch_ != epoch_) {
        a.client->finish_epoch_ = epoch_;
        clients_.push_back(a.client);
      }
    }
  }
  for (GpuClient* c : clients_) c->FinishQuantum(quantum_);

  // Phase 5: utilization accounting. A GPU left empty has now recorded
  // its closing 0 and leaves the active set.
  gpu_quanta_ticked_ += static_cast<std::int64_t>(active_.size());
  std::size_t kept = 0;
  for (const GpuId id : active_) {
    Gpu& g = *gpus_[id];
    g.RecordQuantum(now);
    if (g.occupied()) {
      active_[kept++] = id;
    } else {
      listed_[id] = false;
    }
  }
  active_.resize(kept);
  ticking_ = false;

  for (const GpuId id : deferred_) {
    active_.insert(std::lower_bound(active_.begin(), active_.end(), id),
                   id);
  }
  deferred_.clear();
}

}  // namespace dilu::gpusim
