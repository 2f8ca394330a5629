/** @file Unit tests for the GPU substrate (device, arbiters, engine). */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "gpusim/gpu.h"
#include "gpusim/gpu_group.h"

namespace dilu::gpusim {
namespace {

/** Deterministic scripted client for engine tests. */
class FakeClient : public GpuClient {
 public:
  explicit FakeClient(InstanceId id, double demand = 0.5)
      : id_(id), demand_(demand) {}

  InstanceId client_id() const override { return id_; }
  double ComputeDemand(int) override { return demand_; }
  void OnGrant(int slot, double share) override {
    if (static_cast<std::size_t>(slot) >= grants_.size()) {
      grants_.resize(static_cast<std::size_t>(slot) + 1, 0.0);
    }
    grants_[static_cast<std::size_t>(slot)] = share;
  }
  void FinishQuantum(TimeUs) override { ++quanta_; }

  void set_demand(double d) { demand_ = d; }
  double grant(int slot = 0) const {
    return grants_.empty() ? 0.0 : grants_[static_cast<std::size_t>(slot)];
  }
  int quanta() const { return quanta_; }

 private:
  InstanceId id_;
  double demand_;
  std::vector<double> grants_;
  int quanta_ = 0;
};

Attachment MakeAttachment(FakeClient* c, double static_share,
                          double mem = 4.0, int priority = 0,
                          int slot = 0)
{
  Attachment a;
  a.client = c;
  a.id = c->client_id();
  a.slot = slot;
  a.static_share = static_share;
  a.quota = {static_share, static_share};
  a.memory_gb = mem;
  a.priority = priority;
  return a;
}

TEST(Gpu, MemoryAccounting)
{
  Gpu gpu(0, 40.0);
  FakeClient a(1);
  FakeClient b(2);
  gpu.Attach(MakeAttachment(&a, 0.5, 10.0));
  gpu.Attach(MakeAttachment(&b, 0.3, 16.0));
  EXPECT_DOUBLE_EQ(gpu.memory_used_gb(), 26.0);
  EXPECT_TRUE(gpu.Has(1));
  gpu.Detach(1);
  EXPECT_FALSE(gpu.Has(1));
  EXPECT_DOUBLE_EQ(gpu.memory_used_gb(), 16.0);
}

TEST(Gpu, ReservedShares)
{
  Gpu gpu(0, 40.0);
  FakeClient a(1);
  FakeClient b(2);
  Attachment at = MakeAttachment(&a, 0.6);
  at.quota = {0.3, 0.6};
  gpu.Attach(at);
  Attachment bt = MakeAttachment(&b, 0.4);
  bt.quota = {0.2, 0.4};
  gpu.Attach(bt);
  EXPECT_DOUBLE_EQ(gpu.reserved_static_share(), 1.0);
  EXPECT_DOUBLE_EQ(gpu.reserved_request_share(), 0.5);
  EXPECT_DOUBLE_EQ(gpu.reserved_limit_share(), 1.0);
}

TEST(StaticArbiter, GrantsMinOfDemandAndQuota)
{
  Gpu gpu(0, 40.0);
  FakeClient a(1, /*demand=*/0.8);
  FakeClient b(2, /*demand=*/0.1);
  gpu.Attach(MakeAttachment(&a, 0.5));
  gpu.Attach(MakeAttachment(&b, 0.5));
  for (Attachment& at : gpu.attachments()) {
    at.demand = at.client->ComputeDemand(at.slot);
  }
  StaticArbiter arb;
  arb.Resolve(gpu, 0);
  // a capped at quota; b's unused quota NOT reusable by a.
  EXPECT_DOUBLE_EQ(gpu.attachments()[0].granted, 0.5);
  EXPECT_DOUBLE_EQ(gpu.attachments()[1].granted, 0.1);
}

TEST(StaticArbiter, OversubscribedGrantsSqueeze)
{
  Gpu gpu(0, 40.0);
  FakeClient a(1, 0.8);
  FakeClient b(2, 0.8);
  gpu.Attach(MakeAttachment(&a, 0.8));
  gpu.Attach(MakeAttachment(&b, 0.8));
  for (Attachment& at : gpu.attachments()) {
    at.demand = at.client->ComputeDemand(at.slot);
  }
  StaticArbiter arb;
  arb.Resolve(gpu, 0);
  // Quota-proportional fair shares with the oversubscription penalty.
  double total = 0.0;
  for (const Attachment& at : gpu.attachments()) total += at.granted;
  EXPECT_LE(total, 1.0 + 1e-9);
  // fair share 0.5, efficiency 0.93/sqrt(1.6)
  EXPECT_NEAR(gpu.attachments()[0].granted, 0.5 * 0.93 / std::sqrt(1.6),
              1e-9);
  EXPECT_DOUBLE_EQ(gpu.attachments()[0].granted,
                   gpu.attachments()[1].granted);
}

TEST(SqueezeToCapacity, NoOpUnderCapacity)
{
  Gpu gpu(0, 40.0);
  FakeClient a(1);
  gpu.Attach(MakeAttachment(&a, 0.4));
  gpu.attachments()[0].granted = 0.4;
  SqueezeToCapacity(gpu.attachments(), gpu.compute_capacity());
  EXPECT_DOUBLE_EQ(gpu.attachments()[0].granted, 0.4);
}

TEST(SqueezeToCapacity, SqueezesToDegradedCapacity)
{
  Gpu gpu(0, 40.0);
  gpu.set_compute_capacity(0.5);
  FakeClient a(1);
  FakeClient b(2);
  gpu.Attach(MakeAttachment(&a, 0.4));
  gpu.Attach(MakeAttachment(&b, 0.4));
  gpu.attachments()[0].granted = 0.4;
  gpu.attachments()[1].granted = 0.4;
  SqueezeToCapacity(gpu.attachments(), gpu.compute_capacity());
  // 0.8 total squeezed proportionally into the surviving half-device.
  EXPECT_DOUBLE_EQ(gpu.attachments()[0].granted, 0.25);
  EXPECT_DOUBLE_EQ(gpu.attachments()[1].granted, 0.25);
}

TEST(GpuGroup, TickDeliversGrantsAndAdvancesClientsOnce)
{
  sim::Simulation sim;
  GpuGroup group(&sim, [](GpuId) {
    return std::make_unique<StaticArbiter>();
  });
  const GpuId g0 = group.AddGpu(40.0);
  const GpuId g1 = group.AddGpu(40.0);
  FakeClient multi(7, 0.25);
  // One client spanning two GPUs (pipeline shards).
  group.Attach(g0, MakeAttachment(&multi, 0.5, 4.0, 0, /*slot=*/0));
  group.Attach(g1, MakeAttachment(&multi, 0.5, 4.0, 0, /*slot=*/1));
  group.Start();
  sim.RunFor(group.quantum());
  EXPECT_DOUBLE_EQ(multi.grant(0), 0.25);
  EXPECT_DOUBLE_EQ(multi.grant(1), 0.25);
  EXPECT_EQ(multi.quanta(), 1);  // FinishQuantum once despite two shards
}

TEST(GpuGroup, DetachEverywhereRemovesAllShards)
{
  sim::Simulation sim;
  GpuGroup group(&sim, [](GpuId) {
    return std::make_unique<StaticArbiter>();
  });
  const GpuId g0 = group.AddGpu(40.0);
  const GpuId g1 = group.AddGpu(40.0);
  FakeClient c(3);
  group.Attach(g0, MakeAttachment(&c, 0.5, 4.0, 0, 0));
  group.Attach(g1, MakeAttachment(&c, 0.5, 4.0, 0, 1));
  group.DetachEverywhere(3);
  EXPECT_FALSE(group.gpu(g0).Has(3));
  EXPECT_FALSE(group.gpu(g1).Has(3));
}

TEST(GpuGroup, PeriodicTickRunsOnSimulation)
{
  sim::Simulation sim;
  GpuGroup group(&sim, [](GpuId) {
    return std::make_unique<StaticArbiter>();
  });
  const GpuId g = group.AddGpu(40.0);
  FakeClient c(1, 0.5);
  group.Attach(g, MakeAttachment(&c, 1.0));
  group.Start();
  sim.RunUntil(Ms(50));
  EXPECT_EQ(c.quanta(), 10);  // 50 ms / 5 ms
}

TEST(GpuGroup, TickWorkIsProportionalToActiveGpus)
{
  sim::Simulation sim;
  GpuGroup group(&sim, [](GpuId) {
    return std::make_unique<StaticArbiter>();
  });
  for (int g = 0; g < 10000; ++g) group.AddGpu(40.0);
  FakeClient a(1, 0.5);
  FakeClient b(2, 0.25);
  group.Attach(9001, MakeAttachment(&a, 1.0));
  group.Attach(17, MakeAttachment(&b, 1.0));
  EXPECT_EQ(group.active_gpus(), (std::vector<GpuId>{17, 9001}));
  group.Start();

  constexpr std::int64_t kQuanta = 100;
  sim.RunFor(group.quantum() * kQuanta);
  // Two GPU-quanta per quantum, not 10,000.
  EXPECT_EQ(group.gpu_quanta_ticked(), 2 * kQuanta);
  EXPECT_EQ(a.quanta(), kQuanta);
  EXPECT_EQ(b.quanta(), kQuanta);

  // The detached GPU gets one closing quantum, which records 0, and is
  // never visited again; its utilization integral stops growing.
  group.DetachEverywhere(1);
  sim.RunFor(group.quantum() * kQuanta);
  EXPECT_EQ(group.gpu_quanta_ticked(), 3 * kQuanta + 1);
  EXPECT_EQ(group.active_gpus(), (std::vector<GpuId>{17}));
  EXPECT_EQ(group.gpu(9001).used_share(), 0.0);
  EXPECT_EQ(group.gpu(9001).UtilizationIntegral(sim.now()),
            0.5 * static_cast<double>(group.quantum() * kQuanta));
  EXPECT_EQ(a.quanta(), kQuanta);
  EXPECT_EQ(b.quanta(), 2 * kQuanta);

  // An idle fleet ticks nothing at all.
  group.DetachEverywhere(2);
  sim.RunFor(group.quantum() * kQuanta);
  EXPECT_EQ(group.gpu_quanta_ticked(), 3 * kQuanta + 2);
  EXPECT_TRUE(group.active_gpus().empty());
}

/** Attaches a second client to another GPU from its first quantum. */
class AttachingClient : public FakeClient {
 public:
  AttachingClient(InstanceId id, GpuGroup* group, GpuId target,
                  FakeClient* newcomer)
      : FakeClient(id),
        group_(group),
        target_(target),
        newcomer_(newcomer) {}

  void FinishQuantum(TimeUs quantum) override
  {
    FakeClient::FinishQuantum(quantum);
    if (quanta() == 1) {
      group_->Attach(target_, MakeAttachment(newcomer_, 1.0));
    }
  }

 private:
  GpuGroup* group_;
  GpuId target_;
  FakeClient* newcomer_;
};

TEST(GpuGroup, AttachDuringTickJoinsFromTheNextQuantum)
{
  sim::Simulation sim;
  GpuGroup group(&sim, [](GpuId) {
    return std::make_unique<StaticArbiter>();
  });
  for (int g = 0; g < 8; ++g) group.AddGpu(40.0);
  FakeClient newcomer(2, 0.5);
  AttachingClient parent(1, &group, /*target=*/2, &newcomer);
  group.Attach(5, MakeAttachment(&parent, 1.0));
  group.Start();

  sim.RunFor(group.quantum());
  EXPECT_EQ(parent.quanta(), 1);
  EXPECT_EQ(newcomer.quanta(), 0);  // attached after phase 4 collected
  EXPECT_EQ(group.gpu_quanta_ticked(), 1);
  EXPECT_EQ(group.active_gpus(), (std::vector<GpuId>{2, 5}));

  sim.RunFor(group.quantum());
  EXPECT_EQ(parent.quanta(), 2);
  EXPECT_EQ(newcomer.quanta(), 1);
  EXPECT_DOUBLE_EQ(newcomer.grant(), 0.5);
  EXPECT_EQ(group.gpu_quanta_ticked(), 3);
}

/** Logs the order in which clients finish each quantum. */
class OrderedClient : public FakeClient {
 public:
  OrderedClient(InstanceId id, std::vector<InstanceId>* log)
      : FakeClient(id), log_(log) {}

  void FinishQuantum(TimeUs quantum) override
  {
    FakeClient::FinishQuantum(quantum);
    log_->push_back(client_id());
  }

 private:
  std::vector<InstanceId>* log_;
};

TEST(GpuGroup, ClientSpanningTwoGpusFinishesOncePerQuantum)
{
  sim::Simulation sim;
  GpuGroup group(&sim, [](GpuId) {
    return std::make_unique<StaticArbiter>();
  });
  for (int g = 0; g < 4; ++g) group.AddGpu(40.0);
  std::vector<InstanceId> log;
  OrderedClient spanning(7, &log);
  OrderedClient single(3, &log);
  // Attach out of id order: the tick still walks GPUs 0, 1, 3.
  group.Attach(3, MakeAttachment(&spanning, 0.5, 4.0, 0, /*slot=*/1));
  group.Attach(1, MakeAttachment(&single, 0.5));
  group.Attach(0, MakeAttachment(&spanning, 0.5, 4.0, 0, /*slot=*/0));
  group.Start();

  sim.RunFor(group.quantum() * 3);
  EXPECT_EQ(spanning.quanta(), 3);
  EXPECT_EQ(single.quanta(), 3);
  // First appearance in GPU-id order: the spanning client (GPU 0)
  // finishes before the single one (GPU 1), every quantum.
  EXPECT_EQ(log, (std::vector<InstanceId>{7, 3, 7, 3, 7, 3}));
  EXPECT_EQ(group.gpu_quanta_ticked(), 9);
}

TEST(Gpu, UtilizationRecording)
{
  Gpu gpu(0, 40.0);
  FakeClient a(1);
  gpu.Attach(MakeAttachment(&a, 0.5));
  gpu.attachments()[0].granted = 0.5;
  gpu.RecordQuantum(Ms(5));
  EXPECT_DOUBLE_EQ(gpu.used_share(), 0.5);
}

}  // namespace
}  // namespace dilu::gpusim
