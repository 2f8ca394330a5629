#include "replays.h"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <utility>

#include "common/random.h"
#include "gpusim/gpu_group.h"
#include "models/cost_model.h"
#include "models/model_catalog.h"
#include "profiler/inference_profiler.h"
#include "profiler/training_profiler.h"
#include "rckm/token_manager.h"
#include "scheduler/scheduler.h"
#include "sim/simulation.h"
#include "trace.h"

namespace dilu::perfbench {

namespace {

/** Host time each replay measures for (after one untimed chunk). */
constexpr double kReplaySeconds = 0.3;

/**
 * Calls `chunk()` (which does `units` units of work) until
 * kReplaySeconds have passed; returns nanoseconds per unit.
 */
template <typename Fn>
double
NsPerUnit(std::int64_t units, Fn chunk)
{
  chunk();  // warm caches and lazily grown buffers
  const Clock::time_point start = Clock::now();
  std::int64_t done = 0;
  do {
    chunk();
    done += units;
  } while (SecondsSince(start) < kReplaySeconds);
  return SecondsSince(start) * 1e9 / static_cast<double>(done);
}

/** A GPU client that always wants the same share. */
class StubClient : public gpusim::GpuClient {
 public:
  StubClient(InstanceId id, double demand) : id_(id), demand_(demand) {}

  InstanceId client_id() const override { return id_; }
  double ComputeDemand(int) override { return demand_; }
  void OnGrant(int, double share) override { granted_ = share; }
  void FinishQuantum(TimeUs) override {}
  double BlocksLaunchedLastQuantum(int) const override
  {
    return granted_ * models::kBlocksPerQuantum;
  }

 private:
  InstanceId id_;
  double demand_;
  double granted_ = 0.0;
};

/** An inference-sized attachment of `client`. */
gpusim::Attachment
StubAttachment(StubClient* client)
{
  gpusim::Attachment a;
  a.client = client;
  a.id = client->client_id();
  a.type = TaskType::kInference;
  a.quota = {0.3, 0.6};
  a.memory_gb = 2.0;
  a.priority = 1;
  return a;
}

/** `count` distinct indexes in [0, n), seeded-random. */
std::vector<int>
PickDistinct(int n, int count, Rng& rng)
{
  std::vector<int> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  count = std::min(count, n);
  for (int i = 0; i < count; ++i) {
    const auto j = static_cast<std::size_t>(rng.UniformInt(i, n - 1));
    std::swap(all[static_cast<std::size_t>(i)], all[j]);
  }
  all.resize(static_cast<std::size_t>(count));
  return all;
}

}  // namespace

double
ReplayProfiler(const std::vector<std::string>& inference_models,
               const std::vector<std::string>& training_models,
               Tracer* tracer)
{
  double total_s = 0.0;
  const profiler::InferenceProfiler inference;
  const profiler::TrainingProfiler training;
  for (const std::string& m : inference_models) {
    Scope span(tracer, "profiler.profile");
    const Clock::time_point start = Clock::now();
    inference.Profile(models::GetModel(m));
    total_s += SecondsSince(start);
  }
  for (const std::string& m : training_models) {
    Scope span(tracer, "profiler.profile");
    const Clock::time_point start = Clock::now();
    training.Profile(models::GetModel(m));
    total_s += SecondsSince(start);
  }
  const std::size_t calls = inference_models.size() + training_models.size();
  return calls == 0 ? 0.0 : total_s * 1e3 / static_cast<double>(calls);
}

double
ReplayEventQueue(std::size_t depth, std::uint64_t seed)
{
  // Every fired event schedules its successor up to 1 s ahead, so the
  // queue holds `depth` events throughout.
  struct Hold {
    sim::EventQueue queue;
    Rng rng;
    void Fire()
    {
      queue.ScheduleAt(queue.now() + 1 + rng.UniformInt(0, Sec(1)),
                       [this] { Fire(); });
    }
  };
  Hold hold{{}, Rng(seed)};
  for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i) {
    hold.queue.ScheduleAt(hold.rng.UniformInt(0, Sec(1)),
                          [&hold] { hold.Fire(); });
  }
  constexpr std::int64_t kChunk = 10000;
  return NsPerUnit(kChunk, [&hold] {
    for (std::int64_t i = 0; i < kChunk; ++i) hold.queue.RunOne();
  });
}

double
ReplayGpuTick(const FleetShape& fleet, std::uint64_t seed)
{
  sim::Simulation sim;
  gpusim::GpuGroup group(
      &sim, [](GpuId) { return std::make_unique<rckm::DiluArbiter>(); });
  const int gpus = fleet.nodes * fleet.gpus_per_node;
  for (int g = 0; g < gpus; ++g) group.AddGpu(fleet.gpu_memory_gb);

  Rng rng(seed);
  std::vector<std::unique_ptr<StubClient>> clients;
  for (const int g : PickDistinct(gpus, fleet.active_gpus, rng)) {
    for (int c = 0; c < fleet.clients_per_active; ++c) {
      clients.push_back(std::make_unique<StubClient>(
          static_cast<InstanceId>(clients.size() + 1),
          rng.Uniform(0.1, 0.6)));
      group.Attach(g, StubAttachment(clients.back().get()));
    }
  }
  group.Start();
  const std::int64_t quanta =
      std::max<std::int64_t>(1, 200000 / std::max(gpus, 1));
  const double ns_per_quantum = NsPerUnit(quanta, [&] {
    sim.RunFor(group.quantum() * quanta);
  });
  return ns_per_quantum / std::max(gpus, 1);
}

double
ReplayResolve(int clients, std::uint64_t seed)
{
  Rng rng(seed);
  gpusim::Gpu gpu(0, 40.0);
  rckm::DiluArbiter arbiter;
  std::vector<std::unique_ptr<StubClient>> stubs;
  for (int c = 0; c < std::max(clients, 1); ++c) {
    stubs.push_back(std::make_unique<StubClient>(
        static_cast<InstanceId>(c + 1), rng.Uniform(0.1, 0.6)));
    const gpusim::Attachment att = StubAttachment(stubs.back().get());
    gpu.Attach(att);
    arbiter.OnAttach(gpu, att);
  }
  for (gpusim::Attachment& a : gpu.attachments()) {
    a.demand = a.client->ComputeDemand(a.slot);
  }
  TimeUs now = 0;
  constexpr std::int64_t kChunk = 1000;
  return NsPerUnit(kChunk, [&] {
    for (std::int64_t i = 0; i < kChunk; ++i) {
      now += kTokenPeriodUs;
      arbiter.Resolve(gpu, now);
      for (gpusim::Attachment& a : gpu.attachments()) {
        a.client->OnGrant(a.slot, a.granted);
      }
    }
  });
}

double
ReplayPlace(const FleetShape& fleet, const std::vector<std::string>& models,
            std::uint64_t seed)
{
  struct Demand {
    SmQuota quota;
    double mem_gb = 0.0;
  };
  std::map<std::string, Demand> by_model;
  const profiler::InferenceProfiler profiler;
  for (const std::string& m : models) {
    if (by_model.count(m) != 0) continue;
    const models::ModelProfile& model = models::GetModel(m);
    by_model[m] = {profiler.Profile(model).quota, model.mem_gb_inference};
  }
  std::vector<Demand> demand;  // aligned with `models`
  for (const std::string& m : models) demand.push_back(by_model[m]);
  const auto n_models = static_cast<std::int64_t>(demand.size());

  scheduler::ClusterState state;
  for (int n = 0; n < fleet.nodes; ++n) {
    for (int g = 0; g < fleet.gpus_per_node; ++g) {
      state.AddGpu(n, fleet.gpu_memory_gb);
    }
  }
  // Occupy the measured share of the fleet the way the run left it:
  // `clients_per_active` resident inference instances per active GPU.
  constexpr int kFunctions = 256;
  Rng rng(seed);
  InstanceId next_instance = 1;
  int resident = 0;
  for (const int g : PickDistinct(static_cast<int>(state.gpu_count()),
                                  fleet.active_gpus, rng)) {
    for (int c = 0; c < fleet.clients_per_active; ++c, ++resident) {
      const Demand& d = demand[static_cast<std::size_t>(resident % n_models)];
      state.Commit(next_instance++, resident % kFunctions,
                   {{g, d.quota, d.mem_gb}});
    }
  }

  scheduler::DiluScheduler sched;
  std::int64_t cycle = 0;
  constexpr std::int64_t kChunk = 200;
  const double ns = NsPerUnit(kChunk, [&] {
    for (std::int64_t i = 0; i < kChunk; ++i, ++cycle) {
      const Demand& d = demand[static_cast<std::size_t>(cycle % n_models)];
      scheduler::PlacementRequest req;
      req.function = static_cast<FunctionId>(cycle % kFunctions);
      req.quota = d.quota;
      req.mem_gb = d.mem_gb;
      req.affinity = {req.function};
      const scheduler::Placement p = sched.Place(req, state);
      if (!p.ok) continue;
      const InstanceId id = next_instance++;
      state.Commit(id, req.function, {{p.gpus[0], req.quota, req.mem_gb}});
      state.Release(id);
    }
  });
  return ns / 1e3;
}

}  // namespace dilu::perfbench
