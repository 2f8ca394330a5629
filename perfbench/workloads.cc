#include "workloads.h"

#include <numeric>
#include <string>
#include <vector>

#include "common/random.h"

namespace dilu::perfbench {

namespace {

/** The five small catalog models every workload rotates through. */
const char* const kModels[] = {"resnet152", "bert-base", "vgg19",
                               "gpt2-large", "roberta-large"};

std::string
Sec(std::int64_t s)
{
  return std::to_string(s) + "s";
}

std::string
ClusterLine(int nodes, int gpus_per_node, std::uint64_t seed)
{
  return "cluster nodes=" + std::to_string(nodes)
       + " gpus_per_node=" + std::to_string(gpus_per_node)
       + " seed=" + std::to_string(seed) + "\n";
}

/**
 * idle_fleet: bench_sharded's 50k-GPU fleet (6,250 nodes x 8 GPUs,
 * 256 autoscaled functions, staggered bursty arrivals) on a shorter
 * horizon, plus two small training jobs so the run reports training
 * progress. Almost every GPU-quantum is idle.
 */
std::string
IdleFleet(std::uint64_t seed)
{
  constexpr int kFunctions = 256;
  constexpr int kArrivalS = 30;
  std::string out = "experiment idle_fleet\n";
  out += ClusterLine(6250, 8, seed);
  for (int f = 0; f < kFunctions; ++f) {
    out += "deploy model=" + std::string(kModels[f % 5])
         + " provision=1 scaler=dilu-lazy\n";
  }
  out += "deploy model=resnet152 training workers=2\n";
  out += "deploy model=bert-base training workers=2\n";
  for (int f = 0; f < kFunctions; ++f) {
    out += "workload fn=" + std::to_string(f)
         + " bursty rps=40 scale=1.6 len=" + Sec(8 + f % 7)
         + " gap=" + Sec(12 + f % 11) + " for " + Sec(kArrivalS) + "\n";
  }
  out += "run for " + Sec(kArrivalS + 5) + "\n";
  return out;
}

/**
 * dense_colloc: 36 GPUs crowded by eight never-ending 2-worker training
 * jobs and 24 autoscaled inference functions under five arrival shapes
 * at 30-60 rps each.
 */
std::string
DenseColloc(std::uint64_t seed)
{
  constexpr int kJobs = 8;
  constexpr int kFunctions = 24;
  constexpr int kHorizonS = 900;
  const char* const kArrivals[] = {"poisson", "bursty", "periodic",
                                   "gamma", "sporadic"};
  std::string out = "experiment dense_colloc\n";
  out += ClusterLine(9, 4, seed);
  for (int j = 0; j < kJobs; ++j) {
    out += "deploy model=" + std::string(kModels[j % 5])
         + " training workers=2\n";
  }
  for (int f = 0; f < kFunctions; ++f) {
    out += "deploy model=" + std::string(kModels[f % 5])
         + " provision=1 scaler=dilu-lazy\n";
  }
  for (int f = 0; f < kFunctions; ++f) {
    const std::string kind = kArrivals[f % 5];
    out += "workload fn=" + std::to_string(kJobs + f) + " " + kind
         + " rps=" + std::to_string(30 + (7 * f) % 31)
         + (kind == "gamma" ? " cv=2" : "") + " for " + Sec(kHorizonS)
         + "\n";
  }
  out += "run for " + Sec(kHorizonS) + "\n";
  return out;
}

/**
 * burst_faults: 240 GPUs with the fabric on; checkpointing training
 * jobs beside 120 inference functions split over the three service
 * classes with bounded queues and one retry, under 4x bursts, while
 * 40 seed-chosen nodes fail, each recovering 10 s later.
 */
std::string
BurstFaults(std::uint64_t seed)
{
  constexpr int kNodes = 60;
  constexpr int kJobs = 10;
  constexpr int kFunctions = 120;
  constexpr int kFaults = 40;
  constexpr int kArrivalS = 600;
  const char* const kClasses[] = {"critical", "standard", "best_effort"};
  const int kQueueCaps[] = {256, 32, 8};
  std::string out = "experiment burst_faults\n";
  out += ClusterLine(kNodes, 4, seed);
  out += "storage bw=4 gc=0.1 devices=2\n";
  out += "nic rate=10 burst=0.05\n";
  for (int j = 0; j < kJobs; ++j) {
    out += "deploy model=" + std::string(kModels[j % 5])
         + " training workers=2 checkpoint_every=30s\n";
  }
  for (int f = 0; f < kFunctions; ++f) {
    out += "deploy model=" + std::string(kModels[f % 5])
         + " provision=1 scaler=dilu-lazy class=" + kClasses[f % 3]
         + " queue_cap=" + std::to_string(kQueueCaps[f % 3])
         + " retries=1 backoff=500ms\n";
  }
  for (int f = 0; f < kFunctions; ++f) {
    out += "workload fn=" + std::to_string(kJobs + f)
         + " bursty rps=15 scale=4 for " + Sec(kArrivalS) + "\n";
  }
  // Distinct seeded victims, one failure per slot at a seeded offset.
  Rng rng(seed);
  std::vector<int> nodes(kNodes);
  std::iota(nodes.begin(), nodes.end(), 0);
  const int slot = (kArrivalS - 30) / kFaults;
  for (int i = 0; i < kFaults; ++i) {
    const auto victim = static_cast<std::size_t>(i);
    std::swap(nodes[victim], nodes[static_cast<std::size_t>(
                                 rng.UniformInt(i, kNodes - 1))]);
    const std::int64_t at = 15 + i * slot + rng.UniformInt(0, 10);
    const std::string node = std::to_string(nodes[victim]);
    out += "chaos at " + Sec(at) + " fail_node " + node + "\n";
    out += "chaos at " + Sec(at + 10) + " recover_node " + node + "\n";
  }
  out += "run for " + Sec(kArrivalS + 10) + "\n";
  return out;
}

const Workload kWorkloads[] = {
    {"idle_fleet", 6, 8, IdleFleet},
    {"dense_colloc", 10, 0, DenseColloc},
    {"burst_faults", 6, 0, BurstFaults},
};

}  // namespace

const Workload*
FindWorkload(const std::string& name)
{
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string
WorkloadNames()
{
  std::string out;
  for (const Workload& w : kWorkloads) {
    if (!out.empty()) out += ", ";
    out += w.name;
  }
  return out;
}

std::uint64_t
SubSeed(std::uint64_t seed, int index)
{
  // SplitMix64 finalizer over (seed, index); 32 bits keep the spec
  // text short.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull
                  + static_cast<std::uint64_t>(index) + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) & 0xFFFFFFFFull;
}

}  // namespace dilu::perfbench
