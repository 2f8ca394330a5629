/**
 * @file
 * Layer replays for the traced run: each drives one layer's public
 * entry points in isolation, at the size and crowding a workload run
 * measured, and returns the host cost of one unit of that layer's
 * work. Multiplied by the run's exact work counts, these estimate each
 * layer's share of the end-to-end run time. Every replay is seeded
 * from the benchmark's seed argument.
 */
#ifndef DILU_PERFBENCH_REPLAYS_H_
#define DILU_PERFBENCH_REPLAYS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace dilu::perfbench {

class Tracer;

/**
 * Profiles each deployed model (`InferenceProfiler::Profile` or
 * `TrainingProfiler::Profile`) once, one span per call; returns the
 * mean milliseconds per call.
 */
double ReplayProfiler(const std::vector<std::string>& inference_models,
                      const std::vector<std::string>& training_models,
                      Tracer* tracer);

/**
 * Event core: `EventQueue::ScheduleAt` + `RunOne` with `depth` events
 * pending (each fired event schedules its successor); nanoseconds per
 * pair.
 */
double ReplayEventQueue(std::size_t depth, std::uint64_t seed);

/** Fleet shape of one GPU group (one per shard). */
struct FleetShape {
  int nodes = 0;
  int gpus_per_node = 0;
  double gpu_memory_gb = 40.0;
  int active_gpus = 0;          ///< GPUs with resident instances
  int clients_per_active = 1;   ///< resident instances per active GPU
};

/**
 * GPU quantum engine: a `GpuGroup` of the fleet's size with stub
 * clients attached to `active_gpus` seeded-random GPUs, ticked through
 * `Start()` + `Simulation::RunFor`; nanoseconds per GPU-quantum.
 */
double ReplayGpuTick(const FleetShape& fleet, std::uint64_t seed);

/**
 * RCKM: `DiluArbiter::Resolve` on one GPU crowded by `clients` stub
 * instances; nanoseconds per call.
 */
double ReplayResolve(int clients, std::uint64_t seed);

/**
 * Scheduler: `DiluScheduler::Place` + `ClusterState::Commit` /
 * `Release` of one inference instance on the fleet at its measured
 * occupancy; microseconds per cycle.
 */
double ReplayPlace(const FleetShape& fleet,
                   const std::vector<std::string>& models,
                   std::uint64_t seed);

}  // namespace dilu::perfbench

#endif  // DILU_PERFBENCH_REPLAYS_H_
