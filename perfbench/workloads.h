/**
 * @file
 * The benchmark's three workloads, generated from a seed as experiment
 * spec text (the same text `dilu_run` executes; NOTES.md records why
 * each workload was chosen and its measured shape).
 *
 * One benchmark run of a workload simulates `subruns` sub-seeds derived
 * from the run's seed — a small seed sweep — so the simulated outcomes
 * it reports (SLO violations, availability, occupancy) rest on
 * enough simulated traffic to be steady from one seed to the next.
 */
#ifndef DILU_PERFBENCH_WORKLOADS_H_
#define DILU_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

namespace dilu::perfbench {

/** One benchmark workload. */
struct Workload {
  const char* name = "";
  /** Sub-seeds simulated per benchmark run (one timed rep each). */
  int subruns = 1;
  /** Shards of the sharded driver; 0 = the single-threaded driver. */
  int shards = 0;
  /** Spec text of one sub-run under cluster seed `seed`. */
  std::string (*spec)(std::uint64_t seed) = nullptr;
};

/** The workload named `name`, or null. */
const Workload* FindWorkload(const std::string& name);

/** Comma-separated workload names (for usage messages). */
std::string WorkloadNames();

/** Cluster seed of sub-run `index` of a run seeded with `seed`. */
std::uint64_t SubSeed(std::uint64_t seed, int index);

}  // namespace dilu::perfbench

#endif  // DILU_PERFBENCH_WORKLOADS_H_
