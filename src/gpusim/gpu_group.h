/**
 * @file
 * GpuGroup: the fleet of simulated GPUs plus the global 5 ms quantum
 * engine that drives them in lockstep.
 *
 * Ticking every GPU at the same instant lets multi-GPU (pipeline
 * parallel) instances aggregate per-shard grants consistently, and it
 * mirrors the paper's implementation where each GPU device is managed by
 * a dedicated RCKM thread on a common period. Like an RCKM with no
 * resident instance, a GPU with nothing attached has no per-quantum
 * work: the engine visits only the active GPUs.
 */
#ifndef DILU_GPUSIM_GPU_GROUP_H_
#define DILU_GPUSIM_GPU_GROUP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "gpusim/gpu.h"
#include "sim/simulation.h"

namespace dilu::gpusim {

/** Creates the sharing policy for a newly added GPU. */
using ArbiterFactory = std::function<std::unique_ptr<ShareArbiter>(GpuId)>;

/**
 * Owns all GPUs in the simulated cluster and the quantum loop.
 *
 * Per quantum: (1) collect demands from every attachment, (2) run each
 * GPU's arbiter, (3) deliver grants, (4) let each distinct client
 * advance its in-flight work once, (5) record utilization.
 *
 * Every phase walks only the active set: the GPUs with an attachment,
 * in id order, so arbitration, `FinishQuantum` order and utilization
 * sums are those of a walk over the whole fleet. A GPU whose last
 * attachment leaves stays active for one closing tick, which records
 * its utilization as 0; integrating that 0 afterwards is exact, so the
 * idle GPU needs no further ticks.
 */
class GpuGroup {
 public:
  /**
   * @param sim        simulation driver providing the periodic tick
   * @param factory    builds one arbiter per GPU
   * @param quantum    token period (defaults to the paper's 5 ms)
   */
  GpuGroup(sim::Simulation* sim, ArbiterFactory factory,
           TimeUs quantum = kTokenPeriodUs);

  /** Add a GPU; returns its id (dense, starting at 0). */
  GpuId AddGpu(double memory_gb);

  Gpu& gpu(GpuId id);
  const Gpu& gpu(GpuId id) const;
  std::size_t gpu_count() const { return gpus_.size(); }

  ShareArbiter& arbiter(GpuId id);

  /**
   * Attach an instance shard to a GPU (notifies the arbiter). An attach
   * from a client callback during a tick takes effect from the next
   * quantum.
   */
  void Attach(GpuId id, const Attachment& att);

  /** Detach an instance from every GPU it occupies. */
  void DetachEverywhere(InstanceId instance);

  /**
   * The GPUs the next tick visits, ascending: every GPU with an
   * attachment, plus each one whose last attachment left since the
   * previous tick.
   */
  const std::vector<GpuId>& active_gpus() const { return active_; }

  /** GPU-quanta visited so far: a work counter, not on any report. */
  std::int64_t gpu_quanta_ticked() const { return gpu_quanta_ticked_; }

  TimeUs quantum() const { return quantum_; }

  /**
   * Begin ticking (idempotent). The periodic tick stays armed for the
   * group's lifetime; a tick with no active GPU is O(1).
   */
  void Start();

 private:
  void Tick();

  sim::Simulation* sim_;
  ArbiterFactory factory_;
  TimeUs quantum_;
  std::vector<std::unique_ptr<Gpu>> gpus_;
  std::vector<std::unique_ptr<ShareArbiter>> arbiters_;
  std::vector<GpuId> active_;        // sorted by id
  std::vector<GpuId> deferred_;      // attached during a tick
  std::vector<bool> listed_;         // per GPU: in active_ or deferred_
  std::vector<GpuClient*> clients_;  // phase-4 scratch, reused
  std::uint64_t epoch_ = 0;          // ticks run; stamps clients_
  std::int64_t gpu_quanta_ticked_ = 0;
  bool ticking_ = false;
  bool started_ = false;
};

}  // namespace dilu::gpusim

#endif  // DILU_GPUSIM_GPU_GROUP_H_
