/**
 * @file
 * Compatibility alias: the sharded driver is experiment::Experiment
 * (see experiment.h). This header exists only because the repository
 * benchmark (perfbench/main.cc) includes it and names the type, and
 * the benchmark's sources are kept unchanged; new code includes
 * experiment.h and names Experiment.
 */
#ifndef DILU_EXPERIMENT_SHARDED_EXPERIMENT_H_
#define DILU_EXPERIMENT_SHARDED_EXPERIMENT_H_

#include "experiment/experiment.h"

namespace dilu::experiment {

using ShardedExperiment = Experiment;

}  // namespace dilu::experiment

#endif  // DILU_EXPERIMENT_SHARDED_EXPERIMENT_H_
