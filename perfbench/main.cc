/**
 * @file
 * dilu_perfbench: the repository benchmark (NOTES.md).
 *
 *   dilu_perfbench --workload W --seed N --seconds S --trace 0|1
 *                  [--trace-out FILE]
 *   dilu_perfbench --workload W --seed N --print-spec K
 *
 * Generates workload W's spec text from the seed, runs it through the
 * public experiment drivers, checks every run, and prints as its last
 * line one JSON object {correct, attempted, failed, metrics}.
 *
 * --trace 0 repeats the workload's sub-runs until S seconds have passed
 * (at least one full round) and reports the end-to-end metrics: host
 * set-up and run time (medians over reps), peak RSS, and the simulated
 * outcomes (medians over the round's sub-seeds, identical on every run).
 *
 * --trace 1 runs sub-run 0 untraced, then traced (spans around the
 * benchmark's calls into each layer), then — for the sharded workload —
 * single-threaded, and replays each layer's entry points at the sizes
 * the run measured. It reports the per-layer metrics, prints an
 * attribution table of run time, and writes the spans to FILE.
 *
 * --print-spec K prints sub-run K's canonical spec text
 * (ExperimentSpec::ToText) and the dilu_run flags that reproduce the
 * benchmark's report for it, then exits.
 *
 * Operations are the simulated requests offered to the gateway. A run
 * whose correctness checks fail reports correct=false and counts all of
 * its operations as failed.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "experiment/experiment.h"
#include "experiment/sharded_experiment.h"
#include "runtime/inference_instance.h"
#include "replays.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace dilu;
using namespace dilu::perfbench;

/**
 * Upper bound on the sharded driver's worker threads. On a 4-vCPU host
 * with busy neighbours, four workers made every barrier window wait for
 * the slowest vCPU and reps of idle_fleet varied by +-20%; two workers
 * kept them within 2%.
 */
constexpr int kMaxThreads = 2;

/** Extra set-up samples after each rep: this much set-up time ... */
constexpr double kSetupSliceSeconds = 0.05;
/** ... or this many samples, whichever comes first. */
constexpr int kMaxSetupSlice = 200;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  int print_spec = -1;  ///< sub-run to print; -1 = run the benchmark
};

bool
ParseArgs(int argc, char** argv, Options* o)
{
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o->workload = value;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      o->seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      o->trace = std::strcmp(value, "1") == 0;
      if (!o->trace && std::strcmp(value, "0") != 0) return false;
    } else if (arg == "--trace-out") {
      o->trace_out = value;
    } else if (arg == "--print-spec") {
      o->print_spec = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !o->workload.empty() && o->seconds >= 0.0;
}

/** State the run left behind, read through public accessors. */
struct FleetReadout {
  std::int64_t arrivals = 0;  ///< requests offered to the gateways
  std::int64_t admitted = 0;
  std::int64_t shed = 0;  ///< admission + retry sheds
  std::int64_t peak_outstanding = 0;  ///< max over functions
  std::size_t event_slab = 0;      ///< summed over shards
  std::size_t max_queue_slab = 0;  ///< largest single event queue
  int gpus = 0;
  int active_gpus = 0;
  std::int64_t resident = 0;  ///< resident functions on active GPUs
  double sm_frag_weighted = 0.0;  ///< SmFragmentation x active GPUs
  FleetShape group;  ///< shape of the first GPU group (shard 0)
  std::vector<std::string> violations;
};

/**
 * Accumulates one cluster's readout and checks the per-function
 * request-conservation identity of docs/OVERLOAD.md:
 * arrivals == finished + shed_admission + shed_retry + dropped
 *             + queued at live instances + retry_pending.
 */
void
ReadRuntime(cluster::ClusterRuntime& rt, FleetReadout* out)
{
  for (const FunctionId fn : rt.DeployedFunctions()) {
    const cluster::DeployedFunction& f = rt.function(fn);
    if (f.spec.type != TaskType::kInference) continue;
    const cluster::GatewayCounters& c = rt.gateway().counters(fn);
    std::int64_t queued = 0;
    for (const runtime::InferenceInstance* inst : rt.gateway().instances(fn)) {
      queued += static_cast<std::int64_t>(inst->queue_depth()
                                          + inst->batch_in_flight_size());
    }
    const std::int64_t accounted = c.finished + c.shed_admission
                                 + c.shed_retry + c.dropped + queued
                                 + c.retry_pending;
    if (c.arrivals != accounted
        || c.outstanding != queued + c.retry_pending
        || (f.spec.queue_cap > 0 && c.peak_outstanding > f.spec.queue_cap)) {
      out->violations.push_back(
          "function " + f.spec.display_name() + ": arrivals="
          + std::to_string(c.arrivals) + " accounted="
          + std::to_string(accounted) + " outstanding="
          + std::to_string(c.outstanding));
    }
    out->arrivals += c.arrivals;
    out->admitted += c.admitted;
    out->shed += c.shed_admission + c.shed_retry;
    out->peak_outstanding = std::max(out->peak_outstanding,
                                     c.peak_outstanding);
  }
  const std::size_t slab = rt.simulation().queue().SlabSize();
  out->event_slab += slab;
  out->max_queue_slab = std::max(out->max_queue_slab, slab);
  const scheduler::ClusterState& state = rt.state();
  if (out->group.nodes == 0) {
    out->group.nodes = static_cast<int>(rt.node_count());
    out->group.gpus_per_node =
        static_cast<int>(state.gpu_count() / rt.node_count());
    out->group.gpu_memory_gb = state.gpu(0).mem_total_gb;
  }
  out->gpus += static_cast<int>(state.gpu_count());
  out->active_gpus += state.ActiveGpuCount();
  out->sm_frag_weighted += state.SmFragmentation() * state.ActiveGpuCount();
  for (const scheduler::GpuInfo& g : state.gpus()) {
    out->resident += static_cast<std::int64_t>(g.functions.size());
  }
}

/** Per-window shard statistics sampled at each time barrier. */
struct Windows {
  std::vector<double> ms;
  double gpu_imbalance_sum = 0.0;
  double event_imbalance_sum = 0.0;
  int imbalance_samples = 0;
};

/** max / mean of `v` (1 when the mean is 0). */
double
Imbalance(const std::vector<double>& v)
{
  double sum = 0.0;
  double max = 0.0;
  for (const double x : v) {
    sum += x;
    max = std::max(max, x);
  }
  return sum > 0.0 ? max * static_cast<double>(v.size()) / sum : 1.0;
}

/** One execution of one sub-run. */
struct Rep {
  double parse_s = 0.0;
  double build_s = 0.0;
  double run_s = 0.0;
  experiment::ExperimentResult result;
  std::string json;
  FleetReadout fleet;
  Windows windows;  ///< sharded + traced only

  double setup_s() const { return parse_s + build_s; }
};

/** Worker threads the sharded driver uses on this host. */
int
HostThreads()
{
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, kMaxThreads);
}

/** A constructed driver of either kind, with its set-up time. */
struct Driver {
  std::unique_ptr<experiment::Experiment> single;
  std::unique_ptr<experiment::ShardedExperiment> sharded;
  double parse_s = 0.0;
  double build_s = 0.0;
};

/** Spec text -> parsed spec -> constructed driver (the set-up). */
Driver
Build(const Workload& w, std::uint64_t sub_seed, int threads, Tracer* tracer)
{
  Driver d;
  const std::string text = w.spec(sub_seed);
  experiment::ExperimentSpec spec;
  Clock::time_point start = Clock::now();
  {
    Scope span(tracer, "experiment.parse");
    std::string error;
    if (!experiment::ExperimentSpec::Parse(text, &spec, &error)) {
      std::fprintf(stderr, "internal spec error: %s\n", error.c_str());
      std::exit(2);
    }
  }
  d.parse_s = SecondsSince(start);
  start = Clock::now();
  {
    Scope span(tracer, "experiment.build");
    if (w.shards > 0) {
      experiment::ShardOptions opts;
      opts.shards = w.shards;
      opts.threads = threads;
      d.sharded = std::make_unique<experiment::ShardedExperiment>(
          std::move(spec), experiment::RunOptions{}, opts);
    } else {
      d.single = std::make_unique<experiment::Experiment>(std::move(spec));
    }
  }
  d.build_s = SecondsSince(start);
  return d;
}

/**
 * Set-up -> Run() -> readout. With a tracer, spans wrap each step and
 * the sharded driver's barrier probe records every window.
 */
Rep
RunRep(const Workload& w, std::uint64_t sub_seed, int threads, Tracer* tracer)
{
  Rep rep;
  Driver d = Build(w, sub_seed, threads, tracer);
  rep.parse_s = d.parse_s;
  rep.build_s = d.build_s;

  Clock::time_point window_start;
  if (tracer != nullptr && d.sharded) {
    experiment::ShardedExperiment* exp = d.sharded.get();
    exp->set_barrier_probe([&rep, &window_start, tracer, exp](TimeUs) {
      const Clock::time_point now = Clock::now();
      tracer->Add("shard.window", window_start, now);
      rep.windows.ms.push_back(
          std::chrono::duration<double, std::milli>(now - window_start)
              .count());
      std::vector<double> gpus;
      std::vector<double> events;
      for (int s = 0; s < exp->shard_count(); ++s) {
        cluster::ClusterRuntime& rt = exp->runtime(s);
        gpus.push_back(rt.state().ActiveGpuCount());
        events.push_back(
            static_cast<double>(rt.simulation().queue().PendingCount()));
      }
      rep.windows.gpu_imbalance_sum += Imbalance(gpus);
      rep.windows.event_imbalance_sum += Imbalance(events);
      ++rep.windows.imbalance_samples;
      window_start = Clock::now();  // the probe's own cost is excluded
    });
  }

  const Clock::time_point start = Clock::now();
  window_start = start;
  {
    Scope span(tracer, "experiment.run");
    rep.result = d.sharded ? d.sharded->Run() : d.single->Run();
  }
  rep.run_s = SecondsSince(start);
  rep.json = rep.result.ToJson();
  if (d.sharded) {
    for (int s = 0; s < d.sharded->shard_count(); ++s) {
      ReadRuntime(d.sharded->runtime(s), &rep.fleet);
    }
  } else {
    ReadRuntime(d.single->runtime(), &rep.fleet);
  }
  return rep;
}

double
Median(std::vector<double> v)
{
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile `p` in [0, 100] of `v`. */
double
Percentile(std::vector<double> v, double p)
{
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(i, v.size() - 1)];
}

std::uint64_t
Fnv1a(const std::string& s, std::uint64_t h = 0xcbf29ce484222325ull)
{
  for (const unsigned char c : s) {
    h = (h ^ c) * 0x100000001b3ull;
  }
  return h;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/** Prints each metric by name, then the result line. */
void
EmitResult(bool correct, std::int64_t attempted,
           const std::vector<Metric>& metrics)
{
  for (const Metric& m : metrics) {
    std::printf("%-26s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              correct ? "true" : "false", attempted,
              correct ? std::int64_t{0} : attempted);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/** Records a failed check (printed to stderr) and flips `correct`. */
void
Fail(bool* correct, const std::string& what)
{
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  *correct = false;
}

void
CheckFleet(const Rep& rep, bool* correct)
{
  for (const std::string& v : rep.fleet.violations) {
    Fail(correct, "request conservation: " + v);
  }
  if (rep.fleet.arrivals <= 0) Fail(correct, "no requests were offered");
  if (!rep.result.export_ok) Fail(correct, "trace export failed");
}

/** The end-to-end simulated outcomes of one sub-run's report. */
struct Outcome {
  double svr_pct = 0.0;
  double avail_pct = 0.0;
  double p99_ms = 0.0;
  double avg_gpus = 0.0;
  double train_iters = 0.0;
};

Outcome
OutcomeOf(const experiment::ExperimentResult& r)
{
  Outcome o;
  o.svr_pct = r.overall_svr_percent;
  o.avail_pct = r.overall_availability_percent;
  o.avg_gpus = r.avg_gpus;
  for (const experiment::FunctionResult& f : r.functions) {
    if (f.type == TaskType::kInference) {
      o.p99_ms = std::max(o.p99_ms, f.p99_ms);
    } else {
      o.train_iters += static_cast<double>(f.iterations);
    }
  }
  return o;
}

double
PeakRssMb()
{
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/** --trace 0: the end-to-end metrics. */
int
RunTimed(const Workload& w, const Options& opt)
{
  const int threads = HostThreads();
  std::vector<std::string> reports(static_cast<std::size_t>(w.subruns));
  std::vector<Outcome> outcomes;  // first round, one per sub-run
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::int64_t attempted = 0;
  bool correct = true;
  const Clock::time_point start = Clock::now();
  for (int i = 0;; ++i) {
    const int sub = i % w.subruns;
    const std::uint64_t sub_seed = SubSeed(opt.seed, sub);
    const Rep rep = RunRep(w, sub_seed, threads, nullptr);
    setup_s.push_back(rep.setup_s());
    run_s.push_back(rep.run_s);
    attempted += rep.fleet.arrivals;
    CheckFleet(rep, &correct);
    if (i < w.subruns) {
      reports[static_cast<std::size_t>(sub)] = rep.json;
      const Outcome o = OutcomeOf(rep.result);
      outcomes.push_back(o);
      std::printf("sub-run %d outcome: svr %.3f %%  avail %.3f %%  p99 "
                  "%.3f ms  avg_gpus %.3f  train_iters %.0f\n",
                  sub, o.svr_pct, o.avail_pct, o.p99_ms, o.avg_gpus,
                  o.train_iters);
    } else if (rep.json != reports[static_cast<std::size_t>(sub)]) {
      Fail(&correct, "sub-run " + std::to_string(sub)
                         + " report differs between reps of one seed");
    }
    std::printf("rep %d  sub-run %d (cluster seed %" PRIu64
                ")  setup %.4f s  run %.4f s  requests %" PRId64 "\n",
                i, sub, sub_seed, rep.setup_s(), rep.run_s,
                rep.fleet.arrivals);
    // Set-up takes milliseconds against seconds of run: sample more of
    // it (set up, tear down) after every rep, so its median rests on
    // many samples spread over the whole run.
    double sampled_s = 0.0;
    for (int k = 0; sampled_s < kSetupSliceSeconds && k < kMaxSetupSlice;
         ++k) {
      const Driver d = Build(w, sub_seed, threads, nullptr);
      setup_s.push_back(d.parse_s + d.build_s);
      sampled_s += d.parse_s + d.build_s;
    }
    if (i + 1 >= w.subruns && SecondsSince(start) >= opt.seconds) break;
  }
  std::uint64_t digest = 0xcbf29ce484222325ull;
  for (const std::string& r : reports) digest = Fnv1a(r, digest);
  std::printf("workload %s  seed %" PRIu64 "  threads %d  reps %zu\n",
              w.name, opt.seed, w.shards > 0 ? threads : 1, run_s.size());
  std::printf("report_digest %016" PRIx64 "\n", digest);
  const auto median_of = [&outcomes](double Outcome::*field) {
    std::vector<double> v;
    for (const Outcome& o : outcomes) v.push_back(o.*field);
    return Median(v);
  };
  EmitResult(correct, attempted,
             {{"setup_s", Median(setup_s), "s"},
              {"run_s", Median(run_s), "s"},
              {"peak_rss_mb", PeakRssMb(), "MB"},
              {"svr_pct", median_of(&Outcome::svr_pct), "%"},
              {"avail_pct", median_of(&Outcome::avail_pct), "%"},
              {"p99_ms", median_of(&Outcome::p99_ms), "ms"},
              {"avg_gpus", median_of(&Outcome::avg_gpus), "GPUs"},
              {"train_iters", median_of(&Outcome::train_iters),
               "iterations"}});
  return 0;
}

/** --trace 1: the per-layer metrics and the attribution table. */
int
RunTraced(const Workload& w, const Options& opt)
{
  const int threads = w.shards > 0 ? std::min(HostThreads(), w.shards) : 1;
  const std::uint64_t sub_seed = SubSeed(opt.seed, 0);
  bool correct = true;
  Tracer tracer(w.name);

  const Rep base = RunRep(w, sub_seed, threads, nullptr);
  CheckFleet(base, &correct);
  const Rep traced = RunRep(w, sub_seed, threads, &tracer);
  CheckFleet(traced, &correct);
  if (traced.json != base.json) {
    Fail(&correct, "traced report differs from the untraced one");
  }
  std::int64_t attempted = base.fleet.arrivals + traced.fleet.arrivals;
  // Serial run time: the sharded workload repeats at threads=1, which
  // must serialize the byte-identical report (bench_sharded's check).
  double serial_run_s = base.run_s;
  if (w.shards > 0) {
    const Rep serial = RunRep(w, sub_seed, 1, nullptr);
    CheckFleet(serial, &correct);
    if (serial.json != base.json) {
      Fail(&correct, "threads=1 report differs from threads="
                         + std::to_string(threads));
    }
    attempted += serial.fleet.arrivals;
    serial_run_s = serial.run_s;
  }

  const FleetReadout& fleet = traced.fleet;
  const experiment::ExperimentResult& result = traced.result;
  experiment::ExperimentSpec spec;
  std::string error;
  experiment::ExperimentSpec::Parse(w.spec(sub_seed), &spec, &error);
  std::vector<std::string> inference_models;
  std::vector<std::string> training_models;
  std::int64_t provisioned = 0;
  for (const experiment::DeploySpec& d : spec.deploys()) {
    if (d.fn.type == TaskType::kInference) {
      inference_models.push_back(d.fn.model);
      provisioned += d.provision;
    } else {
      training_models.push_back(d.fn.model);
    }
  }
  std::int64_t placements = provisioned;
  for (const experiment::FunctionResult& f : result.functions) {
    placements += f.cold_starts + f.recovery_cold_starts;
  }

  const double horizon_us = static_cast<double>(spec.EffectiveRunFor());
  const double quanta_per_gpu = horizon_us / kTokenPeriodUs;
  const double clients_per_gpu =
      fleet.active_gpus > 0 ? static_cast<double>(fleet.resident)
                                  / fleet.active_gpus
                            : 0.0;
  const int groups = std::max(w.shards, 1);
  FleetShape group = fleet.group;
  group.active_gpus =
      static_cast<int>(std::lround(result.avg_gpus / groups));
  group.clients_per_active =
      std::max(1, static_cast<int>(std::lround(clients_per_gpu)));

  double profile_ms = 0.0;
  double event_ns = 0.0;
  double tick_ns = 0.0;
  double resolve_ns = 0.0;
  double place_us = 0.0;
  {
    Scope span(&tracer, "profiler.replay");
    profile_ms = ReplayProfiler(inference_models, training_models, &tracer);
  }
  {
    Scope span(&tracer, "sim.replay");
    event_ns = ReplayEventQueue(fleet.max_queue_slab, opt.seed);
  }
  {
    Scope span(&tracer, "gpusim.replay");
    tick_ns = ReplayGpuTick(group, opt.seed);
  }
  {
    Scope span(&tracer, "rckm.replay");
    resolve_ns = ReplayResolve(group.clients_per_active, opt.seed);
  }
  {
    Scope span(&tracer, "scheduler.replay");
    place_us = ReplayPlace(group, inference_models, opt.seed);
  }

  const double deploys =
      static_cast<double>(inference_models.size() + training_models.size());
  const double gpu_quanta = fleet.gpus * quanta_per_gpu;
  const double active_quanta = result.avg_gpus * quanta_per_gpu;
  const double profiler_share =
      deploys * profile_ms * 1e-3 / base.setup_s();
  const double gpusim_share = tick_ns * gpu_quanta * 1e-9 / serial_run_s;
  const double rckm_share = resolve_ns * active_quanta * 1e-9 / serial_run_s;
  const double sched_share =
      place_us * static_cast<double>(placements) * 1e-6 / serial_run_s;
  // One shard has no barrier windows and is trivially balanced.
  const Windows& win = traced.windows;
  const int samples = win.imbalance_samples;
  const double gpu_imbalance =
      samples > 0 ? win.gpu_imbalance_sum / samples : 1.0;
  const double event_imbalance =
      samples > 0 ? win.event_imbalance_sum / samples : 1.0;
  const double arrivals = static_cast<double>(fleet.arrivals);

  std::printf("workload %s  seed %" PRIu64 "  sub-run 0 (cluster seed %"
              PRIu64 ")  threads %d\n",
              w.name, opt.seed, sub_seed, threads);
  std::printf("report_digest %016" PRIx64 "\n", Fnv1a(base.json));
  std::printf("attribution of serial run_s = %.4f s (estimated from "
              "replays x exact work counts):\n",
              serial_run_s);
  // The tick replay includes RCKM arbitration on its active GPUs, so
  // gpusim's own share is the tick estimate minus rckm's.
  const double gpusim_self = std::max(gpusim_share - rckm_share, 0.0);
  std::printf("  %-18s %7.3f\n", "gpusim (self)", gpusim_self);
  std::printf("  %-18s %7.3f\n", "rckm", rckm_share);
  std::printf("  %-18s %7.3f\n", "scheduler", sched_share);
  std::printf("  %-18s %7.3f\n", "unexplained",
              1.0 - gpusim_self - rckm_share - sched_share);
  std::printf("attribution of setup_s = %.4f s: profiler %.3f, "
              "unexplained %.3f\n",
              base.setup_s(), profiler_share, 1.0 - profiler_share);
  std::printf("tracing overhead: traced run_s - untraced run_s = "
              "%+.4f s\n",
              traced.run_s - base.run_s);
  if (w.shards == 0) {
    std::printf("shard.*: single-threaded driver, no barrier windows "
                "(windows 0, imbalance 1, parallel_eff 1)\n");
  }
  if (!opt.trace_out.empty() && !tracer.Write(opt.trace_out)) {
    Fail(&correct, "cannot write spans to " + opt.trace_out);
  }

  EmitResult(
      correct, attempted,
      {{"experiment.parse_s", traced.parse_s, "s"},
       {"experiment.build_s", traced.build_s, "s"},
       {"profiler.profile_ms", profile_ms, "ms"},
       {"profiler.est_share", profiler_share, "ratio"},
       {"sim.event_slab", static_cast<double>(fleet.event_slab), "count"},
       {"sim.event_ns", event_ns, "ns"},
       {"shard.windows", static_cast<double>(win.ms.size()), "count"},
       {"shard.window_ms_p50", Percentile(win.ms, 50), "ms"},
       {"shard.window_ms_p99", Percentile(win.ms, 99), "ms"},
       {"shard.gpu_imbalance", gpu_imbalance, "ratio"},
       {"shard.event_imbalance", event_imbalance, "ratio"},
       {"shard.parallel_eff", serial_run_s / (threads * base.run_s),
        "ratio"},
       {"gpusim.gpu_quanta", gpu_quanta, "count"},
       {"gpusim.active_ratio", result.avg_gpus / fleet.gpus, "ratio"},
       {"gpusim.tick_ns_per_gpu", tick_ns, "ns"},
       {"gpusim.est_share", gpusim_share, "ratio"},
       {"rckm.clients_per_gpu", clients_per_gpu, "count"},
       {"rckm.resolve_ns", resolve_ns, "ns"},
       {"rckm.est_share", rckm_share, "ratio"},
       {"scheduler.placements", static_cast<double>(placements), "count"},
       {"scheduler.place_us", place_us, "us"},
       {"scheduler.est_share", sched_share, "ratio"},
       {"scheduler.sm_frag",
        fleet.active_gpus > 0 ? fleet.sm_frag_weighted / fleet.active_gpus
                              : 0.0,
        "ratio"},
       {"gateway.arrivals", arrivals, "count"},
       {"gateway.shed", static_cast<double>(fleet.shed), "count"},
       {"gateway.admit_ratio",
        static_cast<double>(fleet.admitted) / std::max(arrivals, 1.0),
        "ratio"},
       {"gateway.peak_outstanding",
        static_cast<double>(fleet.peak_outstanding), "count"},
       {"cluster.us_per_request", base.run_s * 1e6 / std::max(arrivals, 1.0),
        "us"},
       {"fabric.transfers",
        static_cast<double>(result.fabric_storage_transfers
                            + result.fabric_network_transfers),
        "count"},
       {"fabric.stall_s", result.fabric_stall_s, "s"},
       {"chaos.mean_ttr_s", result.chaos.mean_ttr_s, "s"}});
  return 0;
}

/** --print-spec: the canonical text of one sub-run, for dilu_run. */
int
PrintSpec(const Workload& w, const Options& opt)
{
  if (opt.print_spec >= w.subruns) {
    std::fprintf(stderr, "%s has sub-runs 0..%d\n", w.name, w.subruns - 1);
    return 2;
  }
  experiment::ExperimentSpec spec;
  std::string error;
  if (!experiment::ExperimentSpec::Parse(
          w.spec(SubSeed(opt.seed, opt.print_spec)), &spec, &error)) {
    std::fprintf(stderr, "internal spec error: %s\n", error.c_str());
    return 2;
  }
  std::printf("%s", spec.ToText().c_str());
  if (w.shards > 0) {
    std::fprintf(stderr, "dilu_run flags: --shards %d --threads %d\n",
                 w.shards, HostThreads());
  }
  return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload W --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n"
                 "       %s --workload W --seed N --print-spec K\n"
                 "workloads: %s\n",
                 argv[0], argv[0], WorkloadNames().c_str());
    return 2;
  }
  const Workload* w = FindWorkload(opt.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (have: %s)\n",
                 opt.workload.c_str(), WorkloadNames().c_str());
    return 2;
  }
  if (opt.print_spec >= 0) return PrintSpec(*w, opt);
  return opt.trace ? RunTraced(*w, opt) : RunTimed(*w, opt);
}
