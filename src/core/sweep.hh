/**
 * @file
 * Parallel sweep engine.
 *
 * Evaluates a batch of experiment requests - a whole Table 1/2 grid,
 * a design-space sweep, the conclusions cells - on a fixed-size
 * thread pool as content-keyed stages (experiment.hh numbers them):
 * a disk lookup per cell; for the misses, one machine-free lowering
 * prefix per distinct variant; per cell, a clone of that prefix
 * lowered for the cell's machine; one bytecode run per distinct
 * profile key; compose and disk store per cell. The same work runs
 * at any thread count. Results come back in request order, and
 * every cell is bit-identical to what a serial runExperiment()
 * produces (see DESIGN.md "Sweep engine").
 */

#ifndef VVSP_CORE_SWEEP_HH
#define VVSP_CORE_SWEEP_HH

#include <memory>
#include <vector>

#include "core/experiment.hh"
#include "core/experiment_cache.hh"
#include "support/thread_pool.hh"

namespace vvsp
{

namespace obs
{
class StatsRegistry;
class TraceWriter;
} // namespace obs

/** Sweep engine configuration. */
struct SweepOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    int threads = 0;
    /**
     * Cache whose disk layer serves and stores finished cells
     * (nullptr = the process-global cache). With no disk attached
     * every lookup misses.
     */
    ExperimentCache *cache = nullptr;
    /**
     * When set, installed as the global stats registry for the
     * duration of each run() so the pipeline's instrumentation sites
     * (xform pass timing, stage counts, scheduler II telemetry)
     * record into it, and per-batch sweep counters are recorded.
     * Null: zero-cost off.
     */
    obs::StatsRegistry *stats = nullptr;
    /**
     * When set, each run() renders a batch timeline into it: one
     * trace track per pool worker, one slice per machine-free prefix
     * and one per experiment cell.
     */
    obs::TraceWriter *trace = nullptr;
    /** Trace process id for this runner's timeline track group. */
    int tracePid = 1;
};

/** Runs batches of experiment cells on a shared worker pool. */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions opts = {});

    /**
     * Evaluate every request; results[i] corresponds to requests[i].
     * The caller keeps the kernel/variant specs alive for the call.
     */
    std::vector<ExperimentResult>
    run(const std::vector<ExperimentRequest> &requests);

    int threadCount() const { return pool_.threadCount(); }

  private:
    ThreadPool pool_;
    ExperimentCache *cache_ = nullptr;
    obs::StatsRegistry *stats_ = nullptr;
    obs::TraceWriter *trace_ = nullptr;
    int tracePid_ = 1;
};

} // namespace vvsp

#endif // VVSP_CORE_SWEEP_HH
