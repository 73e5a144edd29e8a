/**
 * @file
 * Parallel sweep engine.
 *
 * Evaluates a batch of experiment requests - a whole Table 1/2 grid,
 * a design-space sweep, the conclusions cells - concurrently on a
 * fixed-size thread pool, sharing one content-keyed cache so that
 * repeated interpreter runs and previously stored cells are not
 * recomputed. Results come back in request order regardless of
 * thread count, and every cell is bit-identical to what a serial
 * runExperiment() produces (the pipeline's shared state is immutable
 * or mutex-guarded; see DESIGN.md "Sweep engine").
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
    /** Share the profile memo and disk layer across cells. */
    bool useCache = true;
    /**
     * Cache to share (nullptr = the process-global cache). Ignored
     * when useCache is false.
     */
    ExperimentCache *cache = nullptr;
    /**
     * When set, installed as the global stats registry for the
     * duration of each run() so the pipeline's instrumentation sites
     * (xform pass timing, scheduler II telemetry) record into it,
     * and per-batch sweep counters are recorded. Null: zero-cost off.
     */
    obs::StatsRegistry *stats = nullptr;
    /**
     * When set, each run() renders a batch timeline into it: one
     * trace track per pool worker, one slice per experiment cell.
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

    /** The cache in use, or nullptr when caching is off. */
    ExperimentCache *cache() const { return cache_; }

  private:
    ThreadPool pool_;
    ExperimentCache *cache_ = nullptr;
    obs::StatsRegistry *stats_ = nullptr;
    obs::TraceWriter *trace_ = nullptr;
    int tracePid_ = 1;
};

} // namespace vvsp

#endif // VVSP_CORE_SWEEP_HH
