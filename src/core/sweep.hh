/**
 * @file
 * Parallel sweep engine.
 *
 * Evaluates a batch of experiment requests - a whole Table 1/2 grid,
 * a design-space sweep, the conclusions cells - on a fixed-size
 * thread pool as content-keyed stages (experiment.hh numbers them):
 * a disk lookup per cell; for the misses, one machine-free lowering
 * prefix per distinct variant; one lowering of a clone of that
 * prefix per distinct LoweringTarget; per cell, a clone of that
 * lowering checked against the cell's machine; one bytecode run per
 * distinct profile key; compose and disk store per cell. The same
 * work runs at any thread count. Results come back in request order,
 * and every cell is bit-identical to what a serial runExperiment()
 * produces (see DESIGN.md "Sweep engine").
 */

#ifndef VVSP_CORE_SWEEP_HH
#define VVSP_CORE_SWEEP_HH

#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "core/experiment.hh"
#include "support/thread_pool.hh"

namespace vvsp
{

class DiskCache;

namespace obs
{
class TraceWriter;
} // namespace obs

/**
 * The lowering stages of a batch of units (experiment.hh stages
 * 2-3), each once per distinct input. Units are grouped by variant,
 * whose units share one machine-free prefix, and within a variant by
 * LoweringTarget, whose units share one lowering; groups keep the
 * order in which their first unit was added. The sweep batch and
 * `vvsp utilization` both lower through it.
 */
class LoweringStages
{
  public:
    /** A unit's own clone of its target's lowering, and that
     *  lowering's functionFingerprint. */
    using UnitFn =
        std::function<void(size_t unit, Function fn, uint64_t fingerprint)>;
    /**
     * Called on the worker that ran a shared stage, after it ran:
     * "prefix" or "lower", the first unit of its group, when the
     * stage began, and how many units it serves.
     */
    using StageFn =
        std::function<void(const char *stage, size_t first_unit,
                           std::chrono::steady_clock::time_point t0,
                           size_t units)>;

    /** Unit `unit` lowers `variant` for `target`. */
    void add(size_t unit, const VariantSpec &variant,
             const LoweringTarget &target);

    /**
     * Run the stages on `pool` (inline when null): one task per
     * variant lowers its prefix, then one task per target lowers a
     * clone of it and takes its fingerprint, then one task per unit
     * calls `unit`. A task fans out the next stage's tasks only after
     * its own work, so no task waits on another stage's result. A
     * shared function is freed after its last clone. Records
     * "stage/{prefix,lower}/{requests,unique}" and the
     * "lowering_prefix" and "lowering" phases.
     */
    void run(ThreadPool *pool, const UnitFn &unit,
             const StageFn &stage = {}) const;

  private:
    struct Target
    {
        LoweringTarget target;
        std::vector<size_t> units;
    };
    struct Variant
    {
        const VariantSpec *variant = nullptr;
        std::vector<Target> targets;
        size_t units = 0;
    };

    std::vector<Variant> variants_;
    size_t units_ = 0;
};

/**
 * Sweep engine configuration. Stats are not configured here: every
 * stage records through the global registry (obs::globalScope),
 * which the caller installs around its runs.
 */
struct SweepOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    int threads = 0;
    /**
     * The disk cache that serves and stores finished cells; the
     * caller keeps it alive. Null: every cell is computed and none
     * is stored.
     */
    DiskCache *disk = nullptr;
    /**
     * When set, each run() renders a batch timeline into it, as
     * trace process 1: one track per pool worker, one slice per
     * machine-free prefix, one per lowering target and one per
     * experiment cell.
     */
    obs::TraceWriter *trace = nullptr;
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
    DiskCache *disk_ = nullptr;
    obs::TraceWriter *trace_ = nullptr;
};

} // namespace vvsp

#endif // VVSP_CORE_SWEEP_HH
