/**
 * @file
 * Content-keyed memoization for the experiment pipeline.
 *
 * A rerun of any table revisits cells a previous process already
 * evaluated. The cache keys on *content* - kernel, variant, every
 * model-relevant architectural parameter (the model's display name
 * is deliberately excluded), frame geometry and profiled units - so
 * identical work is recognized no matter which named model or
 * harness asked for it. A unit's input is a pure function of
 * (kernel, geometry, unit index), and every profiled unit is checked
 * against the golden reference, so nothing else can change a cell.
 *
 * The keys serve the pipeline: resultKey() names a cell's entry in
 * the sweep's disk cache (core/disk_cache.hh, SweepOptions::disk),
 * the complete ExperimentResult of a cell, looked up before any work
 * and published after it, with only the display model name patched
 * per request. Work repeated inside one batch (a variant's
 * machine-free prefix, its lowering per LoweringTarget, one
 * interpreter run per profile key) is shared by the sweep's stages
 * instead (core/sweep.hh); profileKey() is the key of that
 * interpreter stage.
 *
 * The unit-profile memo (findProfile/storeProfile) is no longer
 * called by the pipeline. It is kept only for perfbench's traced
 * harness (perfbench/trace.cc), which replays one cell at a time,
 * until a benchmark change moves that harness off it. Its methods
 * are thread-safe.
 */

#ifndef VVSP_CORE_EXPERIMENT_CACHE_HH
#define VVSP_CORE_EXPERIMENT_CACHE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/experiment.hh"

namespace vvsp
{

/** Hit/miss counters of the profile memo (one snapshot; totals
 *  since construction). */
struct ExperimentCacheStats
{
    uint64_t profileHits = 0;
    uint64_t profileMisses = 0;
};

/** The pipeline's content keys, plus the traced harness's
 *  unit-profile memo. */
class ExperimentCache
{
  public:
    ExperimentCache() = default;

    ExperimentCache(const ExperimentCache &) = delete;
    ExperimentCache &operator=(const ExperimentCache &) = delete;

    /**
     * Content key of a whole cell: kernel, variant, architectural
     * parameters (not the model name), geometry and profiled units.
     * `cfg` must be the effective config the cell runs on (i.e.
     * after any variant-forced upgrades).
     */
    static std::string resultKey(const ExperimentRequest &req,
                                 const DatapathConfig &cfg);

    /**
     * Content key of a cell's interp_sim outcome: the lowered
     * function's fingerprint (sim/bytecode.hh) plus every input the
     * interpreter sees (kernel/variant for prepare+golden hooks,
     * geometry, profiled units). Deliberately machine-free: models
     * whose lowerings coincide share one entry.
     */
    static std::string profileKey(const ExperimentRequest &req,
                                  uint64_t fn_fingerprint);

    /** Look up a memoized interp_sim outcome (traced harness only). */
    bool findProfile(const std::string &key, UnitProfileEntry &out);

    /** Record an interp_sim outcome, first writer wins (traced
     *  harness only). */
    void storeProfile(const std::string &key,
                      const UnitProfileEntry &entry);

    ExperimentCacheStats stats() const;

  private:
    mutable std::mutex mutex_;
    std::unordered_map<std::string, UnitProfileEntry> profiles_;
    ExperimentCacheStats stats_;
};

} // namespace vvsp

#endif // VVSP_CORE_EXPERIMENT_CACHE_HH
