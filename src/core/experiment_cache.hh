/**
 * @file
 * Content-keyed memoization for the experiment pipeline.
 *
 * Many cells of the 180-cell sweep repeat work: models whose
 * lowerings coincide interpret the same function, and a rerun of any
 * table revisits cells a previous process already evaluated. The
 * cache keys on *content* - kernel, variant, every model-relevant
 * architectural parameter (the model's display name is deliberately
 * excluded), frame geometry, profiled units, seed, and the check
 * flag - so identical work is recognized no matter which named model
 * or harness asked for it.
 *
 * Two levels, each kept because its counters show it hitting:
 *  1. unit-profile memo (in memory): the averaged interpreter
 *     profile plus golden-check verdict of a cell, keyed by function
 *     fingerprint and run parameters but NOT by machine - different
 *     machines whose lowerings coincide replay the stored profile
 *     instead of re-interpreting;
 *  2. result entries (on disk, see disk_cache.hh, when attached):
 *     the complete ExperimentResult of a cell, looked up before any
 *     work and published after it, with only the display model name
 *     patched per request.
 *
 * All methods are thread-safe; the sweep runner's workers share one
 * instance.
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

class DiskCache;

/** Hit/miss counters (one snapshot; totals since construction). */
struct ExperimentCacheStats
{
    /** Unit-profile memo (machine-independent interp results). */
    uint64_t profileHits = 0;
    uint64_t profileMisses = 0;
    /** Disk result entries (counted only while a disk is attached). */
    uint64_t diskHits = 0;
    /** Disk lookups that found no usable entry. */
    uint64_t diskMisses = 0;
    uint64_t diskStores = 0;
};

/**
 * Memoized outcome of a cell's interp_sim phase: the averaged
 * profile (post profileUnits scaling) and the golden-check verdict.
 */
struct UnitProfileEntry
{
    AvgProfile avg;
    bool checked = false;
    bool passed = false;
    std::string note;
};

/** Thread-safe unit-profile memo in front of the disk result layer. */
class ExperimentCache
{
  public:
    ExperimentCache() = default;

    ExperimentCache(const ExperimentCache &) = delete;
    ExperimentCache &operator=(const ExperimentCache &) = delete;

    /**
     * Content key of a whole cell: kernel, variant, architectural
     * parameters (not the model name), geometry, profiled units,
     * seed and check flag. `cfg` must be the effective config the
     * cell runs on (i.e. after any variant-forced upgrades).
     */
    static std::string resultKey(const ExperimentRequest &req,
                                 const DatapathConfig &cfg);

    /**
     * Content key of a cell's interp_sim outcome: the lowered
     * function's fingerprint (sim/bytecode.hh) plus every input the
     * interpreter sees (kernel/variant for prepare+golden hooks,
     * geometry, profiled units, seed, check flag). Deliberately
     * machine-free: models whose lowerings coincide share one entry.
     */
    static std::string profileKey(const ExperimentRequest &req,
                                  uint64_t fn_fingerprint);

    /**
     * Look up a finished cell on the attached disk; patches
     * out.model to `model_name`. Always a miss with no disk.
     */
    bool findResult(const std::string &key,
                    const std::string &model_name,
                    ExperimentResult &out);

    /** Publish a finished cell to the attached disk, if any. */
    void storeResult(const std::string &key,
                     const ExperimentResult &res);

    /** Look up a memoized interp_sim outcome. */
    bool findProfile(const std::string &key, UnitProfileEntry &out);

    /** Record an interp_sim outcome (first writer wins). */
    void storeProfile(const std::string &key,
                      const UnitProfileEntry &entry);

    /**
     * Attach (or, with nullptr, detach) the persistent layer. The
     * caller keeps ownership and must outlive the attachment. Not
     * meant to be raced against lookups: attach before submitting
     * work.
     */
    void setDiskCache(DiskCache *disk);

    ExperimentCacheStats stats() const;

    /** Process-wide shared instance. */
    static ExperimentCache &global();

  private:
    mutable std::mutex mutex_;
    std::unordered_map<std::string, UnitProfileEntry> profiles_;
    ExperimentCacheStats stats_;
    DiskCache *disk_ = nullptr;
};

} // namespace vvsp

#endif // VVSP_CORE_EXPERIMENT_CACHE_HH
