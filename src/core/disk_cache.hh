/**
 * @file
 * Persistent on-disk experiment cache.
 *
 * The sweep's one result cache (SweepOptions::disk, core/sweep.hh):
 * a finished cell is serialized to one file in the cache directory,
 * keyed by its content key (ExperimentCache::resultKey), so a later
 * process re-running any table bench skips the whole
 * lower/validate/compose pipeline for cells it has seen before -
 * across processes and across differently-named models with the
 * same parameters. Its "disk_cache/<event>" counters are the only
 * count of each lookup and store.
 *
 * Entry format (text): a schema-version header, the full content key
 * echoed verbatim (the filename is only a 64-bit FNV-1a hash of the
 * key, so the echo disambiguates hash collisions), then every
 * ExperimentResult field. Doubles are stored as their IEEE-754 bit
 * patterns in hex, so a round trip is bit-exact and cached results
 * are indistinguishable from recomputed ones.
 *
 * Robustness: writers serialize to a unique temp file and publish
 * with an atomic rename (concurrent writers cannot interleave; last
 * writer wins with a complete entry). Readers treat any malformed,
 * truncated, version-mismatched, or key-mismatched entry as a miss
 * and fall back to recomputation.
 */

#ifndef VVSP_CORE_DISK_CACHE_HH
#define VVSP_CORE_DISK_CACHE_HH

#include <string>

#include "core/experiment.hh"

namespace vvsp
{

/** Why a disk-cache lookup did (or did not) produce a result. */
enum class DiskLoadOutcome
{
    Hit,       ///< entry found and deserialized bit-exactly.
    Miss,      ///< no entry file for this key.
    Corrupt,   ///< malformed, truncated, or stale-schema entry.
    Collision, ///< a different key hashed to this entry file.
};

/** One directory of content-keyed experiment results. */
class DiskCache
{
  public:
    /** Opens (creating if needed) the cache directory. */
    explicit DiskCache(std::string dir);

    /**
     * Load the entry for a content key. Returns false - never throws
     * - on missing, corrupt, truncated, stale-schema, or
     * hash-collision entries.
     */
    bool load(const std::string &key, ExperimentResult &out) const;

    /**
     * load() with the outcome classified. When a global stats
     * registry is installed, each lookup also records a
     * "disk_cache/<outcome>" counter and a
     * "disk_cache/<outcome>_us" latency distribution, so cache tail
     * latency is visible to --stats and the run ledger.
     */
    DiskLoadOutcome loadClassified(const std::string &key,
                                   ExperimentResult &out) const;

    /**
     * Atomically publish an entry for a content key. Returns whether
     * the entry was written (false on I/O failure; the cache is an
     * accelerator, so failures are non-fatal). With a global stats
     * registry installed, counts "disk_cache/store" (and samples
     * "store_us") or "disk_cache/store_fail".
     */
    bool store(const std::string &key,
               const ExperimentResult &res) const;

    const std::string &dir() const { return dir_; }

    /** Path of the entry file a key maps to (for tests/tools). */
    std::string entryPath(const std::string &key) const;

    /**
     * Default directory: $VVSP_CACHE_DIR, else $XDG_CACHE_HOME/vvsp,
     * else $HOME/.cache/vvsp, else ./.vvsp-cache.
     */
    static std::string defaultDir();

    /**
     * Structurally verify one .entry file for `vvsp fsck`: header
     * magic and schema version, every field parseable, "end" trailer
     * present. On success `stored_key` receives the embedded content
     * key (so fsck can check the filename hash); on failure `why`
     * explains the damage.
     */
    static bool validateEntryFile(const std::string &path,
                                  std::string *stored_key,
                                  std::string *why);

    /** The 16-hex FNV-1a stem of the entry file a key maps to. */
    static std::string hashedStem(const std::string &key);

  private:
    std::string dir_;
};

} // namespace vvsp

#endif // VVSP_CORE_DISK_CACHE_HH
