/**
 * @file
 * Run ledger: structured manifests of vvsp invocations, appended to
 * an append-only JSONL file, plus the regression-diff engine over
 * them (DESIGN.md "Run ledger & regression sentinel").
 *
 * Every ledgered run serializes one RunManifest - subcommand,
 * resolved machine canonical keys, thread count, cache configuration,
 * wall time, free-form throughput metrics, and the full
 * counter/distribution snapshot of its StatsRegistry (with
 * histogram-estimated p50/p90/p99 for every distribution) - as a
 * single JSONL line. Appends follow the disk cache's publish
 * discipline adapted to a log: the whole line is staged in memory and
 * published with one O_APPEND write under an exclusive flock, so
 * concurrent writers (threads or processes) can interleave entries
 * but never tear one; readers treat any malformed line as absent and
 * keep going, exactly like the disk cache treats corrupt entries.
 *
 * diffManifests() is the sentinel: it compares two manifests and
 * reports counter, latency (per-phase wall-time sums and p99s), and
 * throughput regressions beyond configurable thresholds. `vvsp diff`
 * wraps it with ledger indexing and an exit status, turning the
 * hardcoded perf-floor check into a ledger-backed gate.
 */

#ifndef VVSP_OBS_RUN_LEDGER_HH
#define VVSP_OBS_RUN_LEDGER_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace vvsp
{
namespace json
{
class Value;
} // namespace json

namespace obs
{

class StatsRegistry;

/** One distribution's persisted summary (histogram quantiles). */
struct DistSummary
{
    std::string path;
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    double p50 = 0;
    double p90 = 0;
    double p99 = 0;
};

/** Everything the ledger records about one vvsp invocation. */
struct RunManifest
{
    /** Bumped whenever the line layout changes. */
    static constexpr int kSchema = 1;

    int schema = kSchema;
    int64_t unixTime = 0; ///< seconds since the epoch, for display.
    std::string subcommand;
    /** Resolved (display name, canonical machine key) pairs. */
    std::vector<std::pair<std::string, std::string>> machines;
    int threads = 0; ///< resolved worker count, not the raw flag.
    bool diskCache = true;
    std::string cacheDir;
    uint64_t wallUs = 0; ///< whole-invocation wall time.
    /**
     * Free-form named numbers (cells, cells_per_s, wall_s, bench
     * throughputs). Names ending in "_per_s" or "_rate" are
     * higher-is-better to the diff engine; everything else is
     * lower-is-better.
     */
    std::vector<std::pair<std::string, double>> metrics;
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<DistSummary> distributions;
};

/** Copy a registry's counters and distribution summaries in. */
void snapshotStats(const StatsRegistry &stats, RunManifest &m);

/** Value of a named metric, or `fallback` when absent. */
double manifestMetric(const RunManifest &m, const std::string &name,
                      double fallback = 0.0);

/** Serialize as one JSONL line (no trailing newline). */
std::string manifestJsonLine(const RunManifest &m);

/**
 * Parse one ledger line's value tree. Returns false (with a reason
 * in `error`) on schema mismatch or a malformed tree.
 */
bool parseManifest(const json::Value &v, RunManifest &out,
                   std::string &error);

/**
 * $VVSP_LEDGER, else <disk-cache dir>/ledger.jsonl resolved the same
 * way as DiskCache::defaultDir (VVSP_CACHE_DIR, XDG_CACHE_HOME,
 * HOME/.cache, ./.vvsp-cache).
 */
std::string defaultLedgerPath();

/**
 * Append one manifest to the ledger at `path` (creating parent
 * directories). The line is published with a single O_APPEND write
 * under an exclusive flock, so concurrent writers never tear a line.
 * Returns false on I/O failure (the ledger is telemetry; failures
 * are non-fatal to the run).
 */
bool appendToLedger(const std::string &path, const RunManifest &m);

/**
 * Read every well-formed manifest line in ledger order. Malformed or
 * stale-schema lines are skipped and counted into `malformed` (may
 * be null). Returns false only when the file cannot be opened.
 */
bool readLedger(const std::string &path,
                std::vector<RunManifest> &out,
                size_t *malformed = nullptr);

/** Thresholds for the regression sentinel. */
struct DiffOptions
{
    /**
     * A lower-is-better value regresses when after > before * ratio
     * (higher-is-better: after * ratio < before).
     */
    double ratio = 1.5;
    /** Minimum absolute wall-time delta worth flagging (noise gate). */
    double latencyFloorUs = 500.0;
    /** Minimum absolute counter delta worth flagging. */
    uint64_t counterFloor = 16;
};

/** One metric that crossed its threshold between two runs. */
struct Regression
{
    std::string metric; ///< e.g. "phase/modulo_sched/wall_us/sum".
    double before = 0;
    double after = 0;
};

/**
 * Compare run `b` against baseline `a`. Checked, in order:
 *  - metrics: all pairs present in both (direction by name suffix);
 *  - counters: lower-is-better increases, skipping hit counters
 *    (a cache warming up is not a regression) and counters absent
 *    from the baseline (cold/warm asymmetry);
 *  - distributions: for "*_us" paths present in both, total time
 *    (sum) and tail (p99) beyond ratio + latencyFloorUs.
 */
std::vector<Regression> diffManifests(const RunManifest &a,
                                      const RunManifest &b,
                                      const DiffOptions &opts = {});

} // namespace obs
} // namespace vvsp

#endif // VVSP_OBS_RUN_LEDGER_HH
