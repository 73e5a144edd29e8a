/**
 * @file
 * Shared infrastructure for the `vvsp` CLI driver: option parsing,
 * per-run observability sinks, the persistent disk cache, and the
 * table/JSON renderers every experiment subcommand shares.
 *
 * The driver replaces the per-table benchmark binaries: every
 * experiment in the repo is declared in the core ExperimentSpec
 * registry and rendered here, so the output of e.g. `vvsp table1
 * colorconv --json` is byte-identical to what the old
 * `table1_colorconv --json` binary printed (enforced by the golden
 * tests under tests/golden/).
 */

#ifndef VVSP_BENCH_VVSP_DRIVER_HH
#define VVSP_BENCH_VVSP_DRIVER_HH

#include <optional>
#include <string>
#include <vector>

#include <chrono>

#include "arch/model_registry.hh"
#include "core/disk_cache.hh"
#include "core/experiment_spec.hh"
#include "core/sweep.hh"
#include "obs/run_ledger.hh"
#include "obs/stats_registry.hh"
#include "obs/trace.hh"
#include "support/json.hh"

namespace vvsp
{
namespace cli
{

/**
 * Process exit statuses, uniform across every subcommand (README
 * "Exit codes"): 0 success, 1 runtime failure or detected
 * regression/damage, 2 usage error (bad flags or arguments).
 */
constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;

/** Options shared by every subcommand. */
struct DriverOptions
{
    /** Subcommand word, recorded into ledger manifests (vvsp.cc). */
    std::string subcommand;
    bool json = false;
    /** Worker threads; 0 = flag absent = hardware concurrency. */
    int threads = 0;
    /** Persistent result cache; --no-disk-cache (or its alias
     *  --no-cache) turns it off. */
    bool diskCache = true;
    std::string cacheDir;   ///< "" = DiskCache::defaultDir().
    bool stats = false;     ///< print the stats registry after runs.
    bool statsJson = false; ///< ... in JSON form.
    bool profile = false;   ///< per-phase wall-time breakdown.
    std::string traceFile;  ///< trace_event output path ("" = off).
    /** Run-ledger JSONL path ("" = no manifest appended). */
    std::string ledgerPath;

    // `report`/`diff` options.
    int lastN = 10;         ///< --last=N entries per report group.
    int diffA = -2;         ///< --a=IDX baseline (negative = from end).
    int diffB = -1;         ///< --b=IDX candidate.
    double threshold = 1.5; ///< --threshold regression ratio.
    std::string floorPath;  ///< --floor=FILE perf-floor JSON.
    /** --machine/--model column set: registry names or JSON paths. */
    std::vector<std::string> machines;
    /** --variant row filter ("" = every row). */
    std::string variant;
    /** `asm`: --kernel=NAME pipeline-encode source ("" = file mode). */
    std::string kernelName;
    /** `asm`: --out=FILE binary destination ("" = stdout). */
    std::string outPath;
    /** Subcommand positionals, e.g. a section alias. */
    std::vector<std::string> positional;

    // `explore` range overrides (comma-separated int lists).
    std::string clustersList;
    std::string slotsList;
    std::string regsList;
    std::string memKbList;
    std::string stagesList;
    bool mul16 = false;
    double maxAreaMm2 = 260.0;
    bool score = true; ///< --no-score skips the workload scoring.

    /** `fsck`: --no-quarantine = check-only (report damage, move
     *  nothing; any damage then exits nonzero). */
    bool fsckRepair = true;
};

/**
 * Parse everything after the subcommand word. Exits with status 2 on
 * a malformed flag (e.g. `--threads` wants a *positive* integer; the
 * hardware-concurrency default is spelled by omitting the flag).
 */
DriverOptions parseDriverArgs(int argc, char **argv, int first);

/**
 * Resolve the --machine/--model arguments through the model registry
 * (JSON machine files included). Exits with status 2 and the list of
 * registered models on a miss; returns `fallback` when no --machine
 * was given.
 */
std::vector<DatapathConfig>
resolveMachines(const DriverOptions &opts,
                const std::vector<DatapathConfig> &fallback = {});

/**
 * Per-run observability sinks: one registry and one trace shared by
 * every section a subcommand runs, emitted on destruction. Under
 * --stats, --profile or --ledger the registry is the process-global
 * one (obs::globalStats) for the sinks' whole lifetime, so every
 * instrumentation site records into it through obs::globalScope. A
 * command declares its SweepRunner and ThreadPool after its sinks,
 * so every pool has joined before the registry is removed. When
 * --ledger is set, destruction also appends a structured RunManifest
 * (machines, cache config, phase timers with quantiles, throughput)
 * to the JSONL run ledger.
 */
class Observability
{
  public:
    explicit Observability(const DriverOptions &opts);
    ~Observability();

    /** The global registry points into this object. */
    Observability(const Observability &) = delete;
    Observability &operator=(const Observability &) = delete;

    /** Record the resolved machine set for the ledger manifest. */
    void setMachines(const std::vector<DatapathConfig> &machines);

    obs::TraceWriter &trace() { return trace_; }

  private:
    DriverOptions opts_;
    std::chrono::steady_clock::time_point start_;
    /** (display name, canonical key) pairs for the manifest. */
    std::vector<std::pair<std::string, std::string>> machines_;
    obs::StatsRegistry stats_;
    obs::TraceWriter trace_;
};

/**
 * The persistent disk cache a subcommand's sweeps read and write,
 * open for the attachment's lifetime. None under --no-disk-cache (or
 * its alias --no-cache): every cell is then computed, still sharing
 * its batch's prefix and interpreter stages with the other cells.
 */
class DiskCacheAttachment
{
  public:
    explicit DiskCacheAttachment(const DriverOptions &opts);

    /** The open cache; null under --no-disk-cache. */
    DiskCache *get() { return disk_ ? &*disk_ : nullptr; }

  private:
    std::optional<DiskCache> disk_;
};

/** Build SweepOptions from the driver options, sinks and disk. */
SweepOptions sweepOptions(const DriverOptions &opts,
                          Observability &sinks,
                          DiskCacheAttachment &disk);

/**
 * Run the sections of a Table-kind spec that the positional
 * arguments name (every section when there are none; exit status 2,
 * listing the spec's sections, on an unknown name) on `machines`
 * (the spec's columns when empty) with the --variant filter: all
 * their cells as one SweepRunner batch in section order, under the
 * subcommand's sinks and disk cache. Records the fidelity scorecard
 * and prints each section from its slice of the results: the
 * paper-style text table (with the `!`/`^`/`*` flag legend) or, with
 * --json, one `{"kernel": ..., "cells": [...]}` object,
 * byte-identical to the old per-table binaries. Under --json, more
 * than one section prints one JSON array of those objects.
 */
void runSections(const ExperimentSpec &spec,
                 const std::vector<DatapathConfig> &machines,
                 const DriverOptions &opts);

// Subcommand entry points (cmd_*.cc). Each returns the process exit
// status.
int cmdTable(const ExperimentSpec &spec, const DriverOptions &opts);
int cmdAblation(const ExperimentSpec &spec, const DriverOptions &opts);
int cmdConclusions(const ExperimentSpec &spec,
                   const DriverOptions &opts);
int cmdUtilization(const ExperimentSpec &spec,
                   const DriverOptions &opts);
int cmdFigs(const DriverOptions &opts);
int cmdSweep(const DriverOptions &opts);
int cmdExplore(const DriverOptions &opts);
int cmdReport(const DriverOptions &opts);
int cmdDiff(const DriverOptions &opts);
int cmdAsm(const DriverOptions &opts);
int cmdDisasm(const DriverOptions &opts);
int cmdFsck(const DriverOptions &opts);

} // namespace cli
} // namespace vvsp

#endif // VVSP_BENCH_VVSP_DRIVER_HH
