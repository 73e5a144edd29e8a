/**
 * @file
 * Perf regression gate (label perf-smoke; the default `ctest` runs
 * it serially, the sanitize preset excludes it): times a 6-cell cold
 * mini-sweep (no disk cache, so every cell is lowered, interpreted
 * once per distinct profile and scheduled), appends the run to a
 * ledger and replays `vvsp diff --floor` over the fresh entry. That
 * one check applies every bound in tests/perf_floor.json: the
 * cells/s floor and the distribution ceilings (e.g.
 * phase/interp_sim/wall_us/sum_ceiling - the bytecode engine's phase
 * budget). The bounds are deliberately conservative - they catch the
 * scheduler or interpreter falling off its fast path (accidental
 * per-attempt allocation, bitmap scans reverting to row probing), not
 * machine noise.
 *
 * The timed run records a StatsRegistry, so the ledgered manifest
 * carries per-phase wall-time distributions.
 */

#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <ctime>
#include <string>
#include <vector>

#include "arch/config_json.hh"
#include "arch/models.hh"
#include "core/sweep.hh"
#include "obs/run_ledger.hh"
#include "obs/stats_registry.hh"

using namespace vvsp;

namespace
{

/** 6 cells: three Three-step Search variants on two models. */
std::vector<ExperimentRequest>
miniGrid()
{
    const KernelSpec &k = kernelByName("Three-step Search");
    std::vector<ExperimentRequest> reqs;
    for (const VariantSpec &v : k.variants) {
        if (reqs.size() >= 6)
            break;
        for (const char *name : {"I4C8S4", "I2C16S4"}) {
            ExperimentRequest req;
            req.kernel = &k;
            req.variant = &v;
            req.model = models::byName(name);
            req.profileUnits = 1;
            reqs.push_back(req);
        }
    }
    return reqs;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::fprintf(stderr,
                     "usage: perf_regression FLOOR.json LEDGER.jsonl\n");
        return 2;
    }

    std::vector<ExperimentRequest> grid = miniGrid();
    SweepRunner runner;

    // One untimed warm-up run hides one-time costs (kernel spec
    // construction, thread spin-up) that are not the regression
    // target; the timed run is still fully cold w.r.t. caches. The
    // registry is installed only around the timed run, so warm-up
    // samples never pollute the ledgered distributions.
    runner.run(grid);

    obs::StatsRegistry stats;
    obs::setGlobalStats(&stats);
    auto t0 = std::chrono::steady_clock::now();
    std::vector<ExperimentResult> results = runner.run(grid);
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    obs::setGlobalStats(nullptr);

    for (const ExperimentResult &r : results) {
        if (!r.passed) {
            std::fprintf(stderr, "cell failed its golden check\n");
            return 1;
        }
    }

    double cells_per_s = static_cast<double>(grid.size()) / secs;
    std::printf("perf regression: %zu cells in %.3fs = %.2f cells/s\n",
                grid.size(), secs, cells_per_s);

    // Record the measurement in the run ledger, so the perf gate's
    // history is diffable with `vvsp report`/`vvsp diff`.
    obs::RunManifest m;
    m.unixTime = static_cast<int64_t>(std::time(nullptr));
    m.subcommand = "tests/perf_regression";
    for (const char *name : {"I4C8S4", "I2C16S4"}) {
        DatapathConfig cfg = models::byName(name);
        m.machines.emplace_back(cfg.name, canonicalMachineKey(cfg));
    }
    m.threads = runner.threadCount();
    m.diskCache = false;
    m.wallUs = static_cast<uint64_t>(secs * 1e6);
    m.metrics.emplace_back("cells", static_cast<double>(grid.size()));
    m.metrics.emplace_back("wall_s", secs);
    m.metrics.emplace_back("cells_per_s", cells_per_s);
    obs::snapshotStats(stats, m);
    if (!obs::appendToLedger(argv[2], m)) {
        std::fprintf(stderr, "cannot append to %s\n", argv[2]);
        return 1;
    }
    std::printf("appended manifest to %s\n", argv[2]);

    // Check the fresh entry against every bound in the floor file.
    std::string diff = std::string("\"") + VVSP_CLI_PATH +
                       "\" diff --ledger=\"" + argv[2] +
                       "\" --floor=\"" + argv[1] + "\" --b=-1";
    std::fflush(stdout);
    if (std::system(diff.c_str()) != 0) {
        std::fprintf(stderr,
                     "FAIL: vvsp diff flagged a regression against %s\n",
                     argv[1]);
        return 1;
    }
    return 0;
}
