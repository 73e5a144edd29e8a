/**
 * @file
 * Perf smoke (label perf-smoke): runs a tiny sweep twice against the
 * same persistent cache directory and asserts that the second,
 * disk-warm run performs ZERO scheduler invocations - every cell must
 * come back from the on-disk experiment cache, bit-identical to the
 * cold run. Standalone (not gtest) so it carries its own ctest label:
 * the default `ctest` runs it (serially), and the sanitize preset
 * excludes the label.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "arch/models.hh"
#include "core/disk_cache.hh"
#include "core/sweep.hh"
#include "obs/stats_registry.hh"

using namespace vvsp;

namespace
{

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

std::vector<ExperimentRequest>
tinyGrid()
{
    // One kernel, every variant, two models, one profiled unit: big
    // enough to exercise both schedulers, small enough for a smoke.
    const KernelSpec &k = kernelByName("Three-step Search");
    std::vector<ExperimentRequest> reqs;
    for (const VariantSpec &v : k.variants) {
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

std::vector<ExperimentResult>
runOnce(const std::vector<ExperimentRequest> &grid, DiskCache &disk,
        obs::StatsRegistry &stats)
{
    SweepOptions opts;
    opts.disk = &disk;
    // Installed before the pool starts, removed after it joins.
    obs::setGlobalStats(&stats);
    std::vector<ExperimentResult> results = SweepRunner(opts).run(grid);
    obs::setGlobalStats(nullptr);
    return results;
}

} // namespace

int
main()
{
    std::string dir =
        (std::filesystem::temp_directory_path() /
         ("vvsp-perf-smoke-" + std::to_string(::getpid())))
            .string();
    DiskCache disk(dir);
    std::vector<ExperimentRequest> grid = tinyGrid();

    // Cold run: populates the disk cache.
    obs::StatsRegistry cold_stats;
    std::vector<ExperimentResult> cold =
        runOnce(grid, disk, cold_stats);
    check(cold_stats.counterValue("sched/list_runs") > 0,
          "cold run must actually schedule");

    // Warm run: fresh runner, same directory. Every cell must be a
    // disk hit and the schedulers must never run.
    obs::StatsRegistry warm_stats;
    std::vector<ExperimentResult> warm =
        runOnce(grid, disk, warm_stats);
    check(warm_stats.counterValue("sched/list_runs") == 0,
          "disk-warm run ran the list scheduler");
    check(warm_stats.counterValue("sched/modulo_runs") == 0,
          "disk-warm run ran the modulo scheduler");
    check(warm_stats.counterValue("disk_cache/hit") == grid.size(),
          "disk-warm run missed the persistent cache");

    check(cold.size() == warm.size(), "result count mismatch");
    for (size_t i = 0; i < cold.size() && i < warm.size(); ++i) {
        check(cold[i].cyclesPerFrame == warm[i].cyclesPerFrame,
              "cached cycles not bit-identical");
        check(cold[i].cyclesPerUnit == warm[i].cyclesPerUnit,
              "cached per-unit cycles not bit-identical");
        check(cold[i].passed == warm[i].passed,
              "cached golden flag differs");
    }

    std::filesystem::remove_all(dir);
    if (failures) {
        std::fprintf(stderr, "%d failure(s)\n", failures);
        return 1;
    }
    std::printf("perf smoke OK: %zu cells, disk-warm rerun did zero "
                "scheduling\n",
                grid.size());
    return 0;
}
