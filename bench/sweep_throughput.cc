/**
 * @file
 * Sweep-engine throughput: wall time for the full Table 1 grid
 * (every kernel x every variant x the five Table 1 models) evaluated
 *  - serially (one runExperiment per cell, no cache),
 *  - pooled (SweepRunner on the hardware's threads, no cache).
 *
 * Cells use one profiled unit so an iteration stays benchmark-sized;
 * the relative speedups are what matters. The pooled pass also
 * verifies, once, that every cell's cycles-per-frame is bit-identical
 * to the serial pass (the sweep determinism contract; the full test
 * is in tests/test_sweep.cc).
 *
 * `--json [FILE]` switches to a single-shot measurement that writes a
 * machine-readable summary (default BENCH_sweep.json): cold and
 * disk-warm wall time, cells per second, and the disk hit rate. The
 * disk-warm pass uses a throwaway cache directory and a fresh
 * in-memory cache, so it measures exactly the persistent layer.
 * `--ledger [FILE]` additionally appends the same measurements as a
 * RunManifest to the run ledger (default obs::defaultLedgerPath()),
 * so `vvsp report`/`vvsp diff` see bench refreshes next to real runs
 * (the `bench-refresh` CMake target drives both flags together).
 */

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <string>

#include "arch/config_json.hh"
#include "arch/models.hh"
#include "core/disk_cache.hh"
#include "core/sweep.hh"
#include "obs/run_ledger.hh"

using namespace vvsp;

namespace
{

/** The full Table 1 grid, row major, one profiled unit per cell. */
const std::vector<ExperimentRequest> &
table1Grid()
{
    static const std::vector<ExperimentRequest> grid = [] {
        std::vector<ExperimentRequest> reqs;
        static const std::vector<DatapathConfig> models_list =
            models::table1Models();
        for (const KernelSpec &k : allKernels()) {
            for (const VariantSpec &v : k.variants) {
                for (const DatapathConfig &m : models_list) {
                    ExperimentRequest req;
                    req.kernel = &k;
                    req.variant = &v;
                    req.model = m;
                    req.profileUnits = 1;
                    reqs.push_back(req);
                }
            }
        }
        return reqs;
    }();
    return grid;
}

/** Serial reference results (computed once, reused for validation). */
const std::vector<ExperimentResult> &
serialResults()
{
    static const std::vector<ExperimentResult> results = [] {
        std::vector<ExperimentResult> res;
        for (const ExperimentRequest &req : table1Grid())
            res.push_back(runExperiment(req));
        return res;
    }();
    return results;
}

void
BM_Table1SweepSerial(benchmark::State &state)
{
    const auto &grid = table1Grid();
    for (auto _ : state) {
        for (const ExperimentRequest &req : grid)
            benchmark::DoNotOptimize(runExperiment(req));
    }
    state.counters["cells"] = static_cast<double>(grid.size());
}
BENCHMARK(BM_Table1SweepSerial)->Unit(benchmark::kMillisecond);

void
BM_Table1SweepPooled(benchmark::State &state)
{
    const auto &grid = table1Grid();
    SweepOptions opts;
    opts.useCache = false;
    SweepRunner runner(opts);
    std::vector<ExperimentResult> results;
    for (auto _ : state)
        results = runner.run(grid);

    // Bit-identity vs the serial path, checked once per process.
    const auto &serial = serialResults();
    for (size_t i = 0; i < grid.size(); ++i) {
        if (results[i].cyclesPerFrame != serial[i].cyclesPerFrame) {
            std::fprintf(stderr,
                         "pooled/serial mismatch in cell %zu\n", i);
            std::abort();
        }
    }
    state.counters["cells"] = static_cast<double>(grid.size());
    state.counters["threads"] =
        static_cast<double>(runner.threadCount());
}
BENCHMARK(BM_Table1SweepPooled)->Unit(benchmark::kMillisecond);

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Ledger manifest for one --json measurement (see file comment). */
bool
appendBenchManifest(const std::string &ledger_path, size_t cells,
                    int threads, double cold_s, double disk_s)
{
    obs::RunManifest m;
    m.unixTime = static_cast<int64_t>(std::time(nullptr));
    m.subcommand = "bench/sweep_throughput";
    for (const DatapathConfig &cfg : models::table1Models())
        m.machines.emplace_back(cfg.name, canonicalMachineKey(cfg));
    m.threads = threads;
    m.diskCache = false; // the disk-warm pass uses a throwaway dir.
    m.wallUs = static_cast<uint64_t>((cold_s + disk_s) * 1e6);
    double n = static_cast<double>(cells);
    m.metrics.emplace_back("cells", n);
    m.metrics.emplace_back("cold_wall_s", cold_s);
    m.metrics.emplace_back("cold_cells_per_s", n / cold_s);
    m.metrics.emplace_back("disk_warm_wall_s", disk_s);
    m.metrics.emplace_back("disk_warm_cells_per_s", n / disk_s);
    return obs::appendToLedger(ledger_path, m);
}

/** One-shot measurement for CI trend lines; see the file comment. */
int
runJsonMode(const std::string &out_path,
            const std::string &ledger_path)
{
    const auto &grid = table1Grid();
    const double cells = static_cast<double>(grid.size());

    // Cold: fresh in-memory cache, no disk.
    ExperimentCache cold_cache;
    SweepOptions opts;
    opts.cache = &cold_cache;
    SweepRunner runner(opts);
    auto t0 = std::chrono::steady_clock::now();
    runner.run(grid);
    double cold_s = secondsSince(t0);

    // Disk-warm: populate a throwaway directory, then rerun against
    // it with an empty in-memory cache.
    std::string dir =
        (std::filesystem::temp_directory_path() /
         ("vvsp-sweep-bench-" + std::to_string(::getpid())))
            .string();
    DiskCache disk(dir);
    {
        ExperimentCache fill;
        fill.setDiskCache(&disk);
        SweepOptions fopts;
        fopts.cache = &fill;
        SweepRunner(fopts).run(grid);
    }
    ExperimentCache disk_only;
    disk_only.setDiskCache(&disk);
    SweepOptions dopts;
    dopts.cache = &disk_only;
    SweepRunner disk_runner(dopts);
    t0 = std::chrono::steady_clock::now();
    disk_runner.run(grid);
    double disk_s = secondsSince(t0);
    ExperimentCacheStats disk_stats = disk_only.stats();
    std::filesystem::remove_all(dir);

    double disk_lookups = static_cast<double>(
        disk_stats.diskHits + disk_stats.diskMisses);
    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"cells\": %zu,\n"
        "  \"cold_wall_s\": %.6f,\n"
        "  \"cold_cells_per_s\": %.3f,\n"
        "  \"disk_warm_wall_s\": %.6f,\n"
        "  \"disk_warm_cells_per_s\": %.3f,\n"
        "  \"disk_hit_rate\": %.6f\n"
        "}\n",
        grid.size(), cold_s, cells / cold_s, disk_s, cells / disk_s,
        disk_lookups > 0 ? disk_stats.diskHits / disk_lookups : 0.0);
    std::fclose(f);
    std::printf("wrote %s (cold %.2fs, disk-warm %.2fs for %zu cells)\n",
                out_path.c_str(), cold_s, disk_s, grid.size());
    if (!ledger_path.empty()) {
        if (!appendBenchManifest(ledger_path, grid.size(),
                                 runner.threadCount(), cold_s,
                                 disk_s)) {
            std::fprintf(stderr, "cannot append to ledger %s\n",
                         ledger_path.c_str());
            return 1;
        }
        std::printf("appended bench manifest to %s\n",
                    ledger_path.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json_mode = false;
    bool ledger = false;
    std::string out = "BENCH_sweep.json";
    std::string ledger_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json_mode = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                out = argv[++i];
        } else if (std::strcmp(argv[i], "--ledger") == 0) {
            ledger = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                ledger_path = argv[++i];
        }
    }
    if (json_mode) {
        if (ledger && ledger_path.empty())
            ledger_path = obs::defaultLedgerPath();
        return runJsonMode(out, ledger_path);
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
