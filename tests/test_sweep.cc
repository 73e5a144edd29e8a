/**
 * @file
 * Sweep engine tests: thread-pool mechanics, cache bit-identity (a
 * cell evaluated twice through a disk cache returns the exact same
 * result, and the disk cache's counters prove the second evaluation
 * was a hit), the batch stages (cells of one variant lower its prefix
 * once, cells of one LoweringTarget share one lowering, cells with
 * one profile key interpret once), and determinism of the parallel
 * runner (the full Table 1 grid yields identical cycles-per-frame
 * and identical counters at 1 and N threads).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "arch/models.hh"
#include "core/disk_cache.hh"
#include "core/experiment_cache.hh"
#include "core/sweep.hh"
#include "obs/stats_registry.hh"

namespace vvsp
{
namespace
{

/** The full Table 1 grid, row major, one profiled unit per cell. */
std::vector<ExperimentRequest>
table1Grid()
{
    static const std::vector<DatapathConfig> models_list =
        models::table1Models();
    std::vector<ExperimentRequest> reqs;
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
}

/** Fresh cache directory, removed on destruction. */
struct TempDir
{
    TempDir()
    {
        static int seq = 0;
        path = (std::filesystem::temp_directory_path() /
                ("vvsp-sweep-test-" + std::to_string(::getpid()) +
                 "-" + std::to_string(seq++)))
                   .string();
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    std::string path;
};

/**
 * The global stats registry for the guard's lifetime. Declared
 * before a test's runners, so their pools join before it is removed.
 */
struct InstallStats
{
    explicit InstallStats(obs::StatsRegistry &stats)
    {
        obs::setGlobalStats(&stats);
    }
    ~InstallStats() { obs::setGlobalStats(nullptr); }
};

void
expectBitIdentical(const ExperimentResult &a, const ExperimentResult &b)
{
    EXPECT_EQ(a.kernel, b.kernel);
    EXPECT_EQ(a.variant, b.variant);
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.cyclesPerUnit, b.cyclesPerUnit);
    EXPECT_EQ(a.cyclesPerFrame, b.cyclesPerFrame);
    EXPECT_EQ(a.unitsPerFrame, b.unitsPerFrame);
    EXPECT_EQ(a.replication, b.replication);
    EXPECT_EQ(a.checked, b.checked);
    EXPECT_EQ(a.passed, b.passed);
    EXPECT_EQ(a.note, b.note);
    EXPECT_EQ(a.comp.cyclesPerUnit, b.comp.cyclesPerUnit);
    EXPECT_EQ(a.comp.hotLoopInstructions, b.comp.hotLoopInstructions);
    EXPECT_EQ(a.comp.maxLive, b.comp.maxLive);
    EXPECT_EQ(a.comp.icacheOk, b.comp.icacheOk);
    EXPECT_EQ(a.comp.registersOk, b.comp.registersOk);
    EXPECT_EQ(a.comp.opsPerUnit, b.comp.opsPerUnit);
    EXPECT_EQ(a.comp.codeWords, b.comp.codeWords);
    EXPECT_EQ(a.comp.codeBytes, b.comp.codeBytes);
    EXPECT_EQ(a.comp.nopSlots, b.comp.nopSlots);
    ASSERT_EQ(a.comp.regions.size(), b.comp.regions.size());
    for (size_t i = 0; i < a.comp.regions.size(); ++i) {
        const RegionCost &ra = a.comp.regions[i];
        const RegionCost &rb = b.comp.regions[i];
        EXPECT_EQ(ra.label, rb.label) << i;
        EXPECT_EQ(ra.execCount, rb.execCount) << i;
        EXPECT_EQ(ra.length, rb.length) << i;
        EXPECT_EQ(ra.ii, rb.ii) << i;
        EXPECT_EQ(ra.cycles, rb.cycles) << i;
        EXPECT_EQ(ra.instructions, rb.instructions) << i;
        EXPECT_EQ(ra.maxLive, rb.maxLive) << i;
    }
}

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4);

    std::atomic<int> done{0};
    for (int i = 0; i < 200; ++i)
        pool.submit([&done] { done.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(done.load(), 200);

    // The pool is reusable after a wait().
    for (int i = 0; i < 50; ++i)
        pool.submit([&done] { done.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(done.load(), 250);
}

TEST(ThreadPool, CurrentIsTheRunningWorkersPool)
{
    EXPECT_EQ(ThreadPool::current(), nullptr);
    ThreadPool pool(2);
    ThreadPool other(1);
    std::atomic<int> on_pool{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&pool, &on_pool] {
            if (ThreadPool::current() == &pool)
                on_pool.fetch_add(1);
        });
    }
    ThreadPool *seen = nullptr;
    other.submit([&seen] { seen = ThreadPool::current(); });
    pool.wait();
    other.wait();
    EXPECT_EQ(on_pool.load(), 8);
    EXPECT_EQ(seen, &other);

    // A pool-less group runs its tasks on the waiting caller, which
    // is on no pool.
    ThreadPool *in_group = &pool;
    TaskGroup group(nullptr);
    group.submit([&in_group] { in_group = ThreadPool::current(); });
    group.wait();
    EXPECT_EQ(in_group, nullptr);
    EXPECT_EQ(ThreadPool::current(), nullptr);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency)
{
    ThreadPool pool;
    EXPECT_EQ(pool.threadCount(), ThreadPool::hardwareThreads());
    EXPECT_GE(pool.threadCount(), 1);
}

TEST(ExperimentCacheTest, SecondEvaluationIsABitIdenticalHit)
{
    const KernelSpec &k = kernelByName("Full Motion Search");
    ExperimentRequest req;
    req.kernel = &k;
    req.variant = &k.variant("Blocking/Loop Exchange");
    req.model = models::byName("I4C8S4");
    req.profileUnits = 2;

    TempDir dir;
    DiskCache disk(dir.path);
    obs::StatsRegistry stats;
    InstallStats install(stats);
    SweepOptions opts;
    opts.disk = &disk;
    SweepRunner runner(opts);

    ExperimentResult first = runner.run({req})[0];
    EXPECT_EQ(stats.counterValue("disk_cache/hit"), 0u);
    EXPECT_EQ(stats.counterValue("disk_cache/miss"), 1u);
    EXPECT_EQ(stats.counterValue("disk_cache/store"), 1u);
    EXPECT_EQ(stats.counterValue("stage/interp/requests"), 1u);
    EXPECT_EQ(stats.counterValue("stage/interp/unique"), 1u);

    // The second run is served by the disk entry before any work,
    // so no stage after the lookup runs.
    ExperimentResult second = runner.run({req})[0];
    EXPECT_EQ(stats.counterValue("disk_cache/hit"), 1u);
    EXPECT_EQ(stats.counterValue("disk_cache/miss"), 1u);
    EXPECT_EQ(stats.counterValue("disk_cache/store"), 1u);

    // The stage counters, summed over both batches.
    EXPECT_EQ(stats.counterValue("stage/prefix/requests"), 1u);
    EXPECT_EQ(stats.counterValue("stage/interp/requests"), 1u);
    EXPECT_EQ(stats.counterValue("stage/interp/unique"), 1u);
    EXPECT_EQ(stats.counterValue("phase/interp_sim/runs"), 1u);

    EXPECT_TRUE(first.passed);
    expectBitIdentical(first, second);

    // And the cached result is bit-identical to an uncached serial
    // evaluation of the same cell.
    expectBitIdentical(first, runExperiment(req));
}

TEST(ExperimentCacheTest, KeysOnContentNotOnModelName)
{
    const KernelSpec &k = kernelByName("DCT - row/column");
    ExperimentRequest req;
    req.kernel = &k;
    req.variant = &k.variant("List Scheduled");
    req.model = models::byName("I2C16S4");
    req.profileUnits = 1;

    TempDir dir;
    DiskCache disk(dir.path);
    obs::StatsRegistry stats;
    InstallStats install(stats);
    SweepOptions opts;
    opts.disk = &disk;
    SweepRunner runner(opts);
    ExperimentResult first = runner.run({req})[0];

    // Same architecture under a different display name: a disk hit,
    // with only the name patched.
    ExperimentRequest renamed = req;
    renamed.model.name = "I2C16S4 (copy)";
    ExperimentResult second = runner.run({renamed})[0];
    EXPECT_EQ(stats.counterValue("disk_cache/hit"), 1u);
    EXPECT_EQ(second.model, "I2C16S4 (copy)");
    second.model = first.model;
    expectBitIdentical(first, second);

    // A real architectural change misses.
    ExperimentRequest changed = req;
    changed.model.cluster.registers *= 2;
    runner.run({changed});
    EXPECT_EQ(stats.counterValue("disk_cache/hit"), 1u);
    EXPECT_EQ(stats.counterValue("disk_cache/miss"), 2u);
    EXPECT_EQ(stats.counterValue("disk_cache/store"), 2u);
}

TEST(ExperimentCacheTest, ProfileMemoServesRepeatsWithoutADisk)
{
    // With no disk attached (--no-disk-cache) a batch still shares
    // its stages: a cell repeated within one batch is composed again
    // but reuses the first copy's interpreter run, and matches an
    // uncached run bit for bit.
    const KernelSpec &k = kernelByName("Full Motion Search");
    ExperimentRequest req;
    req.kernel = &k;
    req.variant = &k.variant("Blocking/Loop Exchange");
    req.model = models::byName("I4C8S4");
    req.profileUnits = 2;

    obs::StatsRegistry stats;
    InstallStats install(stats);
    SweepRunner runner;

    std::vector<ExperimentResult> both = runner.run({req, req});
    ASSERT_EQ(both.size(), 2u);
    EXPECT_EQ(stats.counterValue("disk_cache/hit") +
                  stats.counterValue("disk_cache/miss") +
                  stats.counterValue("disk_cache/store"),
              0u);
    EXPECT_EQ(stats.counterValue("stage/prefix/requests"), 2u);
    EXPECT_EQ(stats.counterValue("stage/prefix/unique"), 1u);
    EXPECT_EQ(stats.counterValue("stage/interp/requests"), 2u);
    EXPECT_EQ(stats.counterValue("stage/interp/unique"), 1u);
    EXPECT_EQ(stats.counterValue("phase/interp_sim/runs"), 1u);
    EXPECT_EQ(stats.counterValue("phase/compose/runs"), 2u);

    EXPECT_TRUE(both[0].passed);
    expectBitIdentical(both[0], both[1]);
    expectBitIdentical(both[0], runExperiment(req));
}

TEST(ExperimentCacheTest, ProfileMemoUnderContention)
{
    // Four threads look up and store one shared key and one key of
    // their own, over and over. The first store of the shared key
    // wins (every later read sees it), and every lookup is counted
    // exactly once as a hit or a miss.
    ExperimentCache cache;
    constexpr int kThreads = 4, kRounds = 200;
    std::vector<std::vector<std::string>> seen(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, &seen, t] {
            const std::string mine = "thread-" + std::to_string(t);
            UnitProfileEntry entry;
            entry.note = mine;
            for (int r = 0; r < kRounds; ++r) {
                UnitProfileEntry got;
                if (!cache.findProfile("shared", got))
                    cache.storeProfile("shared", entry);
                if (!cache.findProfile(mine, got))
                    cache.storeProfile(mine, entry);
                ASSERT_TRUE(cache.findProfile("shared", got));
                seen[static_cast<size_t>(t)].push_back(got.note);
                ASSERT_TRUE(cache.findProfile(mine, got));
                EXPECT_EQ(got.note, mine);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    const std::string winner = seen[0].front();
    EXPECT_EQ(winner.rfind("thread-", 0), 0u) << winner;
    for (const auto &notes : seen) {
        for (const std::string &note : notes)
            EXPECT_EQ(note, winner);
    }
    ExperimentCacheStats s = cache.stats();
    EXPECT_EQ(s.profileHits + s.profileMisses,
              uint64_t{4} * kThreads * kRounds);
    // Each thread misses its own key once; the shared key misses at
    // least once and at most once per thread.
    EXPECT_GE(s.profileMisses, uint64_t{kThreads} + 1);
    EXPECT_LE(s.profileMisses, uint64_t{2} * kThreads);
}

TEST(SweepRunnerTest, SameKeyCellsInterpretOnce)
{
    // Sixteen copies of one cell plus its issue-width twin, whose
    // lowering is the same, on eight workers: one prefix and one
    // interpreter run serve all seventeen, whichever cell claims the
    // profile key first, and the waiting cells reuse its outcome.
    const KernelSpec &k =
        kernelByName("RGB:YCrCb converter/subsampler");
    ExperimentRequest req;
    req.kernel = &k;
    req.variant = &k.variant("Sequential");
    req.model = models::byName("I4C8S4");
    req.geometry = FrameGeometry{48, 32};
    req.profileUnits = 1;
    ExperimentRequest twin = req;
    twin.model.name = "I4C8S4-wide";
    twin.model.cluster.issueSlots += 1;
    twin.model.cluster.regFilePorts += 3;

    std::vector<ExperimentRequest> batch(16, req);
    batch.push_back(twin);
    obs::StatsRegistry stats;
    InstallStats install(stats);
    SweepOptions opts;
    opts.threads = 8;
    std::vector<ExperimentResult> results = SweepRunner(opts).run(batch);

    EXPECT_EQ(stats.counterValue("stage/prefix/requests"), 17u);
    EXPECT_EQ(stats.counterValue("stage/prefix/unique"), 1u);
    EXPECT_EQ(stats.counterValue("stage/interp/requests"), 17u);
    EXPECT_EQ(stats.counterValue("stage/interp/unique"), 1u);
    EXPECT_EQ(stats.counterValue("phase/lowering_prefix/runs"), 1u);
    EXPECT_EQ(stats.counterValue("phase/interp_sim/runs"), 1u);
    EXPECT_EQ(stats.counterValue("phase/compose/runs"), 17u);

    ASSERT_EQ(results.size(), 17u);
    const ExperimentResult alone = runExperiment(req);
    EXPECT_TRUE(alone.passed) << alone.note;
    for (size_t i = 0; i < 16; ++i)
        expectBitIdentical(results[i], alone);
    expectBitIdentical(results[16], runExperiment(twin));
}

TEST(SweepRunnerTest, TargetsShareOneLoweringAcrossThreads)
{
    // Sixteen copies of one cell over four machines: three share a
    // LoweringTarget (the base model, its +AD and +2LS forms differ
    // only in units lowering does not read), the fourth folds address
    // adds. On eight workers one prefix and two lowerings serve all
    // sixteen, and each cell equals its serial evaluation.
    const KernelSpec &k =
        kernelByName("RGB:YCrCb converter/subsampler");
    const DatapathConfig base = models::byName("I4C8S4");
    const std::vector<DatapathConfig> machines{
        base, models::withAbsDiff(base),
        models::withDualLoadStore(base), models::byName("I4C8S5")};
    std::vector<ExperimentRequest> batch;
    for (size_t i = 0; i < 16; ++i) {
        ExperimentRequest req;
        req.kernel = &k;
        req.variant = &k.variant("List-scheduled");
        req.model = machines[i % machines.size()];
        req.geometry = FrameGeometry{48, 32};
        req.profileUnits = 1;
        batch.push_back(req);
    }
    obs::StatsRegistry stats;
    InstallStats install(stats);
    SweepOptions opts;
    opts.threads = 8;
    std::vector<ExperimentResult> results = SweepRunner(opts).run(batch);

    EXPECT_EQ(stats.counterValue("stage/prefix/requests"), 16u);
    EXPECT_EQ(stats.counterValue("stage/prefix/unique"), 1u);
    EXPECT_EQ(stats.counterValue("stage/lower/requests"), 16u);
    EXPECT_EQ(stats.counterValue("stage/lower/unique"), 2u);
    EXPECT_EQ(stats.counterValue("phase/lowering_prefix/runs"), 1u);
    EXPECT_EQ(stats.counterValue("phase/lowering/runs"), 2u);
    EXPECT_EQ(stats.counterValue("phase/compose/runs"), 16u);

    ASSERT_EQ(results.size(), batch.size());
    std::vector<ExperimentResult> alone;
    for (size_t m = 0; m < machines.size(); ++m)
        alone.push_back(runExperiment(batch[m]));
    for (size_t i = 0; i < batch.size(); ++i) {
        SCOPED_TRACE(batch[i].model.name);
        EXPECT_TRUE(results[i].passed) << results[i].note;
        expectBitIdentical(results[i], alone[i % machines.size()]);
    }
}

/** Counters that must not depend on the thread count: all but *_us. */
std::map<std::string, uint64_t>
countersWithoutWallTime(const obs::StatsRegistry &stats)
{
    std::map<std::string, uint64_t> out;
    for (const auto &[path, value] : stats.counters()) {
        if (path.size() < 3 ||
            path.compare(path.size() - 3, 3, "_us") != 0)
            out.emplace(path, value);
    }
    return out;
}

TEST(SweepRunnerTest, Table1GridIsDeterministicAcrossThreadCounts)
{
    std::vector<ExperimentRequest> grid = table1Grid();
    ASSERT_GE(grid.size(), 100u);

    // Both runs go without a disk, as `--no-disk-cache` does, each
    // recording into its own registry.
    auto runWith = [&grid](int threads, obs::StatsRegistry &stats) {
        InstallStats install(stats);
        SweepOptions opts;
        opts.threads = threads;
        return SweepRunner(opts).run(grid);
    };
    obs::StatsRegistry serial_stats, pooled_stats;
    std::vector<ExperimentResult> base = runWith(1, serial_stats);
    std::vector<ExperimentResult> par = runWith(8, pooled_stats);

    // The same work runs at any thread count: one prefix per
    // (kernel, variant), one lowering per (variant, LoweringTarget),
    // one interpreter run per profile key.
    for (const obs::StatsRegistry *stats :
         {&serial_stats, &pooled_stats}) {
        EXPECT_EQ(stats->counterValue("stage/prefix/requests"), 180u);
        EXPECT_EQ(stats->counterValue("stage/prefix/unique"), 36u);
        EXPECT_EQ(stats->counterValue("stage/lower/requests"), 180u);
        EXPECT_EQ(stats->counterValue("stage/lower/unique"), 112u);
        EXPECT_EQ(stats->counterValue("phase/lowering/runs"), 112u);
        EXPECT_EQ(stats->counterValue("stage/interp/requests"), 180u);
        EXPECT_EQ(stats->counterValue("stage/interp/unique"), 101u);
        EXPECT_EQ(stats->counterValue("phase/interp_sim/runs"), 101u);
    }
    EXPECT_EQ(countersWithoutWallTime(serial_stats),
              countersWithoutWallTime(pooled_stats));

    ASSERT_EQ(base.size(), grid.size());
    ASSERT_EQ(par.size(), grid.size());
    for (size_t i = 0; i < grid.size(); ++i) {
        // Results arrive in request order whatever the thread count,
        // and each cell is bit-identical to the 1-thread run.
        EXPECT_EQ(base[i].kernel, grid[i].kernel->name) << i;
        EXPECT_EQ(base[i].model, grid[i].model.name) << i;
        EXPECT_EQ(par[i].cyclesPerFrame, base[i].cyclesPerFrame)
            << i << ": " << base[i].kernel << "/" << base[i].variant
            << "/" << base[i].model;
        EXPECT_EQ(par[i].cyclesPerUnit, base[i].cyclesPerUnit) << i;
        EXPECT_EQ(par[i].passed, base[i].passed) << i;
        EXPECT_EQ(par[i].model, base[i].model) << i;
    }
}

} // namespace
} // namespace vvsp
