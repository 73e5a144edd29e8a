/**
 * @file
 * Persistent experiment cache: round trips, robustness against
 * corrupt/truncated/mismatched entries (all must degrade to misses,
 * never crashes or wrong results), atomicity under concurrent
 * writers, and equality of disk-cached and cold evaluations.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/models.hh"
#include "core/disk_cache.hh"
#include "core/experiment_cache.hh"
#include "core/sweep.hh"
#include "obs/stats_registry.hh"

using namespace vvsp;

namespace
{

/** Fresh cache directory, removed on destruction. */
struct TempDir
{
    TempDir()
    {
        static int seq = 0;
        path = (std::filesystem::temp_directory_path() /
                ("vvsp-disk-cache-test-" +
                 std::to_string(::getpid()) + "-" +
                 std::to_string(seq++)))
                   .string();
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    std::string path;
};

ExperimentResult
sampleResult(double salt = 0.0)
{
    ExperimentResult res;
    res.kernel = "Full Motion Search";
    res.variant = "Add spec. op (blocked)";
    res.model = "I4C8S4";
    res.note = "line1\nline2 \"quoted\"";
    res.cyclesPerUnit = 123.456 + salt;
    res.cyclesPerFrame = 1.65e6 + salt;
    res.unitsPerFrame = 1350;
    res.replication = 2;
    res.checked = true;
    res.passed = true;
    res.comp.cyclesPerUnit = 123.456 + salt;
    res.comp.hotLoopInstructions = 64;
    res.comp.maxLive = 19;
    res.comp.icacheOk = true;
    res.comp.registersOk = false;
    res.comp.opsPerUnit = 4242.5;
    res.comp.codeWords = 321;
    res.comp.codeBytes = 5150;
    res.comp.nopSlots = 8899;
    RegionCost r;
    r.label = "y loop";
    r.execCount = 16.0;
    r.length = 12;
    r.ii = 3;
    r.cycles = 99.5 + salt;
    r.instructions = 40;
    r.maxLive = 17;
    r.codeBytes = 640;
    r.nopSlots = 280;
    res.comp.regions = {r, r};
    return res;
}

void
expectEqual(const ExperimentResult &a, const ExperimentResult &b)
{
    EXPECT_EQ(a.kernel, b.kernel);
    EXPECT_EQ(a.variant, b.variant);
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.note, b.note);
    EXPECT_EQ(a.cyclesPerUnit, b.cyclesPerUnit);
    EXPECT_EQ(a.cyclesPerFrame, b.cyclesPerFrame);
    EXPECT_EQ(a.unitsPerFrame, b.unitsPerFrame);
    EXPECT_EQ(a.replication, b.replication);
    EXPECT_EQ(a.checked, b.checked);
    EXPECT_EQ(a.passed, b.passed);
    EXPECT_EQ(a.comp.cyclesPerUnit, b.comp.cyclesPerUnit);
    EXPECT_EQ(a.comp.hotLoopInstructions,
              b.comp.hotLoopInstructions);
    EXPECT_EQ(a.comp.maxLive, b.comp.maxLive);
    EXPECT_EQ(a.comp.icacheOk, b.comp.icacheOk);
    EXPECT_EQ(a.comp.registersOk, b.comp.registersOk);
    EXPECT_EQ(a.comp.opsPerUnit, b.comp.opsPerUnit);
    EXPECT_EQ(a.comp.codeWords, b.comp.codeWords);
    EXPECT_EQ(a.comp.codeBytes, b.comp.codeBytes);
    EXPECT_EQ(a.comp.nopSlots, b.comp.nopSlots);
    ASSERT_EQ(a.comp.regions.size(), b.comp.regions.size());
    for (size_t i = 0; i < a.comp.regions.size(); ++i) {
        EXPECT_EQ(a.comp.regions[i].label, b.comp.regions[i].label);
        EXPECT_EQ(a.comp.regions[i].execCount,
                  b.comp.regions[i].execCount);
        EXPECT_EQ(a.comp.regions[i].length, b.comp.regions[i].length);
        EXPECT_EQ(a.comp.regions[i].ii, b.comp.regions[i].ii);
        EXPECT_EQ(a.comp.regions[i].cycles, b.comp.regions[i].cycles);
        EXPECT_EQ(a.comp.regions[i].instructions,
                  b.comp.regions[i].instructions);
        EXPECT_EQ(a.comp.regions[i].maxLive,
                  b.comp.regions[i].maxLive);
        EXPECT_EQ(a.comp.regions[i].codeBytes,
                  b.comp.regions[i].codeBytes);
        EXPECT_EQ(a.comp.regions[i].nopSlots,
                  b.comp.regions[i].nopSlots);
    }
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

void
writeFile(const std::string &path, const std::string &body)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << body;
}

TEST(DiskCache, RoundTripIsBitIdentical)
{
    TempDir dir;
    DiskCache disk(dir.path);
    ExperimentResult in = sampleResult();
    ASSERT_TRUE(disk.store("key-a", in));

    ExperimentResult out;
    ASSERT_TRUE(disk.load("key-a", out));
    expectEqual(in, out);
    EXPECT_FALSE(disk.load("key-never-stored", out));
}

TEST(DiskCache, KeyEchoRejectsHashCollision)
{
    TempDir dir;
    DiskCache disk(dir.path);
    ASSERT_TRUE(disk.store("key-a", sampleResult()));

    // Simulate another key hashing to the same file: the entry's
    // embedded key no longer matches, so it must read as a miss.
    std::filesystem::rename(disk.entryPath("key-a"),
                            disk.entryPath("key-b"));
    ExperimentResult out;
    EXPECT_FALSE(disk.load("key-b", out));
}

TEST(DiskCache, CorruptEntryIsAMiss)
{
    TempDir dir;
    DiskCache disk(dir.path);
    ASSERT_TRUE(disk.store("key-a", sampleResult()));
    std::string path = disk.entryPath("key-a");

    writeFile(path, "not an entry at all\n\x01\x02\x03");
    ExperimentResult out;
    EXPECT_FALSE(disk.load("key-a", out));

    // A corrupt entry must not poison the slot: a rewrite heals it.
    ASSERT_TRUE(disk.store("key-a", sampleResult()));
    EXPECT_TRUE(disk.load("key-a", out));
}

TEST(DiskCache, TruncatedEntryIsAMiss)
{
    TempDir dir;
    DiskCache disk(dir.path);
    ASSERT_TRUE(disk.store("key-a", sampleResult()));
    std::string path = disk.entryPath("key-a");
    std::string body = readFile(path);
    ASSERT_GT(body.size(), 8u);

    // Every prefix must fail cleanly (the "end" trailer is the last
    // line, so any cut loses it).
    for (size_t cut : {body.size() - 4, body.size() / 2, size_t{10}}) {
        writeFile(path, body.substr(0, cut));
        ExperimentResult out;
        EXPECT_FALSE(disk.load("key-a", out)) << "cut=" << cut;
    }
}

TEST(DiskCache, VersionMismatchIsAMiss)
{
    TempDir dir;
    DiskCache disk(dir.path);
    ASSERT_TRUE(disk.store("key-a", sampleResult()));
    std::string path = disk.entryPath("key-a");
    std::string body = readFile(path);

    // Bump the version in the header line; the payload stays valid.
    size_t nl = body.find('\n');
    ASSERT_NE(nl, std::string::npos);
    writeFile(path, "vvsp-experiment-cache 9999" + body.substr(nl));
    ExperimentResult out;
    EXPECT_FALSE(disk.load("key-a", out));

    writeFile(path, "other-magic 1" + body.substr(nl));
    EXPECT_FALSE(disk.load("key-a", out));
}

TEST(DiskCache, ConcurrentWritersStayAtomic)
{
    TempDir dir;
    DiskCache disk(dir.path);

    // Hammer one entry from many threads with distinguishable
    // payloads. Atomic rename publication means a concurrent load
    // sees either nothing or one complete entry - never a blend.
    constexpr int kWriters = 8;
    constexpr int kRounds = 25;
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
        threads.emplace_back([&disk, w] {
            for (int i = 0; i < kRounds; ++i)
                disk.store("shared-key", sampleResult(w));
        });
    }
    std::atomic<bool> stop{false};
    std::thread reader([&disk, &stop] {
        ExperimentResult out;
        while (!stop.load()) {
            if (disk.load("shared-key", out)) {
                // A complete entry from exactly one writer.
                double salt =
                    std::round(out.cyclesPerUnit - 123.456);
                EXPECT_EQ(out.cyclesPerFrame, 1.65e6 + salt);
                EXPECT_EQ(out.comp.regions.size(), 2u);
            }
        }
    });
    for (auto &t : threads)
        t.join();
    stop.store(true);
    reader.join();

    ExperimentResult out;
    ASSERT_TRUE(disk.load("shared-key", out));
    // Whichever writer renamed last owns the entry; recover its id
    // exactly (123.456 + w - 123.456 is not w in doubles).
    double salt = std::round(out.cyclesPerUnit - 123.456);
    expectEqual(sampleResult(salt), out);

    // No leaked temp files once every writer has renamed or cleaned.
    for (const auto &e :
         std::filesystem::directory_iterator(dir.path)) {
        EXPECT_EQ(e.path().extension(), ".entry")
            << e.path().string();
    }
}

TEST(DiskCache, MultiProcessEntryWritersNeverTear)
{
    // One result entry under real multi-process contention, the
    // scenario several vvsp invocations sharing one cache directory
    // hit: forked writers hammer a single key while the parent
    // reads. Atomic rename publication means every read is a Miss or
    // one writer's complete entry - never a blend of two.
    TempDir dir;

    constexpr int kWriters = 8;
    constexpr int kRounds = 25;
    std::vector<pid_t> children;
    for (int w = 0; w < kWriters; ++w) {
        pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            DiskCache disk(dir.path);
            for (int i = 0; i < kRounds; ++i) {
                if (!disk.store("shared-key", sampleResult(w + 1)))
                    _exit(1);
            }
            _exit(0);
        }
        children.push_back(pid);
    }

    DiskCache disk(dir.path);
    // A complete entry from exactly one writer: every salted field
    // carries the same writer id.
    auto checkEntry = [&](const ExperimentResult &out) {
        double salt = std::round(out.cyclesPerUnit - 123.456);
        EXPECT_GE(salt, 1);
        EXPECT_LE(salt, kWriters);
        expectEqual(sampleResult(salt), out);
    };
    // Read concurrently while the children are still writing.
    for (int i = 0; i < 200; ++i) {
        ExperimentResult out;
        DiskLoadOutcome outcome =
            disk.loadClassified("shared-key", out);
        if (outcome == DiskLoadOutcome::Hit)
            checkEntry(out);
        else
            EXPECT_EQ(outcome, DiskLoadOutcome::Miss);
    }

    for (pid_t pid : children) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    ExperimentResult out;
    ASSERT_EQ(disk.loadClassified("shared-key", out),
              DiskLoadOutcome::Hit);
    checkEntry(out);

    // No leaked temp files once every writer has renamed or cleaned.
    for (const auto &e :
         std::filesystem::directory_iterator(dir.path)) {
        EXPECT_EQ(e.path().extension(), ".entry")
            << e.path().string();
    }
}

TEST(DiskCache, ExperimentCacheFallsBackToRecompute)
{
    // Disk holds a corrupt entry for a cell's key: the lookup misses
    // as corrupt, the caller recomputes, then the store heals the
    // entry. A later run under another display name hits, with the
    // name patched to the requester's.
    const KernelSpec &k = kernelByName("Three-step Search");
    ExperimentRequest req;
    req.kernel = &k;
    req.variant = &k.variants.front();
    req.model = models::i4c8s4();
    req.profileUnits = 1;

    TempDir dir;
    DiskCache disk(dir.path);
    writeFile(disk.entryPath(ExperimentCache::resultKey(
                  req, variantConfig(*req.variant, req.model))),
              "garbage");

    obs::StatsRegistry stats;
    obs::StatsRegistry *prev = obs::globalStats();
    obs::setGlobalStats(&stats);
    const ExperimentResult cold = runExperiment(req, &disk);
    const uint64_t corrupt = stats.counterValue("disk_cache/corrupt");
    const uint64_t stores = stats.counterValue("disk_cache/store");
    ExperimentRequest renamed = req;
    renamed.model.name = "RENAMED";
    const ExperimentResult warm = runExperiment(renamed, &disk);
    obs::setGlobalStats(prev);

    EXPECT_EQ(corrupt, 1u);
    EXPECT_EQ(stores, 1u);
    EXPECT_EQ(stats.counterValue("disk_cache/hit"), 1u);
    EXPECT_EQ(warm.model, "RENAMED"); // display name patched.
    EXPECT_EQ(warm.cyclesPerFrame, cold.cyclesPerFrame);
}

TEST(DiskCache, DiskWarmGridMatchesColdBitExactly)
{
    // A small (variant x model) grid evaluated cold, then re-read
    // through a fresh cache backed by the populated disk directory:
    // every cell must be bit-identical.
    const KernelSpec &k = kernelByName("Three-step Search");
    std::vector<ExperimentRequest> grid;
    for (size_t vi = 0; vi < k.variants.size() && vi < 2; ++vi) {
        for (const char *name : {"I4C8S4", "I2C16S4"}) {
            ExperimentRequest req;
            req.kernel = &k;
            req.variant = &k.variants[vi];
            req.model = models::byName(name);
            req.profileUnits = 1;
            grid.push_back(req);
        }
    }

    std::vector<ExperimentResult> cold;
    for (const ExperimentRequest &req : grid)
        cold.push_back(runExperiment(req));

    TempDir dir;
    DiskCache disk(dir.path);
    for (const ExperimentRequest &req : grid)
        runExperiment(req, &disk);
    // The fill leaves exactly one entry per cell and nothing else.
    size_t files = 0;
    for (const auto &e :
         std::filesystem::directory_iterator(dir.path)) {
        EXPECT_EQ(e.path().extension(), ".entry")
            << e.path().string();
        ++files;
    }
    EXPECT_EQ(files, grid.size());

    obs::StatsRegistry stats;
    obs::StatsRegistry *prev = obs::globalStats();
    obs::setGlobalStats(&stats);
    std::vector<ExperimentResult> warm;
    for (const ExperimentRequest &req : grid)
        warm.push_back(runExperiment(req, &disk));
    obs::setGlobalStats(prev);
    for (size_t i = 0; i < grid.size(); ++i)
        expectEqual(cold[i], warm[i]);
    EXPECT_EQ(stats.counterValue("disk_cache/hit"), grid.size());
    EXPECT_EQ(stats.counterValue("disk_cache/miss"), 0u);
    EXPECT_EQ(stats.counterValue("disk_cache/corrupt"), 0u);
    EXPECT_EQ(stats.counterValue("disk_cache/collision"), 0u);
}

TEST(DiskCache, WarmHitSkipsLoweringProfilingAndCompose)
{
    // runExperiment looks the result entry up before any work: a
    // warm cell lowers, interprets and schedules nothing, and still
    // matches the cold run bit for bit.
    const KernelSpec &k = kernelByName("Three-step Search");
    ExperimentRequest req;
    req.kernel = &k;
    req.variant = &k.variants.front();
    req.model = models::i4c8s4();
    req.profileUnits = 1;

    TempDir dir;
    DiskCache disk(dir.path);
    obs::StatsRegistry stats;
    obs::StatsRegistry *prev = obs::globalStats();
    obs::setGlobalStats(&stats);

    ExperimentResult cold = runExperiment(req, &disk);
    EXPECT_EQ(stats.counterValue("phase/lowering/runs"), 1u);
    EXPECT_EQ(stats.counterValue("phase/compose/runs"), 1u);
    EXPECT_GT(stats.counterValue("isa/sections"), 0u);

    stats.clear();
    ExperimentResult res = runExperiment(req, &disk);
    obs::setGlobalStats(prev);

    expectEqual(cold, res);
    // The disk lookup is the only layer that recorded anything,
    // beside the batch's count and wall time of its one cell.
    EXPECT_EQ(stats.counterValue("disk_cache/hit"), 1u);
    EXPECT_EQ(stats.counterValue("sweep/cells"), 1u);
    auto recorded_by_lookup = [](const std::string &path) {
        return path.rfind("disk_cache/", 0) == 0 ||
               path.rfind("sweep/", 0) == 0;
    };
    for (const auto &[path, value] : stats.counters())
        EXPECT_TRUE(recorded_by_lookup(path)) << path;
    for (const auto &[path, value] : stats.distributions())
        EXPECT_TRUE(recorded_by_lookup(path)) << path;
}

TEST(DiskCache, DamagedEntryIsRecomputedAndHealed)
{
    // A cell whose entry was torn on disk: the next run classifies
    // it as a miss, recomputes the cell bit-identically to an
    // uncached run and publishes a fresh entry the run after hits.
    const KernelSpec &k = kernelByName("Three-step Search");
    ExperimentRequest req;
    req.kernel = &k;
    req.variant = &k.variants.front();
    req.model = models::i4c8s4();
    req.profileUnits = 1;
    ExperimentResult cold = runExperiment(req);

    TempDir dir;
    DiskCache disk(dir.path);
    runExperiment(req, &disk);
    std::vector<std::filesystem::path> entries;
    for (const auto &e :
         std::filesystem::directory_iterator(dir.path))
        entries.push_back(e.path());
    ASSERT_EQ(entries.size(), 1u);
    std::string body = readFile(entries[0].string());
    writeFile(entries[0].string(), body.substr(0, body.size() / 2));

    obs::StatsRegistry stats;
    obs::StatsRegistry *prev = obs::globalStats();
    obs::setGlobalStats(&stats);
    const ExperimentResult recomputed = runExperiment(req, &disk);
    const uint64_t hits = stats.counterValue("disk_cache/hit");
    const uint64_t corrupt = stats.counterValue("disk_cache/corrupt");
    const uint64_t stores = stats.counterValue("disk_cache/store");
    const std::string healed = readFile(entries[0].string());
    const ExperimentResult warm = runExperiment(req, &disk);
    obs::setGlobalStats(prev);

    expectEqual(cold, recomputed);
    EXPECT_EQ(hits, 0u);
    EXPECT_EQ(corrupt, 1u); // the torn entry misses as corrupt.
    EXPECT_EQ(stores, 1u);
    EXPECT_EQ(healed, body);

    expectEqual(cold, warm);
    EXPECT_EQ(stats.counterValue("disk_cache/hit"), 1u);
}

} // namespace
