/**
 * @file
 * Run-ledger tests: manifest JSONL round-trip through the strict
 * parser, the stats snapshot capturing phase timers with quantiles,
 * append atomicity under concurrent multi-process and multi-thread
 * writers (the flock + single-write discipline must never tear a
 * line), malformed-line
 * tolerance, the diffManifests regression rules, and - when built
 * with VVSP_CLI_PATH - the `vvsp sweep --ledger` / `vvsp diff`
 * acceptance loop end to end, including a synthetic 2x
 * phase/modulo_sched slowdown that must flip the exit status.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/models.hh"
#include "core/sweep.hh"
#include "obs/run_ledger.hh"
#include "obs/stats_registry.hh"
#include "support/json.hh"

namespace vvsp
{
namespace
{

std::string
tempPath(const std::string &stem)
{
    return (std::filesystem::temp_directory_path() /
            (stem + "-" + std::to_string(::getpid())))
        .string();
}

obs::RunManifest
sampleManifest()
{
    obs::RunManifest m;
    m.unixTime = 1700000000;
    m.subcommand = "sweep";
    m.machines.emplace_back("I4C8S4", "{ \"clusters\": 8 }");
    m.machines.emplace_back("quote\"name", "key\\with\\slashes");
    m.threads = 4;
    m.diskCache = false;
    m.cacheDir = "";
    m.wallUs = 123456;
    m.metrics.emplace_back("wall_s", 0.123456);
    m.metrics.emplace_back("cells_per_s", 85.25);
    m.counters.emplace_back("sweep/cells", 4);
    m.counters.emplace_back("sched/list_runs", 12);
    obs::DistSummary d;
    d.path = "phase/modulo_sched/wall_us";
    d.count = 3;
    d.sum = 4500;
    d.min = 1000;
    d.max = 2000;
    d.p50 = 1500.0;
    d.p90 = 1900.0;
    d.p99 = 1990.0;
    m.distributions.push_back(d);
    return m;
}

TEST(RunLedger, ManifestJsonRoundTrip)
{
    obs::RunManifest m = sampleManifest();
    std::string line = obs::manifestJsonLine(m);
    EXPECT_EQ(line.find('\n'), std::string::npos)
        << "a manifest must be one JSONL line";

    json::Value v;
    std::string error;
    ASSERT_TRUE(json::parse(line, v, error)) << error;
    obs::RunManifest back;
    ASSERT_TRUE(obs::parseManifest(v, back, error)) << error;

    EXPECT_EQ(back.schema, obs::RunManifest::kSchema);
    EXPECT_EQ(back.unixTime, m.unixTime);
    EXPECT_EQ(back.subcommand, m.subcommand);
    EXPECT_EQ(back.machines, m.machines);
    EXPECT_EQ(back.threads, m.threads);
    EXPECT_EQ(back.diskCache, m.diskCache);
    EXPECT_EQ(back.wallUs, m.wallUs);
    EXPECT_EQ(back.counters, m.counters);
    ASSERT_EQ(back.metrics.size(), m.metrics.size());
    for (size_t i = 0; i < m.metrics.size(); ++i) {
        EXPECT_EQ(back.metrics[i].first, m.metrics[i].first);
        EXPECT_DOUBLE_EQ(back.metrics[i].second,
                         m.metrics[i].second);
    }
    ASSERT_EQ(back.distributions.size(), 1u);
    const obs::DistSummary &d = back.distributions[0];
    EXPECT_EQ(d.path, "phase/modulo_sched/wall_us");
    EXPECT_EQ(d.count, 3u);
    EXPECT_EQ(d.sum, 4500u);
    EXPECT_DOUBLE_EQ(d.p99, 1990.0);

    EXPECT_DOUBLE_EQ(obs::manifestMetric(m, "cells_per_s"), 85.25);
    EXPECT_DOUBLE_EQ(obs::manifestMetric(m, "absent", -1.0), -1.0);
}

TEST(RunLedger, SnapshotCapturesPhaseTimersWithQuantiles)
{
    // A real (tiny) sweep with a stats registry installed: the
    // snapshot must carry the timedPhase distributions - this is the
    // --stats=json / ledger surface for the pipeline phase timers.
    const KernelSpec &k =
        kernelByName("RGB:YCrCb converter/subsampler");
    std::vector<ExperimentRequest> requests;
    ExperimentRequest req;
    req.kernel = &k;
    req.variant = &k.variants.front();
    req.model = models::byName("I4C8S4");
    req.profileUnits = 1;
    requests.push_back(req);

    obs::StatsRegistry reg;
    SweepOptions sopts;
    sopts.threads = 1;
    obs::setGlobalStats(&reg);
    SweepRunner(sopts).run(requests);
    obs::setGlobalStats(nullptr);

    obs::RunManifest m;
    obs::snapshotStats(reg, m);
    bool saw_lowering = false;
    for (const obs::DistSummary &d : m.distributions) {
        if (d.path == "phase/lowering/wall_us") {
            saw_lowering = true;
            EXPECT_EQ(d.count, 1u);
            EXPECT_GE(d.p99, d.p50);
        }
    }
    EXPECT_TRUE(saw_lowering);
    bool saw_cells = false;
    for (const auto &[name, value] : m.counters) {
        if (name == "sweep/cells") {
            saw_cells = true;
            EXPECT_EQ(value, 1u);
        }
    }
    EXPECT_TRUE(saw_cells);
}

TEST(RunLedger, ConcurrentMultiProcessAppendsNeverTear)
{
    std::string path = tempPath("vvsp-ledger-fork");
    std::remove(path.c_str());

    constexpr int kWriters = 8;
    constexpr int kAppends = 25;
    std::vector<pid_t> children;
    for (int w = 0; w < kWriters; ++w) {
        pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: hammer the ledger. The machine key is long so a
            // torn line would be easy to produce without the flock +
            // single-write discipline.
            obs::RunManifest m = sampleManifest();
            m.threads = w;
            for (int i = 0; i < kAppends; ++i) {
                m.wallUs = static_cast<uint64_t>(w * 1000 + i);
                if (!obs::appendToLedger(path, m))
                    _exit(1);
            }
            _exit(0);
        }
        children.push_back(pid);
    }
    for (pid_t pid : children) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    std::vector<obs::RunManifest> entries;
    size_t malformed = 0;
    ASSERT_TRUE(obs::readLedger(path, entries, &malformed));
    EXPECT_EQ(malformed, 0u) << "torn or malformed ledger lines";
    EXPECT_EQ(entries.size(),
              static_cast<size_t>(kWriters * kAppends));
    // Every entry deserializes with its machine list intact.
    for (const obs::RunManifest &e : entries)
        EXPECT_EQ(e.machines.size(), 2u);
    std::remove(path.c_str());
}

TEST(RunLedger, ConcurrentThreadAppendsNeverTear)
{
    // The threaded twin of the fork test above, so ThreadSanitizer
    // sees the appends (it cannot follow forked children).
    std::string path = tempPath("vvsp-ledger-threads");
    std::remove(path.c_str());

    constexpr int kWriters = 8;
    constexpr int kAppends = 25;
    std::atomic<int> failed{0};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&path, &failed, w] {
            obs::RunManifest m = sampleManifest();
            m.threads = w;
            for (int i = 0; i < kAppends; ++i) {
                m.wallUs = static_cast<uint64_t>(w * 1000 + i);
                if (!obs::appendToLedger(path, m))
                    failed++;
            }
        });
    }
    for (std::thread &t : writers)
        t.join();
    EXPECT_EQ(failed.load(), 0);

    std::vector<obs::RunManifest> entries;
    size_t malformed = 0;
    ASSERT_TRUE(obs::readLedger(path, entries, &malformed));
    EXPECT_EQ(malformed, 0u) << "torn or malformed ledger lines";
    EXPECT_EQ(entries.size(),
              static_cast<size_t>(kWriters * kAppends));
    std::remove(path.c_str());
}

TEST(RunLedger, ReaderSkipsMalformedLines)
{
    std::string path = tempPath("vvsp-ledger-malformed");
    {
        std::ofstream os(path, std::ios::trunc);
        os << obs::manifestJsonLine(sampleManifest()) << "\n";
        os << "{\"schema\": 1, \"truncated\n";
        os << "not json at all\n";
        os << obs::manifestJsonLine(sampleManifest()) << "\n";
    }
    std::vector<obs::RunManifest> entries;
    size_t malformed = 0;
    ASSERT_TRUE(obs::readLedger(path, entries, &malformed));
    EXPECT_EQ(entries.size(), 2u);
    EXPECT_EQ(malformed, 2u);
    std::remove(path.c_str());
}

TEST(RunLedger, DefaultPathHonorsEnvOverride)
{
    ::setenv("VVSP_LEDGER", "/tmp/override-ledger.jsonl", 1);
    EXPECT_EQ(obs::defaultLedgerPath(),
              "/tmp/override-ledger.jsonl");
    ::unsetenv("VVSP_LEDGER");
    EXPECT_NE(obs::defaultLedgerPath().find("ledger.jsonl"),
              std::string::npos);
}

TEST(LedgerDiff, FlagsLatencyRegressionBySumAndTail)
{
    obs::RunManifest a = sampleManifest();
    obs::RunManifest b = sampleManifest();
    // Remove throughput metrics so only the distribution moves.
    a.metrics.clear();
    b.metrics.clear();
    b.distributions[0].sum = a.distributions[0].sum * 2 + 100000;
    b.distributions[0].p99 = a.distributions[0].p99 * 2 + 100000;

    std::vector<obs::Regression> regs = obs::diffManifests(a, b);
    ASSERT_EQ(regs.size(), 2u);
    EXPECT_EQ(regs[0].metric, "phase/modulo_sched/wall_us/sum");
    EXPECT_EQ(regs[1].metric, "phase/modulo_sched/wall_us/p99");
    EXPECT_GT(regs[0].after, regs[0].before);
}

TEST(LedgerDiff, IdenticalRunsAndNoiseAreClean)
{
    obs::RunManifest a = sampleManifest();
    obs::RunManifest b = sampleManifest();
    EXPECT_TRUE(obs::diffManifests(a, b).empty());

    // Below the absolute latency floor: a 10x ratio on a 20us phase
    // is noise, not a regression.
    b.distributions[0].sum = 200;
    a.distributions[0].sum = 20;
    b.distributions[0].p99 = 200;
    a.distributions[0].p99 = 20;
    EXPECT_TRUE(obs::diffManifests(a, b).empty());
}

TEST(LedgerDiff, MetricDirectionByNameSuffix)
{
    obs::RunManifest a = sampleManifest();
    obs::RunManifest b = sampleManifest();

    // cells_per_s is higher-is-better: halving it regresses...
    b.metrics[1].second = a.metrics[1].second / 2.0;
    std::vector<obs::Regression> regs = obs::diffManifests(a, b);
    ASSERT_EQ(regs.size(), 1u);
    EXPECT_EQ(regs[0].metric, "cells_per_s");

    // ...doubling it does not.
    b.metrics[1].second = a.metrics[1].second * 2.0;
    EXPECT_TRUE(obs::diffManifests(a, b).empty());

    // wall_s is lower-is-better: doubling it (above threshold, and
    // large enough to clear any absolute floor) regresses.
    b = sampleManifest();
    a.metrics[0].second = 10.0;
    b.metrics[0].second = 25.0;
    regs = obs::diffManifests(a, b);
    ASSERT_EQ(regs.size(), 1u);
    EXPECT_EQ(regs[0].metric, "wall_s");
}

TEST(LedgerDiff, SkipsHitCountersAndColdWarmAsymmetry)
{
    obs::RunManifest a = sampleManifest();
    obs::RunManifest b = sampleManifest();
    // A warm rerun hits caches it missed cold: not a regression.
    b.counters.emplace_back("disk_cache/hit", 1000);
    a.counters.emplace_back("disk_cache/hit", 1);
    // A counter absent from the baseline (cold/warm asymmetry).
    b.counters.emplace_back("memo/only_in_b", 5000);
    EXPECT_TRUE(obs::diffManifests(a, b).empty());

    // But a genuinely growing work counter is one.
    obs::RunManifest c = sampleManifest();
    c.counters[1].second = a.counters[1].second * 3 + 100;
    std::vector<obs::Regression> regs = obs::diffManifests(a, c);
    ASSERT_EQ(regs.size(), 1u);
    EXPECT_EQ(regs[0].metric, "sched/list_runs");
}

#ifdef VVSP_CLI_PATH

/** Run a shell command, returning its exit status. */
int
runCommand(const std::string &cmd)
{
    int status = std::system(cmd.c_str());
    if (status < 0 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

TEST(LedgerCli, SweepTwiceDiffCleanThenSyntheticSlowdownFails)
{
    const std::string vvsp = VVSP_CLI_PATH;
    const std::string ledger = tempPath("vvsp-ledger-cli") + ".jsonl";
    std::remove(ledger.c_str());

    // The "SW Pipelined & predicated" variant exercises the modulo
    // scheduler, so phase/modulo_sched appears in the manifests.
    const std::string sweep =
        "\"" + vvsp + "\" sweep colorconv" +
        " \"--variant=SW Pipelined & predicated\"" +
        " --model=I4C8S4 --threads=1 --no-disk-cache" +
        " --ledger=\"" + ledger + "\" > /dev/null 2>&1";
    ASSERT_EQ(runCommand(sweep), 0);
    ASSERT_EQ(runCommand(sweep), 0);

    // --threshold=4 keeps scheduler-noise between two honest runs
    // from flaking the test, and ctest runs it alone (RUN_SERIAL in
    // tests/CMakeLists.txt) so no neighbour preempts a sub-millisecond
    // phase; the synthetic tamper below adds an absolute +100ms, far
    // beyond any threshold.
    const std::string diff = "\"" + vvsp + "\" diff --threshold=4" +
                             " --ledger=\"" + ledger +
                             "\" > /dev/null 2>&1";
    EXPECT_EQ(runCommand(diff), 0)
        << "two identical runs must diff clean";

    // Synthetic regression: append a clone of the last entry with the
    // modulo-scheduling phase 2x slower, then diff the last two.
    std::vector<obs::RunManifest> entries;
    ASSERT_TRUE(obs::readLedger(ledger, entries));
    ASSERT_EQ(entries.size(), 2u);
    obs::RunManifest slow = entries.back();
    bool tampered = false;
    for (obs::DistSummary &d : slow.distributions) {
        if (d.path == "phase/modulo_sched/wall_us") {
            d.sum = d.sum * 2 + 100000;
            d.p99 = d.p99 * 2 + 100000;
            tampered = true;
        }
    }
    ASSERT_TRUE(tampered)
        << "sweep manifest lacks phase/modulo_sched/wall_us";
    ASSERT_TRUE(obs::appendToLedger(ledger, slow));

    EXPECT_EQ(runCommand(diff), 1)
        << "a 2x modulo_sched slowdown must trip the sentinel";

    // The regressed metric is named in the report.
    const std::string diff_out =
        "\"" + vvsp + "\" diff --threshold=4 --ledger=\"" + ledger +
        "\" 2>/dev/null | grep -q phase/modulo_sched/wall_us";
    EXPECT_EQ(runCommand(diff_out), 0);

    // `vvsp report` sees the group without erroring.
    const std::string report = "\"" + vvsp + "\" report --ledger=\"" +
                               ledger + "\" > /dev/null 2>&1";
    EXPECT_EQ(runCommand(report), 0);
    std::remove(ledger.c_str());
}

#endif // VVSP_CLI_PATH

} // anonymous namespace
} // namespace vvsp
