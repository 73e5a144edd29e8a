/**
 * @file
 * Crash-safety stress suite: forked children SIGKILL themselves in
 * the middle of a disk-cache store (via crash-action failpoints) and
 * the surviving cache must yield either a clean miss or a
 * byte-identical warm hit — never a crash, never a wrong result.
 * Also covers `vvsp fsck` (library and CLI): quarantine of torn and
 * corrupt files, orphan-temp and retired-blob sweeps, torn-ledger
 * repair, and the degraded-schedule path end to end through the
 * driver.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cache_fsck.hh"
#include "core/disk_cache.hh"
#include "obs/run_ledger.hh"
#include "support/failpoint.hh"

using namespace vvsp;

namespace
{

namespace fs = std::filesystem;

/** Fresh scratch directory, removed on destruction. */
struct TempDir
{
    TempDir()
    {
        static int seq = 0;
        path = (fs::temp_directory_path() /
                ("vvsp-crash-test-" + std::to_string(::getpid()) +
                 "-" + std::to_string(seq++)))
                   .string();
    }
    ~TempDir() { fs::remove_all(path); }
    std::string path;
};

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/** A small but fully-populated result to round trip. */
ExperimentResult
sampleResult()
{
    ExperimentResult res;
    res.kernel = "crash-kernel";
    res.variant = "crash-variant";
    res.model = "I4C8S4";
    res.note = "stress";
    res.cyclesPerUnit = 42.5;
    res.cyclesPerFrame = 1.0e6;
    res.unitsPerFrame = 100;
    res.replication = 1;
    res.checked = true;
    res.passed = true;
    res.comp.cyclesPerUnit = 42.5;
    RegionCost r;
    r.label = "loop";
    r.execCount = 4.0;
    r.length = 9;
    r.ii = 2;
    r.cycles = 36.0;
    res.comp.regions = {r};
    return res;
}

void
expectSameResult(const ExperimentResult &a, const ExperimentResult &b)
{
    EXPECT_EQ(a.kernel, b.kernel);
    EXPECT_EQ(a.variant, b.variant);
    EXPECT_EQ(a.cyclesPerUnit, b.cyclesPerUnit);
    ASSERT_EQ(a.comp.regions.size(), b.comp.regions.size());
    EXPECT_EQ(a.comp.regions[0].ii, b.comp.regions[0].ii);
}

/** Run a shell command, returning its exit status (or -1). */
int
runCommand(const std::string &cmd)
{
    int status = std::system(cmd.c_str());
    if (status < 0 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

/** Failpoint state must never leak between tests in this binary. */
class CrashStress : public ::testing::Test
{
  protected:
    void SetUp() override { failpoint::clearAll(); }
    void TearDown() override { failpoint::clearAll(); }
};

class Fsck : public ::testing::Test
{
  protected:
    void SetUp() override { failpoint::clearAll(); }
    void TearDown() override { failpoint::clearAll(); }
};

TEST_F(CrashStress, ChildKilledMidStoreLeavesRecoverableCache)
{
    // Children die by SIGKILL at different points inside store():
    // before the temp write, mid body, and between the complete temp
    // write and the publishing rename. Whatever survives on disk,
    // the parent must see a clean miss, and a re-store must heal the
    // slot bit-exactly.
    const char *sites[] = {
        "disk_cache/store_open",
        "disk_cache/store_short_write",
        "disk_cache/store_publish",
        "disk_cache/store_rename",
    };
    TempDir dir;
    ExperimentResult in = sampleResult();
    for (const char *site : sites) {
        const std::string key = std::string("crash-key-") + site;
        pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: arm the crash and die inside store(). _exit(1)
            // is only reached if the failpoint never fired.
            failpoint::Spec spec;
            spec.trigger = failpoint::Trigger::Once;
            spec.action = failpoint::Action::Crash;
            failpoint::configure(site, spec);
            DiskCache(dir.path).store(key, in);
            _exit(1);
        }
        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFSIGNALED(status))
            << site << ": child exited instead of crashing";
        EXPECT_EQ(WTERMSIG(status), SIGKILL) << site;

        // Survivor: a clean miss (no site publishes a valid entry
        // before its crash point), then a healing re-store.
        DiskCache disk(dir.path);
        ExperimentResult out;
        EXPECT_FALSE(disk.load(key, out))
            << site << ": a half-stored entry must read as a miss";
        ASSERT_TRUE(disk.store(key, in)) << site;
        ASSERT_TRUE(disk.load(key, out)) << site;
        expectSameResult(in, out);
    }

    // fsck sweeps whatever temp orphans the crashes left and ends
    // clean on a second pass.
    FsckReport first = fsckCacheDir(dir.path, /*repair=*/true);
    EXPECT_EQ(first.unrepaired, 0u);
    FsckReport second = fsckCacheDir(dir.path, /*repair=*/true);
    EXPECT_TRUE(second.findings.empty());
    EXPECT_EQ(second.entriesOk, 4u);
}

TEST_F(CrashStress, TornPublishedEntryIsAMissAndRewritable)
{
    // The short-write failpoint publishes a torn entry (half the
    // body, renamed into place) — the worst power-loss outcome on a
    // filesystem without write barriers. Readers must classify it
    // Corrupt and recompute; a later store heals the slot.
    TempDir dir;
    DiskCache disk(dir.path);
    ExperimentResult in = sampleResult();

    failpoint::Spec spec;
    spec.trigger = failpoint::Trigger::Once;
    failpoint::configure("disk_cache/store_short_write", spec);
    EXPECT_FALSE(disk.store("torn-key", in))
        << "a torn publish must report failure";
    EXPECT_TRUE(fs::exists(disk.entryPath("torn-key")))
        << "the torn file is published (that is the point)";

    ExperimentResult out;
    EXPECT_EQ(disk.loadClassified("torn-key", out),
              DiskLoadOutcome::Corrupt);
    ASSERT_TRUE(disk.store("torn-key", in));
    EXPECT_EQ(disk.loadClassified("torn-key", out),
              DiskLoadOutcome::Hit);
    expectSameResult(in, out);
}

TEST_F(CrashStress, EnospcAndRenameFaultsFailCleanWithoutDebris)
{
    // Both clean-failure modes: no entry published, no temp left.
    TempDir dir;
    DiskCache disk(dir.path);
    ExperimentResult in = sampleResult();
    for (const char *site :
         {"disk_cache/store_enospc", "disk_cache/store_rename"}) {
        failpoint::clearAll();
        failpoint::Spec spec;
        spec.trigger = failpoint::Trigger::Once;
        failpoint::configure(site, spec);
        EXPECT_FALSE(disk.store("clean-key", in)) << site;
        EXPECT_FALSE(fs::exists(disk.entryPath("clean-key"))) << site;
        size_t files = 0;
        for (const auto &e : fs::directory_iterator(dir.path)) {
            (void)e;
            ++files;
        }
        EXPECT_EQ(files, 0u) << site << " left debris behind";
    }
}

TEST_F(Fsck, QuarantinesDamageAndSweepsOrphans)
{
    TempDir dir;
    DiskCache disk(dir.path);
    ExperimentResult in = sampleResult();
    ASSERT_TRUE(disk.store("good-key", in));

    // Damage: a torn entry, a bit-flipped entry, a wrong-stem entry
    // (hash collision evidence), and an orphan temp file.
    {
        failpoint::Spec spec;
        spec.trigger = failpoint::Trigger::Once;
        failpoint::configure("disk_cache/store_short_write", spec);
        EXPECT_FALSE(disk.store("torn-key", in));
        failpoint::clearAll();
    }
    ASSERT_TRUE(disk.store("flipped", in));
    {
        // The flip lands in the "end" trailer.
        std::string path = disk.entryPath("flipped");
        std::string body = readFile(path);
        ASSERT_GT(body.size(), 4u);
        body[body.size() - 2] ^= 0x40;
        std::ofstream os(path,
                         std::ios::binary | std::ios::trunc);
        os << body;
    }
    ASSERT_TRUE(disk.store("moved-key", in));
    fs::rename(disk.entryPath("moved-key"),
               fs::path(dir.path) / "0123456789abcdef.entry");
    {
        std::ofstream os(fs::path(dir.path) / "feed.entry.tmp.99.1",
                         std::ios::binary);
        os << "abandoned";
    }

    FsckReport report = fsckCacheDir(dir.path, /*repair=*/true);
    EXPECT_EQ(report.entriesOk, 1u);
    EXPECT_EQ(report.findings.size(), 4u);
    EXPECT_EQ(report.unrepaired, 0u);

    // The survivor still loads; the damage is in quarantine/.
    ExperimentResult out;
    EXPECT_TRUE(disk.load("good-key", out));
    size_t quarantined = 0;
    for (const auto &e :
         fs::directory_iterator(fs::path(dir.path) / "quarantine")) {
        (void)e;
        ++quarantined;
    }
    EXPECT_EQ(quarantined, 3u); // orphan temps are removed, not kept.

    FsckReport second = fsckCacheDir(dir.path, /*repair=*/true);
    EXPECT_TRUE(second.findings.empty());
}

TEST_F(Fsck, RetiresLeftoverBlobFiles)
{
    // Older builds stored encoded ISA modules as .blob files beside
    // the entries; no build reads them any more.
    TempDir dir;
    DiskCache disk(dir.path);
    ASSERT_TRUE(disk.store("good-key", sampleResult()));
    const fs::path blob = fs::path(dir.path) / "00c0ffee00c0ffee.blob";
    {
        std::ofstream os(blob, std::ios::binary);
        os << "vvsp-blob 1 isa-module\n3\nkey\n4\n\x01\x02\x03\x04\n"
              "end\n";
    }

    // Check-only mode reports the blob and leaves it in place.
    FsckReport check = fsckCacheDir(dir.path, /*repair=*/false);
    EXPECT_EQ(check.entriesOk, 1u);
    ASSERT_EQ(check.findings.size(), 1u);
    EXPECT_EQ(check.findings[0].what, "retired .blob file");
    EXPECT_EQ(check.findings[0].action, "none");
    EXPECT_EQ(check.unrepaired, 1u);
    EXPECT_TRUE(fs::exists(blob));

    // Repair mode deletes it (nothing to quarantine) and keeps the
    // entry.
    FsckReport repair = fsckCacheDir(dir.path, /*repair=*/true);
    EXPECT_EQ(repair.entriesOk, 1u);
    ASSERT_EQ(repair.findings.size(), 1u);
    EXPECT_EQ(repair.findings[0].what, "retired .blob file");
    EXPECT_EQ(repair.findings[0].action, "removed");
    EXPECT_EQ(repair.unrepaired, 0u);
    EXPECT_FALSE(fs::exists(blob));
    EXPECT_FALSE(fs::exists(fs::path(dir.path) / "quarantine"));
    ExperimentResult out;
    EXPECT_TRUE(disk.load("good-key", out));

    EXPECT_TRUE(fsckCacheDir(dir.path, /*repair=*/true)
                    .findings.empty());
}

TEST_F(Fsck, CheckOnlyModeLeavesDamageInPlace)
{
    TempDir dir;
    DiskCache disk(dir.path);
    {
        failpoint::Spec spec;
        spec.trigger = failpoint::Trigger::Once;
        failpoint::configure("disk_cache/store_short_write", spec);
        EXPECT_FALSE(disk.store("torn-key", sampleResult()));
        failpoint::clearAll();
    }
    FsckReport report = fsckCacheDir(dir.path, /*repair=*/false);
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_GT(report.unrepaired, 0u);
    EXPECT_TRUE(fs::exists(disk.entryPath("torn-key")))
        << "check-only mode must not move files";
    EXPECT_FALSE(fs::exists(fs::path(dir.path) / "quarantine"));
}

TEST_F(Fsck, LedgerTornTailAndMalformedLinesRepair)
{
    TempDir dir;
    fs::create_directories(dir.path);
    const std::string ledger =
        (fs::path(dir.path) / "ledger.jsonl").string();

    obs::RunManifest m;
    m.unixTime = 1700000000;
    m.subcommand = "sweep";
    m.threads = 1;
    m.metrics = {{"cells", 2.0}};
    ASSERT_TRUE(obs::appendToLedger(ledger, m));
    ASSERT_TRUE(obs::appendToLedger(ledger, m));
    {
        // A malformed middle line and a torn (newline-less) tail,
        // exactly what a mid-append power cut leaves behind.
        std::ofstream os(ledger, std::ios::binary | std::ios::app);
        os << "this is not json\n";
        os << "{\"schema\": 1, \"subcomm";
    }

    FsckReport report;
    fsckLedger(ledger, /*repair=*/true, report);
    EXPECT_EQ(report.ledgerOk, 2u);
    // One aggregate finding covers every bad line; the torn tail
    // names the damage class.
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_NE(report.findings[0].what.find("torn"),
              std::string::npos);
    EXPECT_EQ(report.unrepaired, 0u);

    // The rewritten ledger parses fully and kept the good lines.
    std::vector<obs::RunManifest> entries;
    ASSERT_TRUE(obs::readLedger(ledger, entries));
    EXPECT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].subcommand, "sweep");

    FsckReport second;
    fsckLedger(ledger, /*repair=*/true, second);
    EXPECT_TRUE(second.findings.empty());
    EXPECT_EQ(second.ledgerOk, 2u);
}

#ifdef VVSP_CLI_PATH

TEST_F(CrashStress, CliCrashMidStoreThenWarmRunIsBitIdentical)
{
    // End to end through the driver: a reference cold run, a run
    // SIGKILLed mid-store by a crash failpoint, then warm reruns
    // against the surviving cache. Warm output must match the
    // reference byte for byte, and fsck must report the cache
    // healthy (after sweeping crash debris).
    const std::string vvsp = VVSP_CLI_PATH;
    TempDir ref_dir, crash_dir;
    const std::string ref_out = ref_dir.path + ".ref.txt";
    const std::string warm_out = ref_dir.path + ".warm.txt";

    const std::string base_args =
        " table1 colorconv --json --threads=1 ";
    ASSERT_EQ(runCommand("\"" + vvsp + "\"" + base_args +
                         "--cache-dir=\"" + ref_dir.path + "\" > \"" +
                         ref_out + "\" 2>/dev/null"),
              0);
    const std::string reference = readFile(ref_out);
    ASSERT_FALSE(reference.empty());

    // The 3rd store dies between temp write and rename: SIGKILL
    // surfaces as 128 + 9 through the shell.
    EXPECT_EQ(
        runCommand("VVSP_FAILPOINTS="
                   "'disk_cache/store_publish=nth:3,crash' \"" +
                   vvsp + "\"" + base_args + "--cache-dir=\"" +
                   crash_dir.path + "\" > /dev/null 2>&1"),
        128 + SIGKILL);

    // Warm run over the survivor: exit 0 and byte-identical stdout.
    for (int rerun = 0; rerun < 2; ++rerun) {
        ASSERT_EQ(runCommand("\"" + vvsp + "\"" + base_args +
                             "--cache-dir=\"" + crash_dir.path +
                             "\" > \"" + warm_out +
                             "\" 2>/dev/null"),
                  0)
            << "rerun " << rerun;
        EXPECT_EQ(readFile(warm_out), reference)
            << "rerun " << rerun << " diverged from the cold run";
    }

    // fsck (sweeping the crash's temp orphan) and a clean second pass.
    const std::string fsck = "\"" + vvsp + "\" fsck --cache-dir=\"" +
                             crash_dir.path + "\" --ledger=\"" +
                             crash_dir.path + "/no-ledger.jsonl\"";
    EXPECT_EQ(runCommand(fsck + " > /dev/null 2>&1"), 0);
    EXPECT_EQ(runCommand(fsck + " | grep -q clean"), 0);
    std::remove(ref_out.c_str());
    std::remove(warm_out.c_str());
}

TEST_F(Fsck, CliDegradedRunFlagsCellsAndNeverPoisonsTheCache)
{
    // A starved scheduling budget plus an always-infeasible II
    // failpoint forces every software-pipelined region onto the
    // acyclic fallback: the run must still succeed, mark its cells
    // degraded in the JSON, and keep degraded results out of the
    // disk cache so an unconstrained rerun recomputes and matches a
    // fresh reference.
    const std::string vvsp = VVSP_CLI_PATH;
    TempDir dir;
    const std::string degraded_out = dir.path + ".degraded.txt";
    const std::string healed_out = dir.path + ".healed.txt";
    const std::string base_args =
        " table1 colorconv --json --threads=1 ";

    ASSERT_EQ(
        runCommand("VVSP_SCHED_BUDGET=1 "
                   "VVSP_FAILPOINTS='sched/ii_attempt=always' \"" +
                   vvsp + "\"" + base_args + "--cache-dir=\"" +
                   dir.path + "\" > \"" + degraded_out +
                   "\" 2>/dev/null"),
        0)
        << "a degraded run must still exit 0 (degraded, not wrong)";
    const std::string degraded = readFile(degraded_out);
    EXPECT_NE(degraded.find("\"degraded\": true"), std::string::npos)
        << "degraded cells must be flagged in the JSON";

    // Unconstrained rerun against the same cache directory: the
    // degraded results must not have been cached, so this recomputes
    // and reports no degraded cells.
    ASSERT_EQ(runCommand("\"" + vvsp + "\"" + base_args +
                         "--cache-dir=\"" + dir.path + "\" > \"" +
                         healed_out + "\" 2>/dev/null"),
              0);
    const std::string healed = readFile(healed_out);
    EXPECT_EQ(healed.find("\"degraded\""), std::string::npos)
        << "a degraded result leaked through the disk cache";
    std::remove(degraded_out.c_str());
    std::remove(healed_out.c_str());
}

TEST_F(Fsck, CliDegradedUtilizationSimulatesTheFallback)
{
    // The same starved budget reaches `vvsp utilization`: its
    // cycle-simulated units run the acyclic fallback the composer
    // schedules, and the reference datapath's full-search check
    // still runs to its verdict.
    const std::string vvsp = VVSP_CLI_PATH;
    TempDir dir;
    const std::string out = dir.path + ".utilization.txt";
    ASSERT_EQ(runCommand("VVSP_SCHED_BUDGET=1 "
                         "VVSP_FAILPOINTS='sched/ii_attempt=always' \"" +
                         vvsp + "\" utilization --model=I4C8S4 "
                                "--threads=1 --no-disk-cache > \"" +
                         out + "\" 2>/dev/null"),
              0)
        << "a degraded utilization run must still exit 0";
    EXPECT_NE(readFile(out).find("\ncheck: PASS\n"), std::string::npos)
        << readFile(out);
    std::remove(out.c_str());
}

TEST_F(Fsck, CliExitCodesFollowTheConvention)
{
    const std::string vvsp = VVSP_CLI_PATH;
    TempDir dir;
    DiskCache disk(dir.path);
    {
        failpoint::Spec spec;
        spec.trigger = failpoint::Trigger::Once;
        failpoint::configure("disk_cache/store_short_write", spec);
        EXPECT_FALSE(disk.store("torn-key", sampleResult()));
        failpoint::clearAll();
    }
    const std::string common = "--cache-dir=\"" + dir.path +
                               "\" --ledger=\"" + dir.path +
                               "/no-ledger.jsonl\"";
    // 1: damage found and left in place (--no-quarantine).
    EXPECT_EQ(runCommand("\"" + vvsp + "\" fsck " + common +
                         " --no-quarantine > /dev/null 2>&1"),
              1);
    // 0: same damage, quarantined.
    EXPECT_EQ(runCommand("\"" + vvsp + "\" fsck " + common +
                         " > /dev/null 2>&1"),
              0);
    // 2: usage error.
    EXPECT_EQ(runCommand("\"" + vvsp +
                         "\" fsck stray-arg > /dev/null 2>&1"),
              2);
}

#endif // VVSP_CLI_PATH

} // anonymous namespace
